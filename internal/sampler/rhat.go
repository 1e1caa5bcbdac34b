package sampler

// rhat.go: the cross-chain convergence diagnostics on the batched engines.
// B independent lockstep chains are exactly the input the potential scale
// reduction factor R̂ wants: for each vertex, the between-chain variance of
// the per-chain means is compared against the mean within-chain variance;
// R̂ ≈ 1 once every chain explores the same distribution, and values well
// above 1 flag unconverged sweeps. Symbols are treated as numeric scores
// (the standard practice for categorical chains — a heuristic but
// effective stall detector; for q = 2 models it is exactly the
// indicator-mean diagnostic). Per-vertex values are exposed, and the worst
// vertex is the headline number cmd/lsample and the internal/run driver
// report.
//
// Two accumulation structures back the diagnostics:
//
//   - running Welford moments per (vertex, chain), numerically stable over
//     any number of observations, behind the classic whole-chain statistic
//     (At, Worst);
//   - a bounded, evenly thinned observation buffer behind the split
//     statistic (SplitAt, WorstSplit — each retained chain series is split
//     into halves, so a chain that wandered between two modes shows up
//     even when the whole-chain means agree) and the per-vertex effective
//     sample size (ESSAt, MinESS — Geyer initial-monotone autocorrelation
//     sums on the retained series). The buffer is time-major: one []int32
//     row per retained observation, laid out like the lattice (cell v*B+c),
//     so Observe copies the lattice into one contiguous row. Rows are
//     allocated as the history first reaches them, up to the capacity; when
//     the buffer fills, every other retained row is dropped by permuting
//     row headers (the dropped rows are reused) and the retention stride
//     doubles, so the retained series stays evenly spaced across the whole
//     history and memory stays bounded no matter how long the run.
//
// A convergence check — the first WorstSplit or MinESS call after an
// Observe — runs one scan over the vertices that computes both the split
// R̂ and the ESS of every vertex and keeps both winners; the other call
// returns the kept winner, and the next Observe drops them. Per vertex the
// scan gathers the B×L block out of the rows once, into a scratch small
// enough for L1, then makes one integer pass and one float pass over it
// (see chainStats) that yield every per-chain moment both statistics need,
// plus the centred series. Each step runs the same floating-point
// operations in the same order as a per-series evaluation would, so every
// value is bit-identical to it: series means come from exact integer sums
// (every partial sum of ≤ maxRetain int32 symbols is an integer below 2⁵³,
// so it equals the serial float sum), each accumulator sees its
// deviations in time order, and one pass accumulates the Geyer lags
// k..k+3 with one accumulator each, in (chain, time) order. SplitAt and
// ESSAt run the same per-vertex path for a single vertex. The scans split
// the vertices into contiguous blocks across goroutines; see scan for why
// the answer is independent of the block count.

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/dist"
	"repro/internal/state"
)

// DefaultRetain is the observation-buffer capacity: enough resolution for
// the split and autocorrelation statistics. The buffer costs 4·n·B bytes
// per retained observation, so at most 1 KiB per (vertex, chain) cell.
const DefaultRetain = 256

// maxRetain bounds the capacity so that every integer sum of a retained
// int32 series is exact in float64 (2²² · 2³¹ = 2⁵³).
const maxRetain = 1 << 22

// Rhat accumulates per-(vertex, chain) observation statistics of a
// multi-chain engine's state and reports the Gelman–Rubin statistic
// (classic and split forms) and the effective sample size per vertex. It
// works with any MultiChain — the chromatic Batch and the batched
// LubyGlauber and LocalMetropolis engines alike.
type Rhat struct {
	m     MultiChain
	n     int
	b     int
	count int
	// mean and m2 are chain-major like the lattice: entry v*B+c carries
	// chain c's running mean / centered second moment at vertex v.
	mean []float64
	m2   []float64

	// rows is the thinned observation buffer, oldest first: rows[i][v*B+c]
	// is chain c's symbol at vertex v in the i-th retained observation,
	// evenly spaced every `stride` observations across the history. rows
	// grows to at most `retain` entries; only rows[:rlen] hold retained
	// observations, the rest are spares awaiting reuse.
	rows   [][]int32
	retain int
	rlen   int
	stride int
	skip   int

	// scr holds one scratch per scan block (scr[0] also serves the
	// single-vertex calls); picks holds each block's winners.
	scr   []scratch
	picks []extremes

	// best holds the check's winners (max: split R̂, min: ESS) for the
	// current observations while checked is set.
	checked bool
	best    extremes
}

// scratch is one goroutine's per-vertex working set.
type scratch struct {
	// blk is the gathered B×L block of one vertex, time-major like the rows
	// (blk[t*B+c]); cen holds the same block centred on each chain's mean,
	// chain-major with stride L+lagPad and zero padding (cen[c*(L+lagPad)+t]).
	blk []int32
	cen []float64
	// mean and dev are per-chain moments of one block and seqMean/seqVar
	// the 2B split-sequence moments (see chainStats).
	mean, dev []float64
	seqMean   []float64
	seqVar    []float64
	// touch keeps gather's prefetching loads from being optimized away.
	touch int32
}

// pick is a scan block's winning vertex and value.
type pick struct {
	v int
	x float64
}

// NewRhat returns an empty accumulator for the multi-chain engine with the
// default observation-buffer capacity. The diagnostics need at least two
// chains.
func NewRhat(m MultiChain) (*Rhat, error) { return NewRhatRetain(m, DefaultRetain) }

// NewRhatRetain returns an empty accumulator retaining at most `retain`
// thinned observations per (vertex, chain) series. retain must be an even
// number in [8, 2²²] (thinning halves the buffer in place; the bound keeps
// series sums exact).
func NewRhatRetain(m MultiChain, retain int) (*Rhat, error) {
	if m.Chains() < 2 {
		return nil, fmt.Errorf("sampler: Gelman–Rubin needs ≥ 2 chains, engine has %d", m.Chains())
	}
	if retain < 8 || retain%2 != 0 || retain > maxRetain {
		return nil, fmt.Errorf("sampler: observation buffer capacity must be an even number in [8, %d], got %d", maxRetain, retain)
	}
	n := m.Lattice().N()
	B := m.Chains()
	return &Rhat{
		m:      m,
		n:      n,
		b:      B,
		mean:   make([]float64, n*B),
		m2:     make([]float64, n*B),
		rows:   make([][]int32, 0, retain),
		retain: retain,
		stride: 1,
	}, nil
}

// Observe folds the engine's current state into the running moments and,
// on retention strides, into the observation buffer. Call it between Run
// chunks (e.g. once per sweep-equivalent).
func (r *Rhat) Observe() {
	r.count++
	r.dropCheck()
	keep := r.skip == 0
	var row []int32
	if keep {
		if r.rlen == len(r.rows) {
			r.rows = append(r.rows, make([]int32, r.n*r.b))
		}
		row = r.rows[r.rlen]
	}
	lat := r.m.Lattice()
	if lat.Compact() {
		fold(lat.Raw8(), true, r.mean, r.m2, row, float64(r.count))
	} else {
		fold(lat.RawWide(), false, r.mean, r.m2, row, float64(r.count))
	}
	if !keep {
		r.skip--
		return
	}
	r.rlen++
	if r.rlen == r.retain {
		// Thin: keep every other retained row (the most recent one stays
		// retained), double the stride. The retained set remains the
		// multiples of the stride, so the series stays evenly spaced. The
		// swaps only permute headers: rows[i] takes rows[2i+1], which no
		// earlier swap has touched, and the dropped rows become spares.
		half := r.retain / 2
		for i := 0; i < half; i++ {
			r.rows[i], r.rows[2*i+1] = r.rows[2*i+1], r.rows[i]
		}
		r.rlen = half
		r.stride *= 2
	}
	r.skip = r.stride - 1
}

// fold adds one observation of every cell to the Welford moments and, when
// row is non-nil, stores it there. compact marks uint8 cells, whose 0xFF
// is the Unset sentinel.
func fold[T state.Cells](cells []T, compact bool, mean, m2 []float64, row []int32, count float64) {
	mean = mean[:len(cells)]
	m2 = m2[:len(cells)]
	if row != nil {
		row = row[:len(cells)]
	}
	for i, cell := range cells {
		x := int(cell)
		if compact && x == 0xFF {
			x = dist.Unset
		}
		xf := float64(x)
		d := xf - mean[i]
		mean[i] += d / count
		m2[i] += d * (xf - mean[i])
		if row != nil {
			row[i] = int32(x)
		}
	}
}

// Count returns the number of observations folded in so far.
func (r *Rhat) Count() int { return r.count }

// Retained returns the number of thinned observations currently buffered
// per (vertex, chain) series and their spacing in observations.
func (r *Rhat) Retained() (length, stride int) { return r.rlen, r.stride }

// SplitReady reports whether enough observations are buffered for the
// split statistic and the effective sample size (≥ 4 retained).
func (r *Rhat) SplitReady() bool { return r.rlen >= 4 }

func (r *Rhat) needObs() error {
	if r.count < 2 {
		return fmt.Errorf("sampler: Gelman–Rubin needs ≥ 2 observations, have %d", r.count)
	}
	return nil
}

func (r *Rhat) needRetained(stat string) error {
	if !r.SplitReady() {
		return fmt.Errorf("sampler: %s needs ≥ 4 retained observations, have %d", stat, r.rlen)
	}
	return nil
}

// lagPad is the zero padding after each centred series: one Geyer pass
// reads up to three entries past the end.
const lagPad = 3

// scratchFor returns the i-th scratch, growing the set as needed.
func (r *Rhat) scratchFor(i int) *scratch {
	B := r.b
	for len(r.scr) <= i {
		r.scr = append(r.scr, scratch{
			blk:     make([]int32, B*r.retain),
			cen:     make([]float64, B*(r.retain+lagPad)),
			mean:    make([]float64, B),
			dev:     make([]float64, B),
			seqMean: make([]float64, 2*B),
			seqVar:  make([]float64, 2*B),
		})
	}
	return &r.scr[i]
}

// gather copies vertex v's retained B×L block into the scratch,
// time-major, and returns it.
func (r *Rhat) gather(sc *scratch, v int) []int32 {
	B, L := r.b, r.rlen
	blk := sc.blk[:B*L]
	off := v * B
	// Each row contributes one cache line to the block, and the rows lie
	// far apart. Touching every line first, with a loop too light to fill
	// the reorder window, keeps many misses in flight at once; the copy
	// loop below then hits L1.
	var touch int32
	for _, row := range r.rows[:L] {
		touch += row[off]
	}
	sc.touch += touch
	for t, row := range r.rows[:L] {
		copy(blk[t*B:(t+1)*B], row[off:off+B])
	}
	return blk
}

// chainStats summarizes the time-major block blk (blk[t*B+c], B chains of
// L observations) into the scratch, for every chain c:
//
//   - mean[c] and dev[c], the chain's mean and its sum of squared
//     deviations from that mean;
//   - seqMean[2c+h] and seqVar[2c+h], the mean and variance of its first
//     (h = 0) and last (h = 1) m = L/2 observations — the split
//     statistic's sequences (for odd L the middle one is in neither);
//   - cen[c*S+t], the centred series, chain-major.
//
// One integer pass sums each half and the middle; every mean divides an
// exact integer sum (the whole-series sum is the integer total of the
// three), so it equals the serial float sum's. One float pass in time
// order then feeds each accumulator exactly the terms, in exactly the
// order, of a per-series loop: the whole-series deviations at every t,
// the first-half deviations at t < m and the second-half ones at
// t ≥ L−m. Both passes run four chains at a time with one scalar
// accumulator per chain and statistic, so the sums live in registers; the
// B mod 4 remaining chains run one at a time.
func chainStats(sc *scratch, blk []int32, B, L int, cen []float64, S int) {
	c := 0
	for ; c+4 <= B; c += 4 {
		chains4(sc, blk, B, c, L, cen, S)
	}
	for ; c < B; c++ {
		chain1(sc, blk, B, c, L, cen, S)
	}
}

// chains4 is chainStats for the four chains c..c+3.
func chains4(sc *scratch, blk []int32, B, c, L int, cen []float64, S int) {
	m, hi := L/2, L-L/2
	s1 := sum4(blk, B, c, 0, m)
	mid := sum4(blk, B, c, m, hi)
	s2 := sum4(blk, B, c, hi, L)
	Lf, mf := float64(L), float64(m)
	var mu, mu1, mu2 [4]float64
	for j := range mu {
		mu[j] = float64(s1[j]+mid[j]+s2[j]) / Lf
		mu1[j] = float64(s1[j]) / mf
		mu2[j] = float64(s2[j]) / mf
	}
	var dev, dev1, dev2, none [4]float64
	dev4(blk, B, c, 0, m, &mu, &mu1, &dev, &dev1, cen, S)
	if hi > m {
		dev4(blk, B, c, m, hi, &mu, &mu, &dev, &none, cen, S)
	}
	dev4(blk, B, c, hi, L, &mu, &mu2, &dev, &dev2, cen, S)
	for j := range mu {
		k := c + j
		sc.mean[k], sc.dev[k] = mu[j], dev[j]
		sc.seqMean[2*k], sc.seqVar[2*k] = mu1[j], dev1[j]/(mf-1)
		sc.seqMean[2*k+1], sc.seqVar[2*k+1] = mu2[j], dev2[j]/(mf-1)
	}
}

// sum4 returns the integer sums of chains c..c+3 over times [lo, hi).
func sum4(blk []int32, B, c, lo, hi int) [4]int64 {
	var s0, s1, s2, s3 int64
	for o := lo*B + c; o < hi*B; o += B {
		x := blk[o : o+4 : o+4]
		s0 += int64(x[0])
		s1 += int64(x[1])
		s2 += int64(x[2])
		s3 += int64(x[3])
	}
	return [4]int64{s0, s1, s2, s3}
}

// dev4 continues, over times [lo, hi), two sums of squared deviations for
// each chain c+j of c..c+3: acc[j] from the whole-series mean mu[j], whose
// centred values it stores in cen, and half[j] from the half mean hmu[j].
func dev4(blk []int32, B, c, lo, hi int, mu, hmu, acc, half *[4]float64, cen []float64, S int) {
	// The means are read through mu and hmu at every step rather than held
	// in locals: the loads fold into the subtractions, which leaves the
	// registers to the eight accumulators.
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	e0, e1, e2, e3 := half[0], half[1], half[2], half[3]
	y0 := cen[c*S+lo : c*S+hi]
	y1 := cen[(c+1)*S+lo:][:len(y0)]
	y2 := cen[(c+2)*S+lo:][:len(y0)]
	y3 := cen[(c+3)*S+lo:][:len(y0)]
	o := lo*B + c
	for t := range y0 {
		x := blk[o : o+4 : o+4]
		o += B
		f := float64(x[0])
		d, g := f-mu[0], f-hmu[0]
		a0 += d * d
		e0 += g * g
		y0[t] = d
		f = float64(x[1])
		d, g = f-mu[1], f-hmu[1]
		a1 += d * d
		e1 += g * g
		y1[t] = d
		f = float64(x[2])
		d, g = f-mu[2], f-hmu[2]
		a2 += d * d
		e2 += g * g
		y2[t] = d
		f = float64(x[3])
		d, g = f-mu[3], f-hmu[3]
		a3 += d * d
		e3 += g * g
		y3[t] = d
	}
	acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
	half[0], half[1], half[2], half[3] = e0, e1, e2, e3
}

// chain1 is chainStats for the single chain c.
func chain1(sc *scratch, blk []int32, B, c, L int, cen []float64, S int) {
	m, hi := L/2, L-L/2
	var s1, mid, s2 int64
	for t := 0; t < m; t++ {
		s1 += int64(blk[t*B+c])
	}
	if hi > m {
		mid = int64(blk[m*B+c])
	}
	for t := hi; t < L; t++ {
		s2 += int64(blk[t*B+c])
	}
	mf := float64(m)
	mu, mu1, mu2 := float64(s1+mid+s2)/float64(L), float64(s1)/mf, float64(s2)/mf
	y := cen[c*S:][:L]
	var dev, dev1, dev2 float64
	for t := 0; t < m; t++ {
		x := float64(blk[t*B+c])
		d, g := x-mu, x-mu1
		dev += d * d
		dev1 += g * g
		y[t] = d
	}
	if hi > m {
		d := float64(blk[m*B+c]) - mu
		dev += d * d
		y[m] = d
	}
	for t := hi; t < L; t++ {
		x := float64(blk[t*B+c])
		d, g := x-mu, x-mu2
		dev += d * d
		dev2 += g * g
		y[t] = d
	}
	sc.mean[c], sc.dev[c] = mu, dev
	sc.seqMean[2*c], sc.seqVar[2*c] = mu1, dev1/(mf-1)
	sc.seqMean[2*c+1], sc.seqVar[2*c+1] = mu2, dev2/(mf-1)
}

// vertex returns vertex v's split R̂ and ESS, both from one gather of its
// B×L block and one chainStats pass over it. It is the one per-vertex path
// behind SplitAt, ESSAt and the check scan.
func (r *Rhat) vertex(sc *scratch, v int) (split, ess float64) {
	B, L := r.b, r.rlen
	S := L + lagPad
	cen := sc.cen[:B*S]
	chainStats(sc, r.gather(sc, v), B, L, cen, S)
	return r.splitOf(sc), r.essOf(sc, cen, S)
}

// At returns the classic whole-chain Gelman–Rubin statistic of vertex v
// over the observations so far. A vertex with zero variance everywhere
// (pinned, or a frozen degree of freedom) reports exactly 1; zero
// within-chain variance with disagreeing chains reports +Inf. At least two
// observations are required.
func (r *Rhat) At(v int) (float64, error) {
	if err := r.needObs(); err != nil {
		return 0, err
	}
	return r.at(v), nil
}

func (r *Rhat) at(v int) float64 {
	B := r.b
	T := float64(r.count)
	means := r.mean[v*B : (v+1)*B]
	m2 := r.m2[v*B : (v+1)*B]
	grand := 0.0
	for _, m := range means {
		grand += m
	}
	grand /= float64(B)
	within, between := 0.0, 0.0
	for c := 0; c < B; c++ {
		within += m2[c] / (T - 1)
		d := means[c] - grand
		between += d * d
	}
	within /= float64(B)
	between = between * T / float64(B-1)
	if within == 0 {
		if between == 0 {
			return 1
		}
		return math.Inf(1)
	}
	varPlus := (T-1)/T*within + between/T
	return math.Sqrt(varPlus / within)
}

// SplitAt returns the split Gelman–Rubin statistic of vertex v: every
// retained chain series is split into first and second halves, and the
// classic statistic is computed over the resulting 2B sequences — so a
// chain drifting within itself (e.g. wandering between modes) inflates
// the statistic even when whole-chain means agree. Conventions match At:
// all-constant sequences report exactly 1, zero within-sequence variance
// with disagreeing sequences reports +Inf. SplitReady must hold.
func (r *Rhat) SplitAt(v int) (float64, error) {
	if err := r.needRetained("split R̂"); err != nil {
		return 0, err
	}
	split, _ := r.vertex(r.scratchFor(0), v)
	return split, nil
}

// splitOf returns the split R̂ of the block chainStats last summarized
// into sc.
func (r *Rhat) splitOf(sc *scratch) float64 {
	mf := float64(r.rlen / 2)
	nseq := 2 * r.b
	// Sequence 2c+h is chain c's first (h = 0) or last (h = 1) m retained
	// observations.
	grand := 0.0
	for _, mean := range sc.seqMean[:nseq] {
		grand += mean
	}
	grand /= float64(nseq)
	within, between := 0.0, 0.0
	for i := 0; i < nseq; i++ {
		within += sc.seqVar[i]
		d := sc.seqMean[i] - grand
		between += d * d
	}
	within /= float64(nseq)
	between = between * mf / float64(nseq-1)
	if within == 0 {
		if between == 0 {
			return 1
		}
		return math.Inf(1)
	}
	varPlus := (mf-1)/mf*within + between/mf
	return math.Sqrt(varPlus / within)
}

// ESSAt returns the effective sample size of vertex v pooled across
// chains: B·T/τ, where τ is the integrated autocorrelation time estimated
// on the retained series by Geyer's initial-monotone-sequence rule over
// the multi-chain autocorrelations (the Stan estimator: within-chain
// autocovariances against the pooled var⁺, so chains frozen at different
// values drive the ESS to 0 rather than hiding in per-chain terms). When
// the buffer has thinned, the estimate is scaled by the retention stride —
// the retained series stands in for the evenly spaced history it samples.
// A vertex with no variance anywhere (pinned, or frozen identically in
// every chain) is perfectly estimated and reports the full pooled count
// B·Count. SplitReady must hold.
func (r *Rhat) ESSAt(v int) (float64, error) {
	if err := r.needRetained("ESS"); err != nil {
		return 0, err
	}
	_, ess := r.vertex(r.scratchFor(0), v)
	return ess, nil
}

// essOf returns the ESS of the block chainStats last summarized into sc,
// whose centred series lie in cen with stride S.
func (r *Rhat) essOf(sc *scratch, cen []float64, S int) float64 {
	B, L := r.b, r.rlen
	Lf := float64(L)
	total := float64(B) * float64(r.count)
	means := sc.mean[:B]
	grand, W := 0.0, 0.0
	for c := 0; c < B; c++ {
		grand += means[c]
		W += sc.dev[c] / (Lf - 1)
		clear(cen[c*S+L : (c+1)*S])
	}
	grand /= float64(B)
	W /= float64(B)
	between := 0.0
	for c := 0; c < B; c++ {
		d := means[c] - grand
		between += d * d
	}
	between /= float64(B - 1)
	varPlus := (Lf-1)/Lf*W + between
	if varPlus == 0 {
		// Frozen everywhere: the constant is known exactly.
		return total
	}
	if W == 0 {
		// Chains frozen apart: no amount of further observation helps.
		return 0
	}
	// Geyer: sum lag-pair autocorrelations while the pair sums stay
	// non-negative, enforcing monotone non-increase. rho turns a lag's
	// within-chain autocovariance sum over chains (biased 1/L scaling, per
	// the standard estimator) into its multi-chain autocorrelation.
	norm := float64(B) * Lf
	rho := func(g float64) float64 { return 1 - (W-g/norm)/varPlus }
	sum, prev := 0.0, math.Inf(1)
geyer:
	for k := 1; k+1 < L; k += 4 {
		g := lagSums(cen, B, S, L, k)
		for j := 0; j < 4 && k+j+1 < L; j += 2 {
			p := rho(g[j]) + rho(g[j+1])
			if p < 0 {
				break geyer
			}
			if p > prev {
				p = prev
			}
			prev = p
			sum += p
		}
	}
	tau := 1 + 2*sum
	ess := float64(B) * float64(r.stride*L) / tau
	return math.Min(ess, total)
}

// lagSums returns the autocovariance sums Σ_c Σ_t cen[c][t]·cen[c][t+l] at
// the four lags l = k..k+3 of B centred series of length L stored with
// stride S ≥ L+3, each accumulated in (chain, time) order over t < L−l.
// The four sums are independent, so one pass costs little more than one
// lag. Every pass runs t up to L−k−1; the terms past a series' end read the
// zero padding and add exactly nothing (a sum starting at +0 never becomes
// −0, and adding ±0 leaves any other value unchanged), so each result is
// bit for bit the sum over its own range.
func lagSums(cen []float64, B, S, L, k int) [4]float64 {
	var g0, g1, g2, g3 float64
	for c := 0; c < B; c++ {
		d := cen[c*S : (c+1)*S]
		a := d[:L-k]
		b0, b1, b2, b3 := d[k:][:len(a)], d[k+1:][:len(a)], d[k+2:][:len(a)], d[k+3:][:len(a)]
		for t, x := range a {
			g0 += x * b0[t]
			g1 += x * b1[t]
			g2 += x * b2[t]
			g3 += x * b3[t]
		}
	}
	return [4]float64{g0, g1, g2, g3}
}

// Worst returns the vertex with the largest whole-chain R̂ and its value.
func (r *Rhat) Worst() (v int, rhat float64, err error) {
	if r.n == 0 {
		return 0, 1, nil
	}
	if err := r.needObs(); err != nil {
		return 0, 0, err
	}
	best := r.scan((*Rhat).classic).max
	return best.v, best.x, nil
}

// classic is At's statistic in scan's form; its NaN second value never
// wins.
func (r *Rhat) classic(_ *scratch, v int) (float64, float64) { return r.at(v), math.NaN() }

// WorstSplit returns the vertex with the largest split R̂ and its value —
// the headline convergence number of the adaptive driver (all chains
// converged ⇒ every vertex near 1).
func (r *Rhat) WorstSplit() (v int, rhat float64, err error) {
	if r.n == 0 {
		return 0, 1, nil
	}
	if err := r.needRetained("split R̂"); err != nil {
		return 0, 0, err
	}
	best := r.check().max
	return best.v, best.x, nil
}

// MinESS returns the vertex with the smallest effective sample size and
// its value — the bottleneck against a min-ESS target. An empty instance
// reports the full pooled count.
func (r *Rhat) MinESS() (v int, ess float64, err error) {
	if r.n == 0 {
		return 0, float64(r.b) * float64(r.count), nil
	}
	if err := r.needRetained("ESS"); err != nil {
		return 0, 0, err
	}
	best := r.check().min
	return best.v, best.x, nil
}

// check returns the winners of the fused scan — the largest split R̂ and
// the smallest ESS — over the current observations. Only the first call
// after an Observe scans; later ones return the kept winners.
func (r *Rhat) check() extremes {
	if !r.checked {
		r.best = r.scan((*Rhat).vertex)
		r.checked = true
	}
	return r.best
}

// dropCheck forgets the kept check winners. Observe calls it, since every
// observation changes them.
func (r *Rhat) dropCheck() { r.checked = false }

// extremes is a scan's answer: the vertex with the largest first statistic
// and the vertex with the smallest second one, each with its value.
type extremes struct{ max, min pick }

// scan evaluates stat at every vertex and returns, for each of its two
// values, the first vertex whose value strictly beats every earlier one
// (the largest first value, the smallest second value) with that value —
// a serial scan's answer; NaN values never win, and a statistic where
// nothing wins reports vertex −1. The vertices are split into
// min(GOMAXPROCS, n) contiguous blocks scanned concurrently, each with its
// own scratch. Every block reports its own first winners, and merging
// those in vertex order with the same strict comparisons picks the first
// block holding each overall winner, so the result is exactly the serial
// one whatever the block count.
func (r *Rhat) scan(stat func(*Rhat, *scratch, int) (float64, float64)) extremes {
	w := min(runtime.GOMAXPROCS(0), r.n)
	r.scratchFor(w - 1)
	if len(r.picks) < w {
		r.picks = make([]extremes, w)
	}
	picks := r.picks[:w]
	block := func(i int) {
		sc := &r.scr[i]
		e := extremes{pick{-1, math.Inf(-1)}, pick{-1, math.Inf(1)}}
		for v := i * r.n / w; v < (i+1)*r.n/w; v++ {
			hi, lo := stat(r, sc, v)
			if hi > e.max.x {
				e.max = pick{v, hi}
			}
			if lo < e.min.x {
				e.min = pick{v, lo}
			}
		}
		picks[i] = e
	}
	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			block(i)
		}()
	}
	block(0)
	wg.Wait()
	best := picks[0]
	for _, p := range picks[1:] {
		if p.max.x > best.max.x {
			best.max = p.max
		}
		if p.min.x < best.min.x {
			best.min = p.min
		}
	}
	return best
}
