package sampler

// rhat_test.go: the Gelman–Rubin accumulator against hand-computed values,
// against its qualitative contract — near 1 on well-mixed chains, large
// when chains are frozen apart — and bit for bit against the per-series
// oracle of rhat_oracle_test.go.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/psample"
	"repro/internal/state"
)

func rhatBatch(t *testing.T, spec *gibbs.Spec, pin dist.Config, B int, seed int64) *Batch {
	t.Helper()
	in, err := gibbs.NewInstance(spec, pin)
	if err != nil {
		t.Fatal(err)
	}
	r, err := psample.NewRules(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(r, B, seed)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRhatHandComputed pins the statistic on a fabricated two-chain
// two-observation history by writing the lattice directly.
func TestRhatHandComputed(t *testing.T) {
	spec, err := model.Coloring(graph.Path(2), 5)
	if err != nil {
		t.Fatal(err)
	}
	b := rhatBatch(t, spec, nil, 2, 1)
	acc, err := NewRhat(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc.At(0); err == nil {
		t.Error("At with <2 observations accepted")
	}
	// Vertex 0 history: chain 0 sees 0,2 (mean 1, var 2); chain 1 sees
	// 4,2 (mean 3, var 2). W=2, B=T·var(means)=2·2=4 → wait: var of
	// {1,3} with m−1=1 denominator is 2, times T=2 gives 4. varPlus =
	// (1/2)·2 + 4/2 = 3; R̂ = sqrt(3/2).
	lat := b.Lattice()
	lat.Set(0, 0, 0)
	lat.Set(0, 1, 4)
	lat.Set(1, 0, 1)
	lat.Set(1, 1, 1)
	acc.Observe()
	lat.Set(0, 0, 2)
	lat.Set(0, 1, 2)
	acc.Observe()
	got, err := acc.At(0)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(1.5)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("R̂(0) = %v, want %v", got, want)
	}
	// Vertex 1 never moved in any chain: exactly 1.
	if got, err := acc.At(1); err != nil || got != 1 {
		t.Errorf("R̂(frozen vertex) = %v, %v; want 1", got, err)
	}
	v, worst, err := acc.Worst()
	if err != nil || v != 0 || worst != got0(t, acc) {
		t.Errorf("Worst() = %d, %v, %v; want vertex 0", v, worst, err)
	}
}

func got0(t *testing.T, acc *Rhat) float64 {
	t.Helper()
	x, err := acc.At(0)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestRhatConvergedNearOne runs a well-mixing instance long enough that
// every vertex's R̂ lands near 1.
func TestRhatConvergedNearOne(t *testing.T) {
	spec, err := model.Ising(graph.Cycle(10), 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	b := rhatBatch(t, spec, nil, 8, 3)
	acc, err := NewRhat(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := b.Run(1); err != nil {
			t.Fatal(err)
		}
		acc.Observe()
	}
	_, worst, err := acc.Worst()
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1.2 || worst < 1 {
		t.Errorf("worst R̂ after 200 sweeps of a fast-mixing chain = %v, want ≈ 1", worst)
	}
}

// TestRhatFrozenChainsDiverge fabricates chains frozen at different values
// — the diagnostic must blow up, not average it away.
func TestRhatFrozenChainsDiverge(t *testing.T) {
	spec, err := model.Coloring(graph.Path(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	b := rhatBatch(t, spec, nil, 2, 1)
	acc, err := NewRhat(b)
	if err != nil {
		t.Fatal(err)
	}
	lat := b.Lattice()
	for i := 0; i < 5; i++ {
		lat.Set(0, 0, 0)
		lat.Set(0, 1, 2)
		acc.Observe()
	}
	got, err := acc.At(0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Errorf("R̂ of frozen disagreeing chains = %v, want +Inf", got)
	}
}

func TestRhatNeedsTwoChains(t *testing.T) {
	spec, err := model.Coloring(graph.Path(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	b := rhatBatch(t, spec, nil, 1, 1)
	if _, err := NewRhat(b); err == nil {
		t.Error("single-chain R̂ accepted")
	}
}

// TestRhatPinnedVertexIsOne checks the pinned-vertex convention through a
// real run.
func TestRhatPinnedVertexIsOne(t *testing.T) {
	spec, err := model.Hardcore(graph.Cycle(6), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pin := dist.NewConfig(6)
	pin[3] = model.Out
	b := rhatBatch(t, spec, pin, 4, 7)
	acc, err := NewRhat(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := b.Run(1); err != nil {
			t.Fatal(err)
		}
		acc.Observe()
	}
	if got, err := acc.At(3); err != nil || got != 1 {
		t.Errorf("R̂(pinned vertex) = %v, %v; want exactly 1", got, err)
	}
	if acc.Count() != 20 {
		t.Errorf("Count() = %d, want 20", acc.Count())
	}
}

// fabricated is a MultiChain whose only live surface is a lattice the test
// writes directly — all the accumulator reads. The embedded nil interface
// panics if anything else is called.
type fabricated struct {
	MultiChain
	lat *state.Lattice
}

func (f fabricated) Chains() int             { return f.lat.Chains() }
func (f fabricated) Lattice() *state.Lattice { return f.lat }

// sameStat fails unless the two (value, error) results agree exactly:
// identical float bits, or errors with identical messages.
func sameStat(t *testing.T, what string, got, want float64, gerr, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s: error %v, oracle %v", what, gerr, werr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v, oracle %v", what, got, want)
	}
}

// TestRhatMatchesOracle replays fabricated histories through the
// time-major accumulator and the per-series oracle side by side and
// requires every statistic, vertex and error to agree bit for bit after
// every observation — so both parities of the retained length, every
// thinning step (capacity 8 thins three times in 45 observations) and the
// scans at several block counts are covered. The chain counts cover a
// pure scalar tail (2, 3), whole 4-chain blocks (16) and a block plus a
// tail (5); on odd observations MinESS runs before WorstSplit, so the
// shared check scan must not depend on which call runs it. Past one
// vertex, vertex 0 is pinned (ESS is the pooled count, split R̂ exactly
// 1); past two, vertices 1 and n−1 are frozen apart (ESS 0, split R̂ +Inf,
// tied across scan blocks) and chain 0 of vertex 2 stays Unset; every
// other cell flips with probability 0.3 per observation. The wide lattice
// draws symbols up to 299, so 255 must read as a symbol there, not as the
// compact Unset.
func TestRhatMatchesOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, B := range []int{2, 3, 5, 16} {
		for _, n := range []int{1, 2, 37} {
			for _, wide := range []bool{false, true} {
				for _, retain := range []int{8, DefaultRetain} {
					name := fmt.Sprintf("B%d/n%d/wide=%v/retain%d", B, n, wide, retain)
					t.Run(name, func(t *testing.T) {
						checkAgainstOracle(t, B, n, wide, retain)
					})
				}
			}
		}
	}
}

func checkAgainstOracle(t *testing.T, B, n int, wide bool, retain int) {
	q, newLat := 5, state.NewCompact
	if wide {
		q, newLat = 300, state.NewWide
	}
	lat, err := newLat(n, B, q)
	if err != nil {
		t.Fatal(err)
	}
	m := fabricated{lat: lat}
	got, err := NewRhatRetain(m, retain)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newOracleRhat(m, retain)
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewXoshiro(int64(1000*B+10*n+retain), 0)
	pinned := func(v int) bool { return n > 1 && v == 0 }
	frozen := func(v int) bool { return n > 2 && (v == 1 || v == n-1) }
	unset := func(v, c int) bool { return n > 2 && v == 2 && c == 0 }
	for v := 0; v < n; v++ {
		for c := 0; c < B; c++ {
			switch {
			case pinned(v):
				lat.Set(v, c, 1)
			case frozen(v):
				lat.Set(v, c, c%q)
			case unset(v, c):
			default:
				lat.Set(v, c, int(rng.Uint64()%uint64(q)))
			}
		}
	}
	procs := []int{1, 2, 3, 8}
	for i := 0; i < 45; i++ {
		for v := 0; v < n; v++ {
			for c := 0; c < B; c++ {
				if !pinned(v) && !frozen(v) && !unset(v, c) && rng.Uint64()%10 < 3 {
					lat.Set(v, c, int(rng.Uint64()%uint64(q)))
				}
			}
		}
		got.Observe()
		want.Observe()
		if got.Count() != want.Count() || got.SplitReady() != want.SplitReady() {
			t.Fatalf("obs %d: count/ready %d/%v, oracle %d/%v", i, got.Count(), got.SplitReady(), want.Count(), want.SplitReady())
		}
		gl, gs := got.Retained()
		wl, ws := want.Retained()
		if gl != wl || gs != ws {
			t.Fatalf("obs %d: retained %d/%d, oracle %d/%d", i, gl, gs, wl, ws)
		}
		for v := 0; v < n; v++ {
			x, xerr := got.At(v)
			y, yerr := want.At(v)
			sameStat(t, fmt.Sprintf("obs %d At(%d)", i, v), x, y, xerr, yerr)
			x, xerr = got.SplitAt(v)
			y, yerr = want.SplitAt(v)
			sameStat(t, fmt.Sprintf("obs %d SplitAt(%d)", i, v), x, y, xerr, yerr)
			x, xerr = got.ESSAt(v)
			y, yerr = want.ESSAt(v)
			sameStat(t, fmt.Sprintf("obs %d ESSAt(%d)", i, v), x, y, xerr, yerr)
		}
		runtime.GOMAXPROCS(procs[i%len(procs)])
		scans := []struct {
			name      string
			got, want func() (int, float64, error)
		}{
			{"Worst", got.Worst, want.Worst},
			{"WorstSplit", got.WorstSplit, want.WorstSplit},
			{"MinESS", got.MinESS, want.MinESS},
		}
		if i%2 == 1 {
			scans[1], scans[2] = scans[2], scans[1]
		}
		for _, s := range scans {
			gv, gx, gerr := s.got()
			wv, wx, werr := s.want()
			what := fmt.Sprintf("obs %d %s at GOMAXPROCS %d", i, s.name, runtime.GOMAXPROCS(0))
			sameStat(t, what, gx, wx, gerr, werr)
			if gv != wv {
				t.Fatalf("%s: vertex %d, oracle %d", what, gv, wv)
			}
		}
	}
}

// TestRhatCheckDroppedByObserve pins the per-observation lifetime of the
// check's kept winners: after WorstSplit and MinESS, a changed lattice and
// one Observe must move both answers to the oracle's new values and
// vertices, not leave the kept ones in place.
func TestRhatCheckDroppedByObserve(t *testing.T) {
	const n, B, retain = 9, 5, 8
	lat, err := state.NewCompact(n, B, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := fabricated{lat: lat}
	got, err := NewRhatRetain(m, retain)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newOracleRhat(m, retain)
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewXoshiro(17, 0)
	observe := func() {
		for v := 0; v < n; v++ {
			for c := 0; c < B; c++ {
				lat.Set(v, c, int(rng.Uint64()%3))
			}
		}
		got.Observe()
		want.Observe()
	}
	check := func(what string) (sv, ev int, sx, ex float64) {
		t.Helper()
		sv, sx, serr := got.WorstSplit()
		wv, wx, werr := want.WorstSplit()
		sameStat(t, what+" WorstSplit", sx, wx, serr, werr)
		ev, ex, eerr := got.MinESS()
		uv, ux, uerr := want.MinESS()
		sameStat(t, what+" MinESS", ex, ux, eerr, uerr)
		if sv != wv || ev != uv {
			t.Fatalf("%s: vertices %d/%d, oracle %d/%d", what, sv, ev, wv, uv)
		}
		return sv, ev, sx, ex
	}
	for i := 0; i < 6; i++ {
		observe()
	}
	sv, ev, sx, ex := check("before")
	observe()
	sv2, ev2, sx2, ex2 := check("after")
	if sx2 == sx || ex2 == ex {
		t.Fatalf("the new observation left split R̂ %v → %v (vertex %d → %d) or ESS %v → %v (vertex %d → %d) unchanged; pick a history that moves both",
			sx, sx2, sv, sv2, ex, ex2, ev, ev2)
	}
}

// BenchmarkRhat measures the diagnostics layer of the adaptive driver on a
// fixed fabricated history shaped like the repository benchmark's tree
// workload: 4095 vertices, 16 chains, binary symbols that flip with
// probability 0.3 per observation. observe times one Observe on top of a
// 64-observation history (including the row allocations and thinning a
// long run amortizes); check/L=16 and check/L=64 time one convergence
// check — WorstSplit and MinESS after the kept winners are dropped, so
// every iteration runs the fused scan — at 16 and 64 retained
// observations.
func BenchmarkRhat(b *testing.B) {
	const n, B = 4095, 16
	lat, err := state.NewCompact(n, B, 2)
	if err != nil {
		b.Fatal(err)
	}
	m := fabricated{lat: lat}
	history := func(L int) *Rhat {
		acc, err := NewRhat(m)
		if err != nil {
			b.Fatal(err)
		}
		rng := dist.NewXoshiro(5, 0)
		raw := lat.Raw8()
		for i := range raw {
			raw[i] = uint8(rng.Uint64() & 1)
		}
		for t := 0; t < L; t++ {
			for i := range raw {
				if rng.Uint64()%10 < 3 {
					raw[i] ^= 1
				}
			}
			acc.Observe()
		}
		return acc
	}
	b.Run("observe", func(b *testing.B) {
		acc := history(64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			acc.Observe()
		}
	})
	for _, L := range []int{16, 64} {
		b.Run(fmt.Sprintf("check/L=%d", L), func(b *testing.B) {
			acc := history(L)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.dropCheck()
				if _, _, err := acc.WorstSplit(); err != nil {
					b.Fatal(err)
				}
				if _, _, err := acc.MinESS(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
