package gibbs

// plan.go compiles each vertex's factor walk into a flat sweep plan and
// hosts the dense entry point of the fused heat-bath kernel.
//
// CondWeightsLattice interprets the factor graph on every call: it walks
// FactorsAt(v), re-derives which scope entries are v, re-reads unary
// factors that cannot differ between chains, and validates every cell it
// touches. A SweepPlan does that interpretation exactly once per Compiled:
// for each vertex the prefix run of unary factors is folded into a single
// precomputed per-symbol prior row, each dense pair factor is lowered to a
// flat gather (neighbor row, accumulated strides, table), factors of
// three or more distinct vertices keep a generic entry, and closure-backed
// factors keep a fallback entry — so the hot loop is a straight run over a
// flat instruction stream with no dispatch and no per-cell checks. Every
// multiplication happens in the same order as the interpreted kernel, so
// planned weights are bit-identical to CondWeightsLattice per chain
// (pinned by the root-level property test across all model builders).
//
// The plan runs through one heat-bath kernel family, the chain-list
// kernels of subset.go, which draw the symbol in the same pass that
// computes the weight row, through the value-type dist.Xoshiro generator
// instead of the *rand.Rand interface. SampleVertexBatch is that kernel
// on a dense chain block [c0,c1), passed as the contiguous list c0…c1−1.
// Validity is the caller's contract: the lattice must pass
// state.Lattice.CheckAssigned before a stage (sampled symbols are always
// in range, so one preflight per Run covers every subsequent stage),
// which is what lets the innermost loops drop the per-(neighbor, chain)
// checks of the interpreted kernel.
//
// Hard-constraint vertices are also lowered to support masks. At 4 ≤ q ≤
// 64, a vertex whose ops are all pair gathers over tables holding only
// exact 0s and 1s, and whose prior is finite and ≥ 0, is marked masked:
// each distinct (table, su, sv) becomes q uint64 masks in one plan-level
// pool (mask y has bit x set iff table[y·su + x·sv] is 1), and each op
// names its set by a uint16 in planOp's padding. Deduplicating matters:
// the coloring's one shared disequality table costs 2·q masks in all, so
// the plan's footprint and build time barely move. The kernel side, and
// why it is bit-identical to the row walk, is in subset.go.

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dist"
	"repro/internal/state"
)

// planOpKind discriminates the flat instruction stream of a vertexPlan.
type planOpKind uint8

const (
	// opUnary multiplies a precomputed chain-independent per-symbol row —
	// a unary factor that appears after the first non-unary factor, so it
	// cannot be folded into the prior without reordering multiplications.
	opUnary planOpKind = iota
	// opPair is a dense table factor with exactly one distinct scope
	// vertex besides v: one gather per chain.
	opPair
	// opGeneric is a dense table factor with two or more distinct scope
	// vertices besides v: mixed-radix base accumulation per chain.
	opGeneric
	// opClosure evaluates an uncompiled factor through its closure.
	opClosure
)

// planOp is one instruction of a vertex's sweep plan. Fields are populated
// by kind; slices alias the Compiled engine and are never written.
type planOp struct {
	kind planOpKind
	// mset indexes the op's support-mask set in SweepPlan.masks (opPair
	// of a masked plan): the set's q masks start at masks[mset·q]. It sits
	// in the padding after kind, so masking costs planOp no bytes.
	mset uint16
	// u is the neighbor vertex (opPair) or the plan's own vertex
	// (opClosure, where the scope needs the candidate symbol substituted).
	u int32
	// su is the accumulated stride of u's scope occurrences (opPair); the
	// per-chain table base is cell(u)·su, exactly the occurrence-by-
	// occurrence sum of the interpreted kernel (int32 distributivity).
	su int32
	// sv is the accumulated stride of v's occurrences (opPair, opGeneric).
	sv int32
	// row is the per-symbol factor row (opUnary).
	row []float64
	// table is the dense factor table (opPair, opGeneric).
	table []float64
	// scope/strides are the non-v scope occurrences (opGeneric), in scope
	// order so the base accumulates in the interpreted kernel's order.
	scope   []int32
	strides []int32
	// f is the compiled factor (opClosure).
	f *cfactor
}

// vertexPlan is the compiled conditional of one vertex: weights start at
// the prior row (all-ones when nil) and each op multiplies in, in factor
// index order. pairOnly marks plans whose every op is a pair gather or a
// unary row — the all-pairwise case (hardcore, Ising, colorings) — which
// the fused sampler runs chain-major with the weights held in registers
// instead of round-tripping through the weight buffer.
//
// masked marks plans the mask kernel of subset.go runs: 4 ≤ q ≤ 64, every
// op a pair gather whose table holds only exact 0s and 1s, and every prior
// entry finite and ≥ 0. A trailing unary op keeps the vertex on the row
// walk.
type vertexPlan struct {
	prior    []float64
	ops      []planOp
	pairOnly bool
	masked   bool
}

// SweepPlan holds one vertexPlan per vertex of a Compiled engine. It is
// immutable after construction and safe for concurrent use.
type SweepPlan struct {
	q     int
	verts []vertexPlan
	// masks is the plan-level pool of support-mask sets, deduplicated by
	// (table, su, sv): set k holds q masks, masks[k·q+y] having bit x set
	// exactly when table[y·su + x·sv] is 1. The coloring's one shared
	// disequality table yields two sets (v first or second in the scope)
	// however many vertices read it.
	masks  []uint64
	masked int
}

// Masked reports how many vertices the plan serves on the mask kernel.
// Vertices the conditional-CDF cache covers take the cached draw first.
func (p *SweepPlan) Masked() int { return p.masked }

// Plan returns the engine's sweep plan, building it on first call.
func (c *Compiled) Plan() *SweepPlan {
	c.planOnce.Do(func() { c.plan = buildPlan(c) })
	return c.plan
}

// buildPlan lowers every vertex's factor list into a vertexPlan.
func buildPlan(c *Compiled) *SweepPlan {
	p := &SweepPlan{q: c.q, verts: make([]vertexPlan, c.n)}
	var sets map[maskKey]int32
	if c.q >= 4 && c.q <= 64 {
		sets = make(map[maskKey]int32)
	}
	// One slab holds every vertex's ops (at most one per incident factor,
	// so it never regrows) and the scope scratch is reused across factors:
	// a plan costs a few allocations, not a dozen per vertex.
	slab := make([]planOp, 0, len(c.idx))
	var others []int32  // distinct non-v scope vertices
	var gScope []int32  // non-v occurrences, in scope order
	var gStride []int32 // their strides
	for v := 0; v < c.n; v++ {
		vp := &p.verts[v]
		start := len(slab)
		for _, fi := range c.FactorsAt(v) {
			f := &c.factors[fi]
			sv := int32(0)
			others, gScope, gStride = others[:0], gScope[:0], gStride[:0]
			su := int32(0)
			for j, u := range f.scope {
				if int(u) == v {
					sv += f.strides[j]
					continue
				}
				gScope = append(gScope, u)
				gStride = append(gStride, f.strides[j])
				su += f.strides[j]
				seen := false
				for _, o := range others {
					if o == u {
						seen = true
						break
					}
				}
				if !seen {
					others = append(others, u)
				}
			}
			if len(others) == 0 {
				// Unary in v: the factor row is chain-independent, so it is
				// evaluated once here. While no other op has been emitted,
				// fold it into the prior — weights start at 1 and 1·a = a
				// exactly, so prior[x] accumulates the same float sequence
				// the interpreted kernel produces. A unary factor appearing
				// after a non-unary one keeps its stream position as opUnary.
				row := unaryRow(f, c.q, sv)
				if len(slab) == start {
					if vp.prior == nil {
						vp.prior = row
					} else {
						for x := range vp.prior {
							vp.prior[x] *= row[x]
						}
					}
					continue
				}
				slab = append(slab, planOp{kind: opUnary, row: row})
				continue
			}
			if f.table == nil {
				// Closure ops keep the whole scope; u records v itself so
				// the evaluation loop can substitute the candidate symbol.
				slab = append(slab, planOp{kind: opClosure, f: f, u: int32(v)})
				continue
			}
			if len(others) == 1 {
				slab = append(slab, planOp{kind: opPair, u: others[0], su: su, sv: sv, table: f.table})
				continue
			}
			slab = append(slab, planOp{kind: opGeneric, sv: sv, table: f.table, scope: slices.Clone(gScope), strides: slices.Clone(gStride)})
		}
		vp.ops = slab[start:len(slab):len(slab)]
		vp.pairOnly = true
		for _, op := range vp.ops {
			if op.kind != opPair && op.kind != opUnary {
				vp.pairOnly = false
				break
			}
		}
		if sets != nil && vp.pairOnly {
			p.maskVertex(vp, sets)
		}
	}
	return p
}

// maskKey identifies one support-mask set: a pair table, by the address
// of its first entry, read at the neighbor stride su and the vertex
// stride sv — the same key reads the same q² entries.
type maskKey struct {
	t      *float64
	su, sv int32
}

// maskVertex marks vp masked when it qualifies, pointing each op at its
// pooled mask set. Qualifying needs every op to be an opPair whose table
// reads as 0/1 (a trailing unary op sends the vertex to the row walk) and
// every prior entry finite and ≥ 0: then a weight is prior[x]·1·…·1 =
// prior[x] on the support and prior[x]·…·0·… = +0 off it, exactly.
func (p *SweepPlan) maskVertex(vp *vertexPlan, sets map[maskKey]int32) {
	for _, x := range vp.prior {
		if !(x >= 0 && x <= math.MaxFloat64) {
			return
		}
	}
	for _, op := range vp.ops {
		if op.kind != opPair {
			return
		}
	}
	for i := range vp.ops {
		k := p.maskSet(&vp.ops[i], sets)
		if k < 0 {
			return
		}
		vp.ops[i].mset = uint16(k)
	}
	vp.masked = true
	p.masked++
}

// maskSet returns the pool index of op's mask set, building it on first
// sight of its key, or −1 when the table holds an entry other than 0 or 1
// at a reachable index (remembered, so a soft table is scanned once) or
// the pool is full.
func (p *SweepPlan) maskSet(op *planOp, sets map[maskKey]int32) int32 {
	key := maskKey{&op.table[0], op.su, op.sv}
	if k, ok := sets[key]; ok {
		return k
	}
	q := int32(p.q)
	k := int32(len(p.masks)) / q
	if k > math.MaxUint16 {
		return -1
	}
	for y := int32(0); y < q; y++ {
		var m uint64
		for x := int32(0); x < q; x++ {
			switch op.table[y*op.su+x*op.sv] {
			case 1:
				m |= 1 << x
			case 0:
			default:
				p.masks = p.masks[:k*q]
				sets[key] = -1
				return -1
			}
		}
		p.masks = append(p.masks, m)
	}
	sets[key] = k
	return k
}

// unaryRow materializes the per-symbol row of a factor unary in its vertex
// (sv is the accumulated stride of the vertex's occurrences).
func unaryRow(f *cfactor, q int, sv int32) []float64 {
	row := make([]float64, q)
	if f.table != nil {
		for x := int32(0); x < int32(q); x++ {
			row[x] = f.table[x*sv]
		}
		return row
	}
	assign := make([]int, len(f.scope))
	for x := 0; x < q; x++ {
		for j := range assign {
			assign[j] = x
		}
		row[x] = f.eval(assign)
	}
	return row
}

// SampleVertexBatch is the fused stage kernel of the batched sampler: it
// computes the heat-bath conditional weight rows of vertex v for chains
// c0 ≤ c < c1 through the sweep plan and immediately draws each chain's
// new symbol into the lattice, one rng.Float64 per chain. buf needs
// (c1−c0)·q entries and sc must come from NewBatchScratch; the lattice
// must have passed CheckAssigned (the kernel writes only in-range
// symbols, so one preflight covers any number of subsequent stages).
// The block runs through the subset kernel as the list c0…c1−1, so
// weights, draws, uniforms consumed, and errors are exactly those of
// SampleVertexSubset on that list, cached or not.
func (c *Compiled) SampleVertexBatch(l *state.Lattice, v, c0, c1 int, buf []float64, sc *BatchScratch, rng *dist.Xoshiro) error {
	nb, err := c.planArgs(l, v, c0, c1, len(buf))
	if err != nil {
		return err
	}
	if sc == nil || len(sc.base) < nb {
		sc = NewBatchScratch(nb)
	}
	return c.sampleSubset(l, v, sc.span(c0, c1), buf, sc, rng)
}

// planArgs validates the argument contract of SampleVertexBatch,
// returning the block width c1−c0.
func (c *Compiled) planArgs(l *state.Lattice, v, c0, c1, bufLen int) (int, error) {
	if v < 0 || v >= c.n {
		return 0, fmt.Errorf("gibbs: batch conditional vertex %d out of range", v)
	}
	nb := c1 - c0
	if c0 < 0 || c1 > l.Chains() || nb <= 0 {
		return 0, fmt.Errorf("gibbs: batch chain range [%d,%d) invalid for B=%d", c0, c1, l.Chains())
	}
	if l.N() < c.n {
		return 0, fmt.Errorf("gibbs: batch lattice has %d vertices, need %d", l.N(), c.n)
	}
	if bufLen < nb*c.q {
		return 0, fmt.Errorf("gibbs: batch buffer has %d entries, need (c1−c0)·q = %d", bufLen, nb*c.q)
	}
	return nb, nil
}

// rowError diagnoses a bad weight row off the hot path, mirroring the
// errors of dist.SampleWeights (including dist.ErrZeroMass) wrapped with
// the (vertex, chain) site.
func rowError(row []float64, v, chain int) error {
	var err error = dist.ErrZeroMass
	for i, x := range row {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			err = fmt.Errorf("dist: weight %v at index %d", x, i)
			break
		}
	}
	total := 0.0
	for _, x := range row {
		total += x
	}
	if math.IsInf(total, 1) {
		err = fmt.Errorf("dist: total weight overflows to +Inf")
	}
	return fmt.Errorf("gibbs: heat-bath at vertex %d chain %d: %w", v, chain, err)
}
