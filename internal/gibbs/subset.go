package gibbs

// subset.go: the heat-bath kernel family of the sweep plan — the only
// one. Every batched heat-bath update is a list of chains in which one
// vertex updates: a Luby phase selects a random independent set per
// chain, so for the batched LubyGlauber engine that list is an arbitrary
// subset of the chain block, and for the chromatic schedule it is the
// dense block c0…c1−1 that SampleVertexBatch passes as a contiguous list.
// Each listed chain's weight row runs the plan's op stream in factor order
// (bit-identical to CondWeightsLattice per chain), and the draw follows
// dist.SampleWeights semantics, so a one-chain list produces exactly the
// update of the single-chain heat-bath path. Every cell the plan reads
// must already hold an assigned in-range symbol (state.Lattice.CheckAssigned
// preflight), the kernel writes only in-range symbols, and all
// diagnostics for bad weight rows are built off the hot path by rowError.
//
// Masked plans (0/1 pair tables, 4 ≤ q ≤ 64, see plan.go) skip the weight
// rows: a chain's support is the AND of one mask per neighbor, and the
// total and the threshold walk visit only its set bits, reading the prior
// or 1. This is the row walk to the bit: for finite x ≥ 0, x·1 = x and
// x·0 = +0 exactly, adding +0 leaves a sum unchanged, and the walk skips
// weights ≤ 0 — so every chain draws the same symbol from the same
// uniform. A chain with zero or overflowing mass consumes no uniform and
// gets its row rebuilt by subsetWeightRow for rowError, after the chains
// before it were drawn, exactly as in the row walk.
//
// FilterWeightBatch is the LocalMetropolis companion: the subset-product
// filter weight of one acceptance factor evaluated for a dense chain
// block in one pass, amortizing the mixed-radix base and the per-toggled-
// vertex index deltas across the block. The per-chain mask walk keeps the
// order and the early-exit-on-zero of the single-chain filterCells body,
// so the weights are bit-identical per chain.

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/dist"
	"repro/internal/state"
)

// SampleVertexSubset heat-baths vertex v in exactly the listed chains:
// conditional weight rows through the sweep plan, then one rng.Float64
// draw per listed chain, written straight into the lattice. chains must
// be in-range chain indices (engines pass them ascending so the RNG
// consumption order is deterministic, but the kernel does not require
// order); buf needs len(chains)·q entries. The lattice must have passed
// CheckAssigned. An empty subset is a no-op.
func (c *Compiled) SampleVertexSubset(l *state.Lattice, v int, chains []int32, buf []float64, sc *BatchScratch, rng *dist.Xoshiro) error {
	nb := len(chains)
	if nb == 0 {
		return nil
	}
	if v < 0 || v >= c.n {
		return fmt.Errorf("gibbs: batch conditional vertex %d out of range", v)
	}
	B := l.Chains()
	for _, ch := range chains {
		if ch < 0 || int(ch) >= B {
			return fmt.Errorf("gibbs: subset chain %d out of range for B=%d", ch, B)
		}
	}
	if l.N() < c.n {
		return fmt.Errorf("gibbs: batch lattice has %d vertices, need %d", l.N(), c.n)
	}
	if len(buf) < nb*c.q {
		return fmt.Errorf("gibbs: batch buffer has %d entries, need len(chains)·q = %d", len(buf), nb*c.q)
	}
	if sc == nil || len(sc.base) < nb {
		sc = NewBatchScratch(nb)
	}
	return c.sampleSubset(l, v, chains, buf, sc, rng)
}

// sampleSubset is the validated body shared by SampleVertexSubset and
// SampleVertexBatch: the cached draw when v has a conditional-CDF table,
// the plan walk otherwise, dispatched on the lattice's cell width.
func (c *Compiled) sampleSubset(l *state.Lattice, v int, chains []int32, buf []float64, sc *BatchScratch, rng *dist.Xoshiro) error {
	B := l.Chains()
	if cc := c.condForSample(); cc != nil {
		if cv := cc.at(v); cv != nil {
			if u8 := l.Raw8(); u8 != nil {
				return condSampleSubset(c.q, cv, u8, B, v, chains, sc, rng)
			}
			return condSampleSubset(c.q, cv, l.RawWide(), B, v, chains, sc, rng)
		}
	}
	w := buf[:len(chains)*c.q]
	p := c.Plan()
	vp := &p.verts[v]
	if u8 := l.Raw8(); u8 != nil {
		return sampleSubsetCells(c.q, vp, p.masks, u8, B, v, chains, w, sc, rng)
	}
	return sampleSubsetCells(c.q, vp, p.masks, l.RawWide(), B, v, chains, w, sc, rng)
}

// VertexSubsetFn is a subset kernel bound to one lattice by
// BindVertexSubset: SampleVertexSubset with the argument validation and
// the cell-width dispatch hoisted out of the per-vertex call.
type VertexSubsetFn func(v int, chains []int32, buf []float64, sc *BatchScratch, rng *dist.Xoshiro) error

// BindVertexSubset validates the lattice against the engine once and
// returns the width-specialized subset kernel bound to its cells — the
// per-round fast path of the batched LubyGlauber engine, which calls the
// kernel once per free vertex. The returned function skips the per-call
// checks of SampleVertexSubset, so the caller owns their contracts: v is
// a valid vertex, chains lists in-range chain indices (ascending for a
// deterministic RNG order), buf holds len(chains)·q entries, sc is a
// scratch of the block size, and the lattice has passed CheckAssigned
// and keeps its backing arrays (no grow) for the lifetime of the
// binding. Weights, draws, and errors are exactly those of
// SampleVertexSubset.
func (c *Compiled) BindVertexSubset(l *state.Lattice) (VertexSubsetFn, error) {
	if l.N() < c.n {
		return nil, fmt.Errorf("gibbs: batch lattice has %d vertices, need %d", l.N(), c.n)
	}
	B := l.Chains()
	p := c.Plan()
	verts, masks := p.verts, p.masks
	q := c.q
	// The cache gate is hoisted with the rest of the validation: the bound
	// kernel keeps the mode it was bound with.
	cc := c.condForSample()
	if u8 := l.Raw8(); u8 != nil {
		return func(v int, chains []int32, buf []float64, sc *BatchScratch, rng *dist.Xoshiro) error {
			if len(chains) == 0 {
				return nil
			}
			if cc != nil {
				if cv := cc.at(v); cv != nil {
					return condSampleSubset(q, cv, u8, B, v, chains, sc, rng)
				}
			}
			return sampleSubsetCells(q, &verts[v], masks, u8, B, v, chains, buf, sc, rng)
		}, nil
	}
	wide := l.RawWide()
	return func(v int, chains []int32, buf []float64, sc *BatchScratch, rng *dist.Xoshiro) error {
		if len(chains) == 0 {
			return nil
		}
		if cc != nil {
			if cv := cc.at(v); cv != nil {
				return condSampleSubset(q, cv, wide, B, v, chains, sc, rng)
			}
		}
		return sampleSubsetCells(q, &verts[v], masks, wide, B, v, chains, buf, sc, rng)
	}, nil
}

// sampleSubsetCells is the width-specialized fused body: weight rows,
// then one threshold draw per listed chain written straight into v's
// lattice row — straight-line register paths for the pair-only plans at
// q = 2 and q = 3, the mask kernel for masked plans, the buffered plan
// walk plus per-chain draw otherwise.
// The draw reproduces dist.SampleWeights semantics: nonpositive entries
// carry no mass, rounding slack falls to the last positive symbol, and
// bad rows (negative, NaN, infinite, or zero-mass) surface as errors
// built in the cold path.
func sampleSubsetCells[T state.Cells](q int, vp *vertexPlan, masks []uint64, cells []T, B, v int, chains []int32, w []float64, sc *BatchScratch, rng *dist.Xoshiro) error {
	if vp.masked {
		return subsetMasked(q, vp, masks, cells, B, v, chains, w, sc, rng)
	}
	if vp.pairOnly {
		switch q {
		case 2:
			return subsetPairOnlyQ2(vp, cells, B, v, chains, w, rng)
		case 3:
			return subsetPairOnlyQ3(vp, cells, B, v, chains, rng)
		}
	}
	subsetWeightRow(q, vp, cells, B, chains, w, sc)
	vbase := v * B
	if q == 2 {
		for i, ch := range chains {
			w0, w1 := w[2*i], w[2*i+1]
			total := w0 + w1
			if !(w0 >= 0 && w1 >= 0 && total > 0 && total <= math.MaxFloat64) {
				return rowError(w[2*i:2*i+2], v, int(ch))
			}
			// w0 ≥ 0 was just validated, so "w0 > 0 && u < w0" is
			// exactly "u < w0" (u ≥ 0 can never undercut a zero w0) and
			// the select is two set-flags ANDed — no branch to mispredict
			// on the random threshold outcome.
			u := rng.Float64() * total
			var ge, pos uint8
			if u >= w0 {
				ge = 1
			}
			if w1 > 0 {
				pos = 1
			}
			cells[vbase+int(ch)] = T(ge & pos)
		}
		return nil
	}
	for i, ch := range chains {
		row := w[i*q : (i+1)*q]
		total := 0.0
		ok := true
		for _, x := range row {
			if !(x >= 0) {
				ok = false
				break
			}
			total += x
		}
		if !ok || !(total > 0 && total <= math.MaxFloat64) {
			return rowError(row, v, int(ch))
		}
		u := rng.Float64() * total
		acc := 0.0
		last := -1
		for x, wx := range row {
			if wx <= 0 {
				continue
			}
			last = x
			acc += wx
			if u < acc {
				break
			}
		}
		cells[vbase+int(ch)] = T(last)
	}
	return nil
}

// subsetWeightRow fills w (length len(chains)·q) with the conditional
// weight rows of vertex v's plan for the listed chains: each row starts at
// the prior (all-ones when nil) and every op multiplies in, in factor
// order, reading neighbor cells by the indexed gather cells[u·B +
// chains[i]]. It is the generic body behind the sampling kernels and the
// conditional-CDF cache build. Every cell the plan reads must hold an
// assigned in-range symbol (state.Lattice.CheckAssigned); the only
// diagnostics left in here are Go's bounds checks.
func subsetWeightRow[T state.Cells](q int, vp *vertexPlan, cells []T, B int, chains []int32, w []float64, sc *BatchScratch) {
	nb := len(chains)
	if vp.prior == nil {
		for i := range w[:nb*q] {
			w[i] = 1
		}
	} else {
		for i := 0; i < nb; i++ {
			copy(w[i*q:(i+1)*q], vp.prior)
		}
	}
	q32 := int32(q)
	for oi := range vp.ops {
		op := &vp.ops[oi]
		switch op.kind {
		case opUnary:
			urow := op.row
			for i := 0; i < nb; i++ {
				row := w[i*q : (i+1)*q]
				for x := range row {
					row[x] *= urow[x]
				}
			}
		case opPair:
			ubase := int(op.u) * B
			table, su, sv := op.table, op.su, op.sv
			switch q32 {
			case 2:
				for i, ch := range chains {
					bi := int32(cells[ubase+int(ch)]) * su
					row := w[2*i : 2*i+2 : 2*i+2]
					row[0] *= table[bi]
					row[1] *= table[bi+sv]
				}
			case 3:
				for i, ch := range chains {
					bi := int32(cells[ubase+int(ch)]) * su
					row := w[3*i : 3*i+3 : 3*i+3]
					row[0] *= table[bi]
					row[1] *= table[bi+sv]
					row[2] *= table[bi+2*sv]
				}
			default:
				for i, ch := range chains {
					bi := int32(cells[ubase+int(ch)]) * su
					row := w[i*q : (i+1)*q]
					for x := int32(0); x < q32; x++ {
						row[x] *= table[bi+x*sv]
					}
				}
			}
		case opGeneric:
			base := sc.base[:nb]
			for i := range base {
				base[i] = 0
			}
			for j, u := range op.scope {
				ubase := int(u) * B
				st := op.strides[j]
				for i, ch := range chains {
					base[i] += int32(cells[ubase+int(ch)]) * st
				}
			}
			table, sv := op.table, op.sv
			switch q32 {
			case 2:
				for i := 0; i < nb; i++ {
					bi := base[i]
					row := w[2*i : 2*i+2 : 2*i+2]
					row[0] *= table[bi]
					row[1] *= table[bi+sv]
				}
			case 3:
				for i := 0; i < nb; i++ {
					bi := base[i]
					row := w[3*i : 3*i+3 : 3*i+3]
					row[0] *= table[bi]
					row[1] *= table[bi+sv]
					row[2] *= table[bi+2*sv]
				}
			default:
				for i := 0; i < nb; i++ {
					bi := base[i]
					row := w[i*q : (i+1)*q]
					for x := int32(0); x < q32; x++ {
						row[x] *= table[bi+x*sv]
					}
				}
			}
		case opClosure:
			f := op.f
			if len(sc.assign) < len(f.scope) {
				sc.assign = make([]int, len(f.scope))
			}
			assign := sc.assign[:len(f.scope)]
			for i, ch := range chains {
				for x := 0; x < q; x++ {
					for j, u := range f.scope {
						if u == op.u {
							assign[j] = x
							continue
						}
						assign[j] = int(cells[int(u)*B+int(ch)])
					}
					w[i*q+x] *= f.eval(assign)
				}
			}
		}
	}
}

// subsetPairOnlyQ2 is the register path for pair-only plans at q = 2.
// The walk runs ops-outer over the list — op fields decoded once, the
// per-chain dependent multiply chains pipelined across chains in the two
// buffer columns — but each chain still sees prior then ops in factor
// order (the multiplication sequence of subsetWeightRow, so the weights
// are bit-identical), and the threshold draws consume one uniform per
// chain in list order.
func subsetPairOnlyQ2[T state.Cells](vp *vertexPlan, cells []T, B, v int, chains []int32, buf []float64, rng *dist.Xoshiro) error {
	p0, p1 := 1.0, 1.0
	if vp.prior != nil {
		p0, p1 = vp.prior[0], vp.prior[1]
	}
	nb := len(chains)
	w0 := buf[:nb]
	w1 := buf[nb : 2*nb]
	for j := range w0 {
		w0[j] = p0
		w1[j] = p1
	}
	ops := vp.ops
	for oi := range ops {
		op := &ops[oi]
		if op.kind == opPair {
			table, su, sv := op.table, op.su, op.sv
			ubase := int(op.u) * B
			if len(table) == 4 {
				// The 2×2 pair table as a fixed array: masked indices
				// (always < 4 — cells hold symbols below q) let every
				// lookup run without a bounds check.
				t := (*[4]float64)(table)
				for j, ch := range chains {
					bi := (int32(cells[ubase+int(ch)]) * su) & 3
					w0[j] *= t[bi]
					w1[j] *= t[(bi+sv)&3]
				}
				continue
			}
			for j, ch := range chains {
				bi := int32(cells[ubase+int(ch)]) * su
				w0[j] *= table[bi]
				w1[j] *= table[bi+sv]
			}
		} else {
			r0, r1 := op.row[0], op.row[1]
			for j := range w0 {
				w0[j] *= r0
				w1[j] *= r1
			}
		}
	}
	vbase := v * B
	for j, ch := range chains {
		a, b := w0[j], w1[j]
		total := a + b
		if !(a >= 0 && b >= 0 && total > 0 && total <= math.MaxFloat64) {
			return rowError([]float64{a, b}, v, int(ch))
		}
		// Same branchless select as the generic q = 2 loop: a ≥ 0 is
		// validated, so the drawn symbol is 1 exactly when u clears a and
		// symbol 1 carries weight.
		u := rng.Float64() * total
		var ge, pos uint8
		if u >= a {
			ge = 1
		}
		if b > 0 {
			pos = 1
		}
		cells[vbase+int(ch)] = T(ge & pos)
	}
	return nil
}

// subsetPairOnlyQ3 is the register path for pair-only plans at q = 3:
// per chain the three weights start at the prior and every op multiplies
// in, in factor order, held in registers, and the three-symbol walk is
// inlined (nonpositive symbols carry no mass, slack falls to the last
// positive one).
func subsetPairOnlyQ3[T state.Cells](vp *vertexPlan, cells []T, B, v int, chains []int32, rng *dist.Xoshiro) error {
	p0, p1, p2 := 1.0, 1.0, 1.0
	if vp.prior != nil {
		p0, p1, p2 = vp.prior[0], vp.prior[1], vp.prior[2]
	}
	ops := vp.ops
	vbase := v * B
	for _, ch := range chains {
		c := int(ch)
		w0, w1, w2 := p0, p1, p2
		for oi := range ops {
			op := &ops[oi]
			if op.kind == opPair {
				bi := int32(cells[int(op.u)*B+c]) * op.su
				w0 *= op.table[bi]
				w1 *= op.table[bi+op.sv]
				w2 *= op.table[bi+2*op.sv]
			} else {
				w0 *= op.row[0]
				w1 *= op.row[1]
				w2 *= op.row[2]
			}
		}
		total := w0 + w1 + w2
		if !(w0 >= 0 && w1 >= 0 && w2 >= 0 && total > 0 && total <= math.MaxFloat64) {
			return rowError([]float64{w0, w1, w2}, v, c)
		}
		// u ≥ 0, so u < prefix-sum subsumes the nonpositive-skip of
		// sampleWalk (zero weights add nothing to the prefix); only the
		// rounding-slack branch needs the last-positive rule.
		u := rng.Float64() * total
		var x T
		switch {
		case u < w0:
			x = 0
		case u < w0+w1:
			x = 1
		case w2 > 0:
			x = 2
		case w1 > 0:
			x = 1
		default:
			x = 0
		}
		cells[vbase+c] = x
	}
	return nil
}

// subsetMasked is the mask kernel for masked plans (the file header gives
// why it is bit-identical to the row walk): per chain, the support is the
// AND of one pooled mask per op, indexed by the neighbor's symbol. With no
// prior the total is the support size n (a sum of 1s, exact), and u <
// acc = j+1 holds exactly when ⌊u⌋ ≤ j, so the draw is the ⌊u⌋-th set bit
// (the last one on rounding slack).
func subsetMasked[T state.Cells](q int, vp *vertexPlan, masks []uint64, cells []T, B, v int, chains []int32, w []float64, sc *BatchScratch, rng *dist.Xoshiro) error {
	ops, prior := vp.ops, vp.prior
	full := ^uint64(0) >> (64 - q)
	vbase := v * B
	for i, ch := range chains {
		c := int(ch)
		m := full
		for oi := range ops {
			op := &ops[oi]
			m &= masks[int(op.mset)*q+int(cells[int(op.u)*B+c])]
		}
		x := -1
		if prior == nil {
			n := bits.OnesCount64(m)
			if n == 0 {
				return maskedRowError(q, vp, cells, B, v, chains[i:i+1], w, sc)
			}
			k := min(int(rng.Float64()*float64(n)), n-1)
			for ; k > 0; k-- {
				m &= m - 1
			}
			x = bits.TrailingZeros64(m)
		} else {
			total := 0.0
			for t := m; t != 0; t &= t - 1 {
				total += prior[bits.TrailingZeros64(t)]
			}
			if !(total > 0 && total <= math.MaxFloat64) {
				return maskedRowError(q, vp, cells, B, v, chains[i:i+1], w, sc)
			}
			u := rng.Float64() * total
			acc := 0.0
			for t := m; t != 0; t &= t - 1 {
				j := bits.TrailingZeros64(t)
				wx := prior[j]
				if wx <= 0 {
					continue
				}
				x = j
				acc += wx
				if u < acc {
					break
				}
			}
		}
		cells[vbase+c] = T(x)
	}
	return nil
}

// maskedRowError is the cold path of subsetMasked: the one-chain list
// one's weight row rebuilt by subsetWeightRow into w and diagnosed by
// rowError — byte-for-byte the error of the row walk.
func maskedRowError[T state.Cells](q int, vp *vertexPlan, cells []T, B, v int, one []int32, w []float64, sc *BatchScratch) error {
	row := w[:q]
	subsetWeightRow(q, vp, cells, B, one, row, sc)
	return rowError(row, v, int(one[0]))
}

// FilterWeightBatch fills out[0:c1−c0] with the LocalMetropolis filter
// weights of acceptance factor i between chains c of old (current) and
// prop (proposal), c0 ≤ c < c1 — the batched equivalent of calling
// FilterWeightLattice once per chain, bit-identical per chain. The factor
// must be table-backed (ErrNotTabled otherwise; closure-backed acceptance
// factors are rejected upstream by the rules compiler). Both lattices
// must have passed CheckAssigned — the batch kernel drops the per-cell
// validity checks of the single-chain body, exactly like the plan
// kernels. sc amortizes the base and delta rows (nil allocates).
func (c *Compiled) FilterWeightBatch(i int, old, prop *state.Lattice, c0, c1 int, verts []int, out []float64, sc *BatchScratch) error {
	if i < 0 || i >= len(c.factors) {
		return fmt.Errorf("gibbs: filter factor %d out of range", i)
	}
	nb := c1 - c0
	if c0 < 0 || nb <= 0 || c1 > old.Chains() || c1 > prop.Chains() {
		return fmt.Errorf("gibbs: filter chain range [%d,%d) invalid for B=%d/%d", c0, c1, old.Chains(), prop.Chains())
	}
	if old.N() < c.n || prop.N() < c.n {
		return fmt.Errorf("gibbs: filter lattices have %d/%d vertices, need %d", old.N(), prop.N(), c.n)
	}
	if len(out) < nb {
		return fmt.Errorf("gibbs: filter output has %d entries, need c1−c0 = %d", len(out), nb)
	}
	k := len(verts)
	if k == 0 {
		for i := range out[:nb] {
			out[i] = 1
		}
		return nil
	}
	if k > filterMaxToggle {
		return fmt.Errorf("gibbs: filter over %d toggled vertices (max %d)", k, filterMaxToggle)
	}
	f := &c.factors[i]
	if f.table == nil {
		return fmt.Errorf("gibbs: filter factor %d: %w", i, ErrNotTabled)
	}
	if sc == nil || len(sc.base) < nb {
		sc = NewBatchScratch(nb)
	}
	if o8, p8 := old.Raw8(), prop.Raw8(); o8 != nil && p8 != nil {
		return filterBatchCells(f, o8, old.Chains(), p8, prop.Chains(), c0, c1, verts, out[:nb], sc)
	}
	if ow, pw := old.RawWide(), prop.RawWide(); ow != nil && pw != nil {
		return filterBatchCells(f, ow, old.Chains(), pw, prop.Chains(), c0, c1, verts, out[:nb], sc)
	}
	return fmt.Errorf("gibbs: filter lattices have mixed cell representations")
}

// filterBatchCells is the width-specialized batched filter body: the
// all-old base index accumulates vectorized over the chain block (one
// multiply-add per scope occurrence per chain, contiguous reads), each
// toggled vertex's index delta likewise, and then each chain runs the
// single-chain mask walk — same mask order, same multiplication order,
// same early exit on a zero term as filterCells.
func filterBatchCells[T state.Cells](f *cfactor, old []T, oB int, prop []T, pB int, c0, c1 int, verts []int, out []float64, sc *BatchScratch) error {
	nb := c1 - c0
	if len(verts) == 2 && len(f.scope) == 2 &&
		((int(f.scope[0]) == verts[0] && int(f.scope[1]) == verts[1]) ||
			(int(f.scope[0]) == verts[1] && int(f.scope[1]) == verts[0])) {
		// Pair factor with both scope vertices toggled — the whole grid
		// of every pairwise interaction model. The three mask terms are
		// direct table lookups at the mixed old/new indices, so the walk
		// collapses to one pass over the four cell rows: no base or
		// delta scratch, no per-mask bit loop. Multiplication order is
		// the mask order 01, 10, 11 of the generic walk (bit-identical
		// for the finite nonnegative tables the compiler admits).
		var s0, s1 int32
		if int(f.scope[0]) == verts[0] {
			s0, s1 = f.strides[0], f.strides[1]
		} else {
			s0, s1 = f.strides[1], f.strides[0]
		}
		o0 := old[verts[0]*oB+c0 : verts[0]*oB+c1]
		o1 := old[verts[1]*oB+c0 : verts[1]*oB+c1]
		n0 := prop[verts[0]*pB+c0 : verts[0]*pB+c0+nb]
		n1 := prop[verts[1]*pB+c0 : verts[1]*pB+c0+nb]
		res := out[:nb]
		if t := f.table; len(t) == 4 {
			// 2×2 table as a fixed array: masked indices (always < 4 —
			// cells hold symbols below q) skip the bounds checks.
			ta := (*[4]float64)(t)
			for i := range res {
				a0 := int32(o0[i]) * s0
				a1 := int32(o1[i]) * s1
				b0 := int32(n0[i]) * s0
				b1 := int32(n1[i]) * s1
				w := ta[(b0+a1)&3]
				w *= ta[(a0+b1)&3]
				w *= ta[(b0+b1)&3]
				res[i] = w
			}
			return nil
		}
		t := f.table
		for i := range res {
			a0 := int32(o0[i]) * s0
			a1 := int32(o1[i]) * s1
			b0 := int32(n0[i]) * s0
			b1 := int32(n1[i]) * s1
			w := t[b0+a1]
			w *= t[a0+b1]
			w *= t[b0+b1]
			res[i] = w
		}
		return nil
	}
	base := sc.base[:nb]
	for i := range base {
		base[i] = 0
	}
	for j, u := range f.scope {
		row := old[int(u)*oB+c0 : int(u)*oB+c1]
		st := f.strides[j]
		for i, x := range row {
			base[i] += int32(x) * st
		}
	}
	k := len(verts)
	deltas := sc.deltaBuf(k * nb)
	for b, d := range verts {
		drow := deltas[b*nb : (b+1)*nb]
		for i := range drow {
			drow[i] = 0
		}
		found := false
		for j, u := range f.scope {
			if int(u) != d {
				continue
			}
			found = true
			st := f.strides[j]
			orow := old[d*oB+c0 : d*oB+c1]
			prow := prop[d*pB+c0 : d*pB+c1]
			for i := range orow {
				drow[i] += (int32(prow[i]) - int32(orow[i])) * st
			}
		}
		if !found {
			return fmt.Errorf("gibbs: filter: vertex %d not in factor scope", d)
		}
	}
	table := f.table
	for i := 0; i < nb; i++ {
		w := 1.0
		bi := base[i]
		for mask := 1; mask < 1<<k; mask++ {
			idx := bi
			for b := 0; b < k; b++ {
				if mask&(1<<b) != 0 {
					idx += deltas[b*nb+i]
				}
			}
			w *= table[idx]
			if w == 0 {
				break
			}
		}
		out[i] = w
	}
	return nil
}
