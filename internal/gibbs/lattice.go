package gibbs

// lattice.go: single-chain kernels over the compact state container
// (internal/state.Lattice). These are the lattice-reading variants of
// CondWeights, EvalFull, PartialWeight(At), and FilterWeight that every
// sampling engine runs on — the dist.Config kernels remain for the API
// boundary (partial configurations with pinning semantics, the referee,
// the decay oracles). Each kernel branches once on the lattice
// representation and runs a width-specialized body (generic over
// state.Cells), so the compact path reads one byte per cell with the
// mixed-radix index math done directly on the cell type.

import (
	"fmt"

	"repro/internal/state"
)

// latticeFor validates that the lattice covers the engine's variables and
// that chain is in range.
func (c *Compiled) latticeFor(l *state.Lattice, chain int) error {
	if l.N() < c.n {
		return fmt.Errorf("gibbs: lattice has %d vertices, engine has %d", l.N(), c.n)
	}
	if chain < 0 || chain >= l.Chains() {
		return fmt.Errorf("gibbs: chain %d out of range for %d-chain lattice", chain, l.Chains())
	}
	return nil
}

// CondWeightsLattice fills buf[0:q] with the unnormalized heat-bath
// conditional weights of vertex v read from chain `chain` of the lattice —
// the lattice equivalent of CondWeights, bit-identical to it on every
// path, with no allocation on the table path.
func (c *Compiled) CondWeightsLattice(l *state.Lattice, chain, v int, buf []float64) ([]float64, error) {
	if v < 0 || v >= c.n {
		return nil, fmt.Errorf("gibbs: conditional vertex %d out of range", v)
	}
	if err := c.latticeFor(l, chain); err != nil {
		return nil, err
	}
	if len(buf) < c.q {
		return nil, fmt.Errorf("gibbs: conditional buffer has %d entries, need q = %d", len(buf), c.q)
	}
	w := buf[:c.q]
	for x := range w {
		w[x] = 1
	}
	if u8 := l.Raw8(); u8 != nil {
		return condWeightsCells(c, u8, l.Chains(), chain, v, w)
	}
	return condWeightsCells(c, l.RawWide(), l.Chains(), chain, v, w)
}

// condWeightsCells is the width-specialized conditional kernel body.
func condWeightsCells[T state.Cells](c *Compiled, cells []T, B, chain, v int, w []float64) ([]float64, error) {
	q := c.q
	for _, fi := range c.FactorsAt(v) {
		f := &c.factors[fi]
		if f.table != nil {
			base := int32(0)
			sv := int32(0)
			for j, u := range f.scope {
				if int(u) == v {
					// Repeated occurrences of v all take the same symbol,
					// so their strides simply accumulate.
					sv += f.strides[j]
					continue
				}
				x := cells[int(u)*B+chain]
				if !state.Valid(x, q) {
					return nil, fmt.Errorf("gibbs: conditional at %d: scope vertex %d unassigned", v, u)
				}
				base += int32(x) * f.strides[j]
			}
			// Straight-line walks for the small alphabets every model
			// builder uses; multiplication order matches the generic loop
			// (bit-identical weights).
			table := f.table
			switch q {
			case 2:
				w[0] *= table[base]
				w[1] *= table[base+sv]
			case 3:
				w[0] *= table[base]
				w[1] *= table[base+sv]
				w[2] *= table[base+2*sv]
			default:
				for x := int32(0); x < int32(q); x++ {
					w[x] *= table[base+x*sv]
				}
			}
			continue
		}
		assign := make([]int, len(f.scope))
		for x := 0; x < q; x++ {
			for j, u := range f.scope {
				if int(u) == v {
					assign[j] = x
					continue
				}
				xu := cells[int(u)*B+chain]
				if !state.Valid(xu, q) {
					return nil, fmt.Errorf("gibbs: conditional at %d: scope vertex %d unassigned", v, u)
				}
				assign[j] = int(xu)
			}
			w[x] *= f.eval(assign)
		}
	}
	return w, nil
}

// EvalFullLattice evaluates factor i on chain `chain` of the lattice,
// requiring every scope vertex assigned; ok is false otherwise — the
// lattice equivalent of EvalFull.
func (c *Compiled) EvalFullLattice(i int, l *state.Lattice, chain int) (val float64, ok bool) {
	if u8 := l.Raw8(); u8 != nil {
		return evalFullCells(c, i, u8, l.Chains(), chain)
	}
	return evalFullCells(c, i, l.RawWide(), l.Chains(), chain)
}

// EvalFullCells1 is EvalFullLattice on a pre-dispatched single-chain
// (B = 1) cell array, for callers that branch on the representation once
// per walk instead of once per factor evaluation: the cell index is the
// vertex itself, saving the chain-stride multiply in the innermost loop —
// this is the exact enumerator's hot call, executed once per (node,
// symbol) of the assignment tree. Folding it into the strided
// evalFullCells (B = 1, chain 0) measured slower on that walk.
func EvalFullCells1[T state.Cells](c *Compiled, i int, cells []T) (float64, bool) {
	return evalFullCells1(c, i, cells)
}

func evalFullCells1[T state.Cells](c *Compiled, i int, cells []T) (float64, bool) {
	f := &c.factors[i]
	q := c.q
	if f.table != nil {
		idx := int32(0)
		for j, u := range f.scope {
			x := cells[u]
			if !state.Valid(x, q) {
				return 0, false
			}
			idx += int32(x) * f.strides[j]
		}
		return f.table[idx], true
	}
	assign := make([]int, len(f.scope))
	for j, u := range f.scope {
		x := cells[u]
		if !state.Valid(x, q) {
			return 0, false
		}
		assign[j] = int(x)
	}
	return f.eval(assign), true
}

// PartialWeightAtCells1 is PartialWeightAt on a single-chain cell array:
// the product of the factors containing v whose scopes are fully
// assigned — the incremental enumeration delta.
func PartialWeightAtCells1[T state.Cells](c *Compiled, cells []T, v int) float64 {
	w := 1.0
	for _, i := range c.FactorsAt(v) {
		val, ok := evalFullCells1(c, int(i), cells)
		if !ok {
			continue
		}
		w *= val
		if w == 0 {
			return 0
		}
	}
	return w
}

// evalFullCells is the width-specialized factor evaluation body.
func evalFullCells[T state.Cells](c *Compiled, i int, cells []T, B, chain int) (float64, bool) {
	f := &c.factors[i]
	q := c.q
	if f.table != nil {
		idx := int32(0)
		for j, u := range f.scope {
			x := cells[int(u)*B+chain]
			if !state.Valid(x, q) {
				return 0, false
			}
			idx += int32(x) * f.strides[j]
		}
		return f.table[idx], true
	}
	assign := make([]int, len(f.scope))
	for j, u := range f.scope {
		x := cells[int(u)*B+chain]
		if !state.Valid(x, q) {
			return 0, false
		}
		assign[j] = int(x)
	}
	return f.eval(assign), true
}

// PartialWeightLattice returns the product of the factors whose scopes are
// fully assigned under chain `chain` of the lattice — the lattice
// equivalent of PartialWeight.
func (c *Compiled) PartialWeightLattice(l *state.Lattice, chain int) float64 {
	w := 1.0
	for i := range c.factors {
		val, ok := c.EvalFullLattice(i, l, chain)
		if !ok {
			continue
		}
		w *= val
		if w == 0 {
			return 0
		}
	}
	return w
}

// FilterWeightLattice is FilterWeight reading the current configuration and
// the proposal from chain `chain` of two lattices (which must share one
// representation, as lattices built for the same instance do). Both chains
// must assign every scope vertex of factor i.
func (c *Compiled) FilterWeightLattice(i int, old, prop *state.Lattice, chain int, verts []int) (float64, error) {
	if i < 0 || i >= len(c.factors) {
		return 0, fmt.Errorf("gibbs: filter factor %d out of range", i)
	}
	if err := c.latticeFor(old, chain); err != nil {
		return 0, err
	}
	if err := c.latticeFor(prop, chain); err != nil {
		return 0, err
	}
	k := len(verts)
	if k == 0 {
		return 1, nil
	}
	if k > filterMaxToggle {
		return 0, fmt.Errorf("gibbs: filter over %d toggled vertices (max %d)", k, filterMaxToggle)
	}
	if o8, p8 := old.Raw8(), prop.Raw8(); o8 != nil && p8 != nil {
		return filterCells(c, &c.factors[i], o8, old.Chains(), p8, prop.Chains(), chain, verts)
	}
	if ow, pw := old.RawWide(), prop.RawWide(); ow != nil && pw != nil {
		return filterCells(c, &c.factors[i], ow, old.Chains(), pw, prop.Chains(), chain, verts)
	}
	return 0, fmt.Errorf("gibbs: filter lattices have mixed cell representations")
}

// filterCells is the width-specialized filter body: on the table path the
// base index encodes the all-old assignment and each toggled vertex
// contributes a fixed index delta; closure factors materialize each mixed
// assignment.
func filterCells[T state.Cells](c *Compiled, f *cfactor, old []T, oB int, prop []T, pB int, chain int, verts []int) (float64, error) {
	q := c.q
	if f.table != nil {
		base := int32(0)
		for j, u := range f.scope {
			x := old[int(u)*oB+chain]
			if !state.Valid(x, q) {
				return 0, fmt.Errorf("gibbs: filter: scope vertex %d unassigned in current configuration", u)
			}
			base += int32(x) * f.strides[j]
		}
		var dbuf [8]int32
		deltas := dbuf[:0]
		if len(verts) > len(dbuf) {
			deltas = make([]int32, 0, len(verts))
		}
		for _, d := range verts {
			xo, xp := old[d*oB+chain], prop[d*pB+chain]
			if !state.Valid(xo, q) || !state.Valid(xp, q) {
				return 0, fmt.Errorf("gibbs: filter: toggled vertex %d unassigned", d)
			}
			delta := int32(0)
			found := false
			for j, u := range f.scope {
				if int(u) == d {
					delta += (int32(xp) - int32(xo)) * f.strides[j]
					found = true
				}
			}
			if !found {
				return 0, fmt.Errorf("gibbs: filter: vertex %d not in factor scope", d)
			}
			deltas = append(deltas, delta)
		}
		w := 1.0
		for mask := 1; mask < 1<<len(deltas); mask++ {
			idx := base
			for b, delta := range deltas {
				if mask&(1<<b) != 0 {
					idx += delta
				}
			}
			w *= f.table[idx]
			if w == 0 {
				return 0, nil
			}
		}
		return w, nil
	}
	toggled := make(map[int]int, len(verts)) // vertex -> bit position
	for b, d := range verts {
		if !state.Valid(prop[d*pB+chain], q) {
			return 0, fmt.Errorf("gibbs: filter: toggled vertex %d unassigned", d)
		}
		toggled[d] = b
	}
	for _, d := range verts {
		found := false
		for _, u := range f.scope {
			if int(u) == d {
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("gibbs: filter: vertex %d not in factor scope", d)
		}
	}
	assign := make([]int, len(f.scope))
	w := 1.0
	for mask := 1; mask < 1<<len(verts); mask++ {
		for j, u := range f.scope {
			xo := old[int(u)*oB+chain]
			if !state.Valid(xo, q) {
				return 0, fmt.Errorf("gibbs: filter: scope vertex %d unassigned in current configuration", u)
			}
			if b, ok := toggled[int(u)]; ok && mask&(1<<b) != 0 {
				assign[j] = int(prop[int(u)*pB+chain])
			} else {
				assign[j] = int(xo)
			}
		}
		w *= f.eval(assign)
		if w == 0 {
			return 0, nil
		}
	}
	return w, nil
}
