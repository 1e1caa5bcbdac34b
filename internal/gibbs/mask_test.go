package gibbs

// mask_test.go pins the support-mask kernel to the row walk it replaces:
// for the same lattice and generator state, a masked plan must write the
// symbols, leave the generator in the state, and return the errors that
// subsetWeightRow plus the per-chain walk produce on the same plan with
// the mask flag cleared — blocked chains in the middle of a list
// included. The plan builder's eligibility rules and the mask pool's
// deduplication are pinned alongside.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/state"
)

// maskTestSpec builds a spec on g whose pair factors are 0/1 tables drawn
// with P(1) = density, shared between edges in a round-robin of ntables.
// prior selects the unary prefix: "nil" (none), "pos" (positive entries)
// or "zeros" (some entries exactly 0).
func maskTestSpec(t testing.TB, g *graph.Graph, q, ntables int, density float64, prior string, rng *rand.Rand) *Spec {
	t.Helper()
	tables := make([][]float64, ntables)
	for i := range tables {
		tables[i] = make([]float64, q*q)
		for j := range tables[i] {
			if rng.Float64() < density {
				tables[i][j] = 1
			}
		}
	}
	var factors []Factor
	if prior != "nil" {
		for v := 0; v < g.N(); v++ {
			w := make([]float64, q)
			for x := range w {
				w[x] = 0.25 + rng.Float64()
				if prior == "zeros" && rng.Intn(3) == 0 {
					w[x] = 0
				}
			}
			factors = append(factors, UnaryTable(v, w, "prior"))
		}
	}
	for i, e := range g.Edges() {
		factors = append(factors, Factor{Scope: []int{e.U, e.V}, Table: tables[i%ntables], Name: "pair"})
	}
	s, err := NewSpec(g, q, factors)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// maskVsRow updates vertex v in the listed chains twice from the same
// state: on the mask kernel through SampleVertexSubset (cache off), and on
// the row walk — sampleSubsetCells over a copy of v's plan with the mask
// flag cleared — against a clone of the lattice and a copy of the
// generator. It fails unless the lattices, the generator states and the
// errors agree exactly, and returns the mask kernel's error.
func maskVsRow(t testing.TB, eng *Compiled, lat *state.Lattice, v int, chains []int32, rng *dist.Xoshiro) error {
	t.Helper()
	p := eng.Plan()
	if !p.verts[v].masked {
		t.Fatalf("vertex %d is not on the mask kernel", v)
	}
	row := p.verts[v]
	row.masked = false
	ref := lat.Clone()
	shadow := *rng
	q, B := eng.Q(), lat.Chains()
	sc := NewBatchScratch(B)
	errMask := eng.SampleVertexSubset(lat, v, chains, make([]float64, len(chains)*q), sc, rng)
	var errRow error
	if u8 := ref.Raw8(); u8 != nil {
		errRow = sampleSubsetCells(q, &row, p.masks, u8, B, v, chains, make([]float64, len(chains)*q), sc, &shadow)
	} else {
		errRow = sampleSubsetCells(q, &row, p.masks, ref.RawWide(), B, v, chains, make([]float64, len(chains)*q), sc, &shadow)
	}
	if (errMask == nil) != (errRow == nil) || (errMask != nil && errMask.Error() != errRow.Error()) {
		t.Fatalf("v=%d chains %v: mask kernel error %v, row walk error %v", v, chains, errMask, errRow)
	}
	if *rng != shadow {
		t.Fatalf("v=%d chains %v: mask kernel and row walk consumed different uniforms", v, chains)
	}
	for u := 0; u < lat.N(); u++ {
		for c := 0; c < B; c++ {
			if got, want := lat.Get(u, c), ref.Get(u, c); got != want {
				t.Fatalf("v=%d chains %v: cell (%d, %d) mask %d, row %d", v, chains, u, c, got, want)
			}
		}
	}
	return errMask
}

// TestSubsetMaskMatchesRow sweeps random 0/1-table instances at q = 4, 14
// and 64, with no prior, a positive prior and a prior with zero entries,
// on both cell widths, over chain lists with gaps, and compares every
// update with the row walk. Sparse tables make blocked chains common, so
// the zero-mass path is exercised alongside the draws.
func TestSubsetMaskMatchesRow(t *testing.T) {
	for _, q := range []int{4, 14, 64} {
		for _, prior := range []string{"nil", "pos", "zeros"} {
			for _, wide := range []bool{false, true} {
				t.Run(fmt.Sprintf("q=%d/prior=%s/wide=%v", q, prior, wide), func(t *testing.T) {
					if wide {
						defer state.SetCompactLimitForTest(0)()
					}
					rng := rand.New(rand.NewSource(int64(q*7 + len(prior))))
					g := graph.Grid(3, 3)
					// density ≈ 1 − 1/Δ leaves a blocked neighborhood likely
					// but not certain.
					eng := Compile(maskTestSpec(t, g, q, 3, 0.6, prior, rng))
					eng.SetCondMode(CondOff)
					if got := eng.Plan().Masked(); got != g.N() {
						t.Fatalf("Masked() = %d, want %d", got, g.N())
					}
					const B = 9
					lat, err := state.Pack(g.N(), q, randomChains(g.N(), q, B, int64(q)))
					if err != nil {
						t.Fatal(err)
					}
					if lat.Compact() == wide {
						t.Fatalf("lattice Compact() = %v with wide=%v", lat.Compact(), wide)
					}
					lists := [][]int32{{0}, {B - 1}, {1, 4, 8}, {0, 2, 3, 7}, {0, 1, 2, 3, 4, 5, 6, 7, 8}}
					x := dist.NewXoshiro(int64(q), 3)
					var draws, blocked int
					for sweep := 0; sweep < 12; sweep++ {
						for v := 0; v < g.N(); v++ {
							list := lists[(sweep+v)%len(lists)]
							if err := maskVsRow(t, eng, lat, v, list, &x); err != nil {
								if !errors.Is(err, dist.ErrZeroMass) {
									t.Fatalf("v=%d: %v, want dist.ErrZeroMass", v, err)
								}
								blocked++
								continue
							}
							draws++
						}
					}
					if draws == 0 {
						t.Fatal("no update drew a symbol")
					}
					t.Logf("%d updates drew, %d hit a blocked chain", draws, blocked)
				})
			}
		}
	}
}

// starSpec is a star with center 0 and leaves 1…leaves under the q-color
// disequality table, with the given prior on the center (nil for none).
func starSpec(t testing.TB, q, leaves int, prior []float64) *Spec {
	t.Helper()
	g := graph.New(leaves + 1)
	neq := make([]float64, q*q)
	for a := 0; a < q; a++ {
		for b := 0; b < q; b++ {
			if a != b {
				neq[a*q+b] = 1
			}
		}
	}
	var factors []Factor
	if prior != nil {
		factors = append(factors, UnaryTable(0, prior, "prior"))
	}
	for l := 1; l <= leaves; l++ {
		g.MustAddEdge(0, l)
		factors = append(factors, Factor{Scope: []int{0, l}, Table: neq, Name: "neq"})
	}
	s, err := NewSpec(g, q, factors)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSubsetMaskBlockedMidList pins the zero-mass and overflow paths with
// a blocked chain in the middle of a list: the chains before it are drawn
// and written with one uniform each, the blocked chain consumes none and
// stays unwritten, the chains after it are untouched, and the error is
// the row walk's, byte for byte.
func TestSubsetMaskBlockedMidList(t *testing.T) {
	const q, B = 4, 6
	for _, tc := range []struct {
		name  string
		prior []float64
		// leaves[c] colors the four leaves in chain c; chain 3 is blocked.
		leaves [B][4]int
		want   string
	}{
		{
			name:   "all-colors-used",
			leaves: [B][4]int{{0, 0, 1, 1}, {1, 1, 1, 1}, {2, 3, 2, 3}, {0, 1, 2, 3}, {0, 1, 0, 1}, {3, 3, 3, 3}},
			want:   "gibbs: heat-bath at vertex 0 chain 3: dist: zero total mass",
		},
		{
			// The support {0, 1} of chain 3 carries zero prior mass.
			name:   "zero-prior-support",
			prior:  []float64{0, 0, 1, 2},
			leaves: [B][4]int{{0, 0, 1, 1}, {1, 1, 1, 1}, {0, 1, 0, 0}, {2, 3, 2, 3}, {0, 1, 0, 1}, {3, 3, 3, 3}},
			want:   "gibbs: heat-bath at vertex 0 chain 3: dist: zero total mass",
		},
		{
			// Two finite prior entries whose sum overflows.
			name:   "total-overflows",
			prior:  []float64{math.MaxFloat64, 1, 1, math.MaxFloat64},
			leaves: [B][4]int{{0, 1, 2, 0}, {1, 2, 1, 2}, {3, 3, 1, 1}, {1, 2, 1, 2}, {0, 1, 0, 1}, {3, 3, 3, 3}},
			want:   "gibbs: heat-bath at vertex 0 chain 3: dist: total weight overflows to +Inf",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := Compile(starSpec(t, q, 4, tc.prior))
			eng.SetCondMode(CondOff)
			lat, err := state.New(5, B, q)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < B; c++ {
				for l, x := range tc.leaves[c] {
					lat.Set(l+1, c, x)
				}
				lat.Set(0, c, 0)
			}
			before := lat.Clone()
			x := dist.NewXoshiro(21, 0)
			start := x
			list := []int32{0, 2, 3, 5}
			err = maskVsRow(t, eng, lat, 0, list, &x)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error %v, want %q", err, tc.want)
			}
			// Exactly the two chains before the blocked one drew a uniform.
			start.Float64()
			start.Float64()
			if x != start {
				t.Fatal("generator did not advance by exactly two uniforms")
			}
			for _, c := range []int{1, 3, 4, 5} {
				if got, want := lat.Get(0, c), before.Get(0, c); got != want {
					t.Errorf("chain %d center changed %d → %d", c, want, got)
				}
			}
		})
	}
}

// TestPlanMaskEligibility pins which vertices the plan builder puts on
// the mask kernel, and that the pool holds one mask set per distinct
// (table, su, sv) however many vertices share it.
func TestPlanMaskEligibility(t *testing.T) {
	cycle := func(n int) *graph.Graph {
		g := graph.New(n)
		for v := 0; v < n; v++ {
			g.MustAddEdge(v, (v+1)%n)
		}
		return g
	}
	neq := func(q int) []float64 {
		t := make([]float64, q*q)
		for a := 0; a < q; a++ {
			for b := 0; b < q; b++ {
				if a != b {
					t[a*q+b] = 1
				}
			}
		}
		return t
	}
	build := func(q int, g *graph.Graph, extra func(v int) []Factor, table []float64) *SweepPlan {
		t.Helper()
		var factors []Factor
		for v := 0; v < g.N() && extra != nil; v++ {
			factors = append(factors, extra(v)...)
		}
		for _, e := range g.Edges() {
			factors = append(factors, Factor{Scope: []int{e.U, e.V}, Table: table, Name: "pair"})
		}
		s, err := NewSpec(g, q, factors)
		if err != nil {
			t.Fatal(err)
		}
		return Compile(s).Plan()
	}
	g := cycle(12)
	// The shared disequality table: every vertex masked, and the pool
	// holds two sets (v first or second in the scope) of q masks.
	for _, q := range []int{4, 5, 64} {
		p := build(q, g, nil, neq(q))
		if p.Masked() != g.N() || len(p.masks) != 2*q {
			t.Errorf("q=%d coloring: Masked() = %d, pool %d masks; want %d, %d", q, p.Masked(), len(p.masks), g.N(), 2*q)
		}
		// Bit x of mask y is "x ≠ y".
		for y := 0; y < q; y++ {
			if want := (^uint64(0) >> (64 - q)) &^ (1 << y); p.masks[y] != want {
				t.Errorf("q=%d mask[%d] = %#x, want %#x", q, y, p.masks[y], want)
			}
		}
	}
	soft := neq(5)
	soft[1] = 0.5
	scaled := neq(5)
	scaled[1] = 2
	prior := func(w ...float64) func(int) []Factor {
		return func(v int) []Factor { return []Factor{UnaryTable(v, w, "u")} }
	}
	for _, tc := range []struct {
		name  string
		p     *SweepPlan
		count int
	}{
		{"q3-register-path", build(3, g, nil, neq(3)), 0},
		{"q65", build(65, g, nil, neq(65)), 0},
		{"soft-table", build(5, g, nil, soft), 0},
		{"entry-two", build(5, g, nil, scaled), 0},
		{"prior-ok", build(5, g, prior(0, 1, 2, 0, 3), neq(5)), g.N()},
		{"prior-negative", build(5, g, prior(1, -1, 1, 1, 1), neq(5)), 0},
		{"prior-nan", build(5, g, prior(1, math.NaN(), 1, 1, 1), neq(5)), 0},
		{"prior-inf", build(5, g, prior(1, math.Inf(1), 1, 1, 1), neq(5)), 0},
		// Two finite unaries whose folded product overflows to +Inf.
		{"prior-overflow", build(5, g, func(v int) []Factor {
			w := []float64{1, 1e200, 1, 1, 1}
			return []Factor{UnaryTable(v, w, "a"), UnaryTable(v, w, "b")}
		}, neq(5)), 0},
	} {
		if got := tc.p.Masked(); got != tc.count {
			t.Errorf("%s: Masked() = %d, want %d", tc.name, got, tc.count)
		}
	}
	// A unary factor after a pair factor stays an opUnary op, which sends
	// the vertex to the row walk; the other vertices stay masked.
	s, err := NewSpec(g, 5, append(func() []Factor {
		var f []Factor
		for _, e := range g.Edges() {
			f = append(f, Factor{Scope: []int{e.U, e.V}, Table: neq(5), Name: "pair"})
		}
		return f
	}(), UnaryTable(3, []float64{1, 1, 1, 1, 1}, "late")))
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(s).Plan()
	if p.Masked() != g.N()-1 || p.verts[3].masked {
		t.Errorf("trailing unary: Masked() = %d, vertex 3 masked = %v; want %d, false", p.Masked(), p.verts[3].masked, g.N()-1)
	}
	// Closure factors keep the vertex off the mask kernel.
	s, err = NewSpec(g, 5, []Factor{
		{Scope: []int{0, 1}, Eval: func(a []int) float64 { return float64(min(1, a[0]^a[1])) }, Name: "closure"},
		{Scope: []int{1, 2}, Table: neq(5), Name: "pair"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := CompileCap(s, 0).Plan(); p.verts[0].masked || p.verts[1].masked || !p.verts[2].masked {
		t.Errorf("closure: masked = %v %v %v, want false false true", p.verts[0].masked, p.verts[1].masked, p.verts[2].masked)
	}
}

// FuzzSubsetMask draws a random 0/1-table instance (q in 4…64, table
// count, density, prior kind and chain list from the input) and checks
// every vertex update of a few sweeps against the row walk.
func FuzzSubsetMask(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(150), uint8(0), uint16(0x1ff), int64(1))
	f.Add(uint8(10), uint8(3), uint8(200), uint8(1), uint16(0x0a5), int64(2))
	f.Add(uint8(60), uint8(2), uint8(250), uint8(2), uint16(0x100), int64(3))
	f.Fuzz(func(t *testing.T, qb, nt, dens, pk uint8, list uint16, seed int64) {
		q := 4 + int(qb)%61
		rng := rand.New(rand.NewSource(seed))
		g := graph.Grid(3, 3)
		prior := []string{"nil", "pos", "zeros"}[int(pk)%3]
		eng := Compile(maskTestSpec(t, g, q, 1+int(nt)%4, float64(dens)/255, prior, rng))
		eng.SetCondMode(CondOff)
		const B = 9
		var chains []int32
		for c := 0; c < B; c++ {
			if list&(1<<c) != 0 {
				chains = append(chains, int32(c))
			}
		}
		if len(chains) == 0 {
			chains = []int32{int32(seed&0x7fffffff) % B}
		}
		lat, err := state.Pack(g.N(), q, randomChains(g.N(), q, B, seed))
		if err != nil {
			t.Fatal(err)
		}
		x := dist.NewXoshiro(seed, 1)
		for sweep := 0; sweep < 3; sweep++ {
			for v := 0; v < g.N(); v++ {
				maskVsRow(t, eng, lat, v, chains, &x)
			}
		}
	})
}
