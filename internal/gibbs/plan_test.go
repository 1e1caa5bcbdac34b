package gibbs

// plan_test.go pins the compiled sweep plans to the per-chain reference
// kernel: the plan's weight rows (subsetWeightRow) must reproduce
// CondWeightsLattice bit-for-bit on the table and closure paths and on
// both cell representations, the fused SampleVertexBatch must draw
// exactly the symbols SampleWeights semantics dictate for the same uniform
// variates, and the plan builder must fold unary prefixes into priors
// without disturbing factor order.

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/state"
)

// unaryFirstSpec puts a unary factor at the head of every vertex's factor
// list (the builders' layout), so the prior prefix fold is exercised, and
// keeps a trailing unary and closure to exercise mid-stream ops too.
func unaryFirstSpec(t *testing.T) *Spec {
	t.Helper()
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		g.MustAddEdge(e[0], e[1])
	}
	pair := []float64{1, 0.7, 0.7, 1.4}
	factors := []Factor{
		UnaryTable(0, []float64{1, 0.4}, "u0"),
		UnaryTable(1, []float64{0.9, 1.1}, "u1a"),
		UnaryTable(1, []float64{2, 0.25}, "u1b"),
		UnaryTable(2, []float64{1, 3}, "u2"),
		UnaryTable(3, []float64{0.5, 1}, "u3"),
		{Scope: []int{0, 1}, Table: pair, Name: "p01"},
		{Scope: []int{1, 2}, Table: pair, Name: "p12"},
		UnaryTable(2, []float64{1.5, 0.8}, "u2-late"),
		{Scope: []int{2, 3}, Eval: func(a []int) float64 {
			return 1 / (1 + float64(2*a[0]+a[1]))
		}, Name: "closure23"},
	}
	s, err := NewSpec(g, 2, factors)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// pairSpecQ3 is a purely pairwise q=3 spec (unary prefix + pair tables),
// landing every vertex on the q=3 register path of the fused sampler.
func pairSpecQ3(t *testing.T) *Spec {
	t.Helper()
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		g.MustAddEdge(e[0], e[1])
	}
	pair := []float64{1, 0.5, 0.8, 0.5, 1, 0.3, 0.8, 0.3, 1}
	factors := []Factor{
		UnaryTable(0, []float64{1, 2, 0.5}, "u0"),
		UnaryTable(2, []float64{0.25, 1, 4}, "u2"),
		{Scope: []int{0, 1}, Table: pair, Name: "p01"},
		{Scope: []int{1, 2}, Table: pair, Name: "p12"},
		{Scope: []int{2, 3}, Table: pair, Name: "p23"},
		{Scope: []int{3, 0}, Table: pair, Name: "p30"},
	}
	s, err := NewSpec(g, 3, factors)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testPlanAgainstBatch compares the plan's weight rows over dense spans,
// passed to subsetWeightRow as the lists c0…c1−1, with CondWeightsLattice
// per chain, bit-for-bit.
func testPlanAgainstBatch(t *testing.T, eng *Compiled, wide bool) {
	t.Helper()
	n, q := eng.N(), eng.Q()
	const B = 7
	cfgs := randomChains(n, q, B, 23)
	if wide {
		defer state.SetCompactLimitForTest(0)()
	}
	lat, err := state.Pack(n, q, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Compact() == wide {
		t.Fatalf("lattice Compact() = %v with wide=%v", lat.Compact(), wide)
	}
	verts := eng.Plan().verts
	sc := NewBatchScratch(B)
	got := make([]float64, B*q)
	lsingle := make([]float64, q)
	for v := 0; v < n; v++ {
		for _, span := range [][2]int{{0, B}, {2, 5}, {B - 1, B}} {
			c0, c1 := span[0], span[1]
			w := got[:(c1-c0)*q]
			if u8 := lat.Raw8(); u8 != nil {
				subsetWeightRow(q, &verts[v], u8, B, sc.span(c0, c1), w, sc)
			} else {
				subsetWeightRow(q, &verts[v], lat.RawWide(), B, sc.span(c0, c1), w, sc)
			}
			for c := c0; c < c1; c++ {
				lw, err := eng.CondWeightsLattice(lat, c, v, lsingle)
				if err != nil {
					t.Fatal(err)
				}
				for x := 0; x < q; x++ {
					if pw := w[(c-c0)*q+x]; math.Float64bits(pw) != math.Float64bits(lw[x]) {
						t.Fatalf("v=%d chain=%d span=[%d,%d) x=%d: plan %v != lattice %v", v, c, c0, c1, x, pw, lw[x])
					}
				}
			}
		}
	}
}

func TestPlanWeightsMatchBatch(t *testing.T) {
	for _, spec := range []struct {
		name string
		s    *Spec
	}{{"mixed-arity", batchSpec(t)}, {"unary-first", unaryFirstSpec(t)}} {
		t.Run(spec.name, func(t *testing.T) {
			for _, rep := range []struct {
				name string
				wide bool
			}{{"compact", false}, {"wide", true}} {
				t.Run(rep.name, func(t *testing.T) {
					t.Run("tabled", func(t *testing.T) { testPlanAgainstBatch(t, Compile(spec.s), rep.wide) })
					t.Run("closure-fallback", func(t *testing.T) { testPlanAgainstBatch(t, CompileCap(spec.s, 0), rep.wide) })
				})
			}
		})
	}
}

// TestPlanFoldsUnaryPrefix is the white-box structural check: with the
// builders' unary-first factor layout every vertex plan gets a non-nil
// prior, mid-stream unaries stay ops, and op count matches the non-unary
// factor count.
func TestPlanFoldsUnaryPrefix(t *testing.T) {
	eng := Compile(unaryFirstSpec(t))
	p := eng.Plan()
	if p != eng.Plan() {
		t.Fatal("Plan() not cached")
	}
	for v := 0; v < eng.N(); v++ {
		if p.verts[v].prior == nil {
			t.Errorf("vertex %d: unary prefix not folded into prior", v)
		}
	}
	// Vertex 1 carries two prefix unaries (u1a, u1b) folded together.
	if got := len(p.verts[1].ops); got != 2 {
		t.Errorf("vertex 1 ops = %d, want 2 (p01, p12)", got)
	}
	// Vertex 2's late unary sits after pair p12, so it must stay an op;
	// closure23 is enumerated into a table under the default cap (opPair)
	// and stays a closure op when compilation is capped off.
	checkKinds := func(eng *Compiled, want []planOpKind) {
		t.Helper()
		var kinds []planOpKind
		for _, op := range eng.Plan().verts[2].ops {
			kinds = append(kinds, op.kind)
		}
		if len(kinds) != len(want) {
			t.Fatalf("vertex 2 ops = %v, want %v", kinds, want)
		}
		for i := range want {
			if kinds[i] != want[i] {
				t.Fatalf("vertex 2 op %d kind = %d, want %d", i, kinds[i], want[i])
			}
		}
	}
	checkKinds(eng, []planOpKind{opPair, opUnary, opPair})
	checkKinds(CompileCap(unaryFirstSpec(t), 0), []planOpKind{opPair, opUnary, opClosure})
}

// TestSampleVertexBatchMatchesSampleWeights pins the fused draw to
// dist.SampleWeights semantics: with identical uniform variates the fused
// kernel must write exactly the symbol the reference walk selects.
func TestSampleVertexBatchMatchesSampleWeights(t *testing.T) {
	// unaryFirstSpec takes the q=2 register path, pairSpecQ3 the q=3 one,
	// and batchSpec (arity-3 + closure factors) the buffered fallback.
	for _, spec := range []struct {
		name string
		s    *Spec
	}{{"q2", unaryFirstSpec(t)}, {"q3-pair", pairSpecQ3(t)}, {"q3-mixed", batchSpec(t)}} {
		t.Run(spec.name, func(t *testing.T) {
			eng := Compile(spec.s)
			n, q := eng.N(), eng.Q()
			const B = 6
			lat, err := state.Pack(n, q, randomChains(n, q, B, 77))
			if err != nil {
				t.Fatal(err)
			}
			if err := lat.CheckAssigned(); err != nil {
				t.Fatal(err)
			}
			sc := NewBatchScratch(B)
			buf := make([]float64, B*q)
			ref := make([]float64, q)
			rng := dist.NewXoshiro(5, 0)
			for sweep := 0; sweep < 20; sweep++ {
				for v := 0; v < n; v++ {
					// The reference draw replays the same generator against
					// the per-chain weights: copy the value-type RNG before
					// the kernel consumes it.
					shadow := rng
					want := make([]int, B)
					for c := 0; c < B; c++ {
						want[c] = refDraw(t, eng, lat, v, c, ref, &shadow)
					}
					if err := eng.SampleVertexBatch(lat, v, 0, B, buf, sc, &rng); err != nil {
						t.Fatal(err)
					}
					for c := 0; c < B; c++ {
						if got := lat.Get(v, c); got != want[c] {
							t.Fatalf("sweep %d v=%d chain %d: fused drew %d, reference walk %d", sweep, v, c, got, want[c])
						}
					}
				}
			}
		})
	}
}

// refDraw is the reference heat-bath draw: chain c's CondWeightsLattice
// row at v (buf needs q entries), one uniform from rng, and the
// dist.SampleWeights walk.
func refDraw(t *testing.T, eng *Compiled, lat *state.Lattice, v, c int, buf []float64, rng *dist.Xoshiro) int {
	t.Helper()
	w, err := eng.CondWeightsLattice(lat, c, v, buf)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dist.SampleWeightsX(w, rng)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestSampleVertexBatchZeroMass checks the cold error path: an all-zero
// weight row surfaces dist.ErrZeroMass wrapped with the (vertex, chain)
// site instead of writing anything.
func TestSampleVertexBatchZeroMass(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	s, err := NewSpec(g, 2, []Factor{
		{Scope: []int{0, 1}, Table: []float64{0, 0, 0, 0}, Name: "dead"},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := Compile(s)
	lat, err := state.Pack(2, 2, randomChains(2, 2, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 3*2)
	rng := dist.NewXoshiro(1, 0)
	err = eng.SampleVertexBatch(lat, 0, 0, 3, buf, nil, &rng)
	if !errors.Is(err, dist.ErrZeroMass) {
		t.Fatalf("zero-mass row: err = %v, want dist.ErrZeroMass", err)
	}
}

// TestSampleVertexBatchRejectsBadInput covers the argument checks.
func TestSampleVertexBatchRejectsBadInput(t *testing.T) {
	eng := Compile(batchSpec(t))
	n, q := eng.N(), eng.Q()
	const B = 3
	lat, err := state.Pack(n, q, randomChains(n, q, B, 3))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, B*q)
	rng := dist.NewXoshiro(1, 0)
	if err := eng.SampleVertexBatch(lat, -1, 0, B, buf, nil, &rng); err == nil {
		t.Error("negative vertex accepted")
	}
	if err := eng.SampleVertexBatch(lat, 0, 2, 1, buf, nil, &rng); err == nil {
		t.Error("empty chain range accepted")
	}
	if err := eng.SampleVertexBatch(lat, 0, 0, B, buf[:1], nil, &rng); err == nil {
		t.Error("short buffer accepted")
	}
	short, err := state.New(n-1, B, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SampleVertexBatch(short, 0, 0, B, buf, nil, &rng); err == nil {
		t.Error("short lattice accepted")
	}
}
