package gibbs

// batch_test.go pins the lattice kernels to the dist.Config ones on the
// dense-table and closure fallback paths and on both cell representations
// (compact uint8 and wide int), and holds the shared fixtures of the
// package's kernel tests: CondWeightsLattice on each chain of a packed
// batch must agree bit-for-bit with CondWeights on that chain's
// configuration.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/state"
)

// batchSpec builds a spec mixing unary, pairwise, and arity-3 factors on a
// small clique-friendly graph.
func batchSpec(t *testing.T) *Spec {
	t.Helper()
	g := graph.New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}, {1, 3}} {
		g.MustAddEdge(e[0], e[1])
	}
	q := 3
	tri := make([]float64, 27)
	for i := range tri {
		tri[i] = 0.2 + float64(i%7)*0.13
	}
	pair := []float64{1, 0.5, 0.25, 0.5, 1, 0.5, 0.25, 0.5, 1}
	factors := []Factor{
		{Scope: []int{0, 1, 2}, Table: tri, Name: "tri"},
		{Scope: []int{1, 3}, Table: pair, Name: "p13"},
		{Scope: []int{3, 4}, Table: pair, Name: "p34"},
		UnaryTable(2, []float64{1, 2, 0.5}, "field"),
		{Scope: []int{2, 3}, Eval: func(a []int) float64 {
			return 1 / (1 + float64(a[0]+2*a[1]))
		}, Name: "closure23"},
	}
	s, err := NewSpec(g, q, factors)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomChains draws B total configurations on n vertices.
func randomChains(n, q, B int, seed int64) []dist.Config {
	rng := rand.New(rand.NewSource(seed))
	chains := make([]dist.Config, B)
	for c := range chains {
		chains[c] = dist.NewConfig(n)
		for v := range chains[c] {
			chains[c][v] = rng.Intn(q)
		}
	}
	return chains
}

func testBatchAgainstSingle(t *testing.T, eng *Compiled, wide bool) {
	t.Helper()
	n, q := eng.N(), eng.Q()
	const B = 7
	chains := randomChains(n, q, B, 9)
	if wide {
		defer state.SetCompactLimitForTest(0)()
	}
	lat, err := state.Pack(n, q, chains)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Compact() == wide {
		t.Fatalf("lattice Compact() = %v with wide=%v", lat.Compact(), wide)
	}
	single := make([]float64, q)
	lsingle := make([]float64, q)
	for v := 0; v < n; v++ {
		for c := 0; c < B; c++ {
			want, err := eng.CondWeights(chains[c], v, single)
			if err != nil {
				t.Fatal(err)
			}
			lw, err := eng.CondWeightsLattice(lat, c, v, lsingle)
			if err != nil {
				t.Fatal(err)
			}
			for x := 0; x < q; x++ {
				if math.Float64bits(lw[x]) != math.Float64bits(want[x]) {
					t.Fatalf("v=%d chain=%d x=%d: lattice %v != config %v", v, c, x, lw[x], want[x])
				}
			}
		}
	}
}

func TestCondWeightsBatchMatchesSingle(t *testing.T) {
	s := batchSpec(t)
	for _, rep := range []struct {
		name string
		wide bool
	}{{"compact", false}, {"wide", true}} {
		t.Run(rep.name, func(t *testing.T) {
			t.Run("tabled", func(t *testing.T) { testBatchAgainstSingle(t, Compile(s), rep.wide) })
			// A cap of 0 forces every closure factor onto the fallback path
			// while explicit tables stay tabled — both kernel paths in one
			// batch.
			t.Run("closure-fallback", func(t *testing.T) { testBatchAgainstSingle(t, CompileCap(s, 0), rep.wide) })
		})
	}
}

// TestLatticePartialKernels pins EvalFullLattice and PartialWeightLattice
// to their dist.Config counterparts on partial configurations, for both
// representations.
func TestLatticePartialKernels(t *testing.T) {
	eng := Compile(batchSpec(t))
	n, q := eng.N(), eng.Q()
	rng := rand.New(rand.NewSource(4))
	for _, wide := range []bool{false, true} {
		restore := func() {}
		if wide {
			restore = state.SetCompactLimitForTest(0)
		}
		for trial := 0; trial < 50; trial++ {
			cfg := dist.NewConfig(n)
			for v := range cfg {
				if rng.Intn(3) > 0 {
					cfg[v] = rng.Intn(q)
				}
			}
			lat, err := state.Pack(n, q, []dist.Config{cfg})
			if err != nil {
				t.Fatal(err)
			}
			for i := range eng.factors {
				wv, wok := eng.EvalFull(i, cfg)
				lv, lok := eng.EvalFullLattice(i, lat, 0)
				if wv != lv || wok != lok {
					t.Fatalf("wide=%v factor %d on %v: lattice (%v,%v) != config (%v,%v)", wide, i, cfg, lv, lok, wv, wok)
				}
			}
			if got, want := eng.PartialWeightLattice(lat, 0), eng.PartialWeight(cfg); got != want {
				t.Fatalf("wide=%v PartialWeight on %v: lattice %v != config %v", wide, cfg, got, want)
			}
		}
		restore()
	}
}

// TestCondWeightsLatticeRejectsBadInput covers the single-chain kernel's
// per-cell checks, which the plan kernels leave to CheckAssigned.
func TestCondWeightsLatticeRejectsBadInput(t *testing.T) {
	eng := Compile(batchSpec(t))
	n, q := eng.N(), eng.Q()
	const B = 3
	full, err := state.Pack(n, q, randomChains(n, q, B, 3))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, q)
	full.Set(1, 2, dist.Unset)
	if _, err := eng.CondWeightsLattice(full, 2, 0, buf); err == nil {
		t.Error("unassigned neighbor accepted")
	}
	if _, err := eng.CondWeightsLattice(full, B, 0, buf); err == nil {
		t.Error("out-of-range chain accepted")
	}
}

// TestFilterWeightLatticeMatchesConfig pins the lattice filter kernel to
// FilterWeight on random (old, proposal) pairs, table and closure paths,
// both representations.
func TestFilterWeightLatticeMatchesConfig(t *testing.T) {
	s := batchSpec(t)
	rng := rand.New(rand.NewSource(12))
	for _, cap := range []int{DefaultTableCap, 0} {
		eng := CompileCap(s, cap)
		n, q := eng.N(), eng.Q()
		for _, wide := range []bool{false, true} {
			restore := func() {}
			if wide {
				restore = state.SetCompactLimitForTest(0)
			}
			for trial := 0; trial < 30; trial++ {
				old := randomChains(n, q, 1, int64(100+trial))[0]
				prop := randomChains(n, q, 1, int64(200+trial))[0]
				lo, err := state.Pack(n, q, []dist.Config{old})
				if err != nil {
					t.Fatal(err)
				}
				lp, err := state.Pack(n, q, []dist.Config{prop})
				if err != nil {
					t.Fatal(err)
				}
				for i, f := range s.Factors {
					verts := make([]int, 0, len(f.Scope))
					for _, u := range f.Scope {
						seen := false
						for _, d := range verts {
							if d == u {
								seen = true
							}
						}
						if !seen && rng.Intn(2) == 0 {
							verts = append(verts, u)
						}
					}
					want, werr := eng.FilterWeight(i, old, prop, verts)
					got, gerr := eng.FilterWeightLattice(i, lo, lp, 0, verts)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("cap=%d wide=%v factor %d verts %v: err %v vs %v", cap, wide, i, verts, gerr, werr)
					}
					if got != want {
						t.Fatalf("cap=%d wide=%v factor %d verts %v: lattice %v != config %v", cap, wide, i, verts, got, want)
					}
				}
			}
			restore()
		}
	}
}
