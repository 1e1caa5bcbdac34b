package repro_test

// plan_prop_test.go: the sweep-plan equivalence property. The batched
// heat-bath kernels run a compiled per-vertex instruction stream
// (gibbs.SweepPlan), either directly or through the conditional-CDF rows
// built from it, instead of interpreting the factor graph; nothing
// downstream may be able to tell. The test pins that against the
// per-chain reference kernel CondWeightsLattice for every model builder of
// internal/model, on the dense-table and the closure-fallback engine, on
// compact and forced-wide lattices, with the chain states drawn from real
// batched sweeps:
//   - every cached cumulative row (CondLookupLattice) equals the running
//     sum of the reference row bitwise, at every vertex and chain;
//   - SampleVertexBatch with the cache off draws, chain by chain, the
//     symbol dist.SampleWeightsX draws from the reference row with the
//     same uniform.

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/psample"
	"repro/internal/sampler"
	"repro/internal/state"
)

// closureEngine recompiles the spec with every factor stripped to its Eval
// closure and the table cap at zero, so all factors take the closure path
// (explicit tables are adopted verbatim regardless of cap, so stripping is
// the only way to force the fallback).
func closureEngine(t *testing.T, s *gibbs.Spec) *gibbs.Compiled {
	t.Helper()
	fs := make([]gibbs.Factor, len(s.Factors))
	for i, f := range s.Factors {
		fs[i] = gibbs.Factor{Scope: f.Scope, Eval: f.Eval, Name: f.Name}
	}
	s2, err := gibbs.NewSpec(s.G, s.Q, fs)
	if err != nil {
		t.Fatal(err)
	}
	return gibbs.CompileCap(s2, 0)
}

func TestSweepPlanBitIdenticalToBatchKernel(t *testing.T) {
	const (
		seed = 20260807
		B    = 6
	)
	for name, in := range propInstances(t) {
		t.Run(name, func(t *testing.T) {
			for _, rep := range []struct {
				name string
				wide bool
			}{{"compact", false}, {"wide", true}} {
				t.Run(rep.name, func(t *testing.T) {
					restore := func() {}
					if rep.wide {
						restore = state.SetCompactLimitForTest(0)
					}
					defer restore()
					r, err := psample.NewRules(in)
					if err != nil {
						t.Fatal(err)
					}
					// Real sweep states, not synthetic ones: run a few
					// batched sweeps so the compared conditionals sit on
					// configurations the engine actually visits.
					b, err := sampler.NewBatch(r, B, seed)
					if err != nil {
						t.Fatal(err)
					}
					if err := b.Run(3); err != nil {
						t.Fatal(err)
					}
					lat := b.Lattice()
					if lat.Compact() == rep.wide {
						t.Fatalf("lattice Compact() = %v with wide=%v", lat.Compact(), rep.wide)
					}
					engines := []struct {
						name string
						eng  *gibbs.Compiled
					}{
						{"table", gibbs.Compile(in.Spec)},
						{"closure", closureEngine(t, in.Spec)},
					}
					for _, e := range engines {
						checkCondRows(t, e.name, e.eng, lat)
						checkPlanDraws(t, e.name, e.eng, lat.Clone(), seed)
					}
				})
			}
		})
	}
}

// checkCondRows compares every cached cumulative row with the running sum
// of the reference row, and fails when nothing is cached (the comparison
// would be vacuous).
func checkCondRows(t *testing.T, name string, eng *gibbs.Compiled, lat *state.Lattice) {
	t.Helper()
	if st := eng.CondStats(); st.Cached == 0 {
		t.Fatalf("%s engine: the cond cache covers no vertex", name)
	}
	buf := make([]float64, eng.Q())
	checked := 0
	for v := 0; v < eng.N(); v++ {
		for c := 0; c < lat.Chains(); c++ {
			cum, _, ok := eng.CondLookupLattice(lat, c, v)
			if !ok {
				continue
			}
			w, err := eng.CondWeightsLattice(lat, c, v, buf)
			if err != nil {
				t.Fatal(err)
			}
			acc := 0.0
			for x, wx := range w {
				acc += wx
				if math.Float64bits(cum[x]) != math.Float64bits(acc) {
					t.Fatalf("%s engine v=%d chain=%d x=%d: cached %v != running sum %v", name, v, c, x, cum[x], acc)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("%s engine: no cached row served a lookup", name)
	}
}

// checkPlanDraws runs SampleVertexBatch with the cache off over dense
// spans and checks each chain's draw against the reference: the
// CondWeightsLattice row and one uniform from a shadow of the generator.
func checkPlanDraws(t *testing.T, name string, eng *gibbs.Compiled, lat *state.Lattice, seed int64) {
	t.Helper()
	eng.SetCondMode(gibbs.CondOff)
	B, q := lat.Chains(), eng.Q()
	sc := gibbs.NewBatchScratch(B)
	buf := make([]float64, B*q)
	row := make([]float64, q)
	want := make([]int, B)
	rng := dist.NewXoshiro(seed, 1)
	for v := 0; v < eng.N(); v++ {
		for _, span := range [][2]int{{0, B}, {1, 4}, {B - 1, B}} {
			c0, c1 := span[0], span[1]
			shadow := rng
			for c := c0; c < c1; c++ {
				w, err := eng.CondWeightsLattice(lat, c, v, row)
				if err != nil {
					t.Fatal(err)
				}
				if want[c], err = dist.SampleWeightsX(w, &shadow); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.SampleVertexBatch(lat, v, c0, c1, buf, sc, &rng); err != nil {
				t.Fatal(err)
			}
			for c := c0; c < c1; c++ {
				if got := lat.Get(v, c); got != want[c] {
					t.Fatalf("%s engine v=%d span=[%d,%d) chain %d: plan drew %d, reference %d", name, v, c0, c1, c, got, want[c])
				}
			}
		}
	}
}
