package gibbs

// cond_test.go pins the conditional-CDF cache to the plan path it
// replaces, mirroring plan_test.go: with identical uniform variates a
// cache-covered engine must write exactly the symbols the plan kernels
// draw (dense blocks, masked subsets, and the B = 1 lattice lookup),
// consume exactly the same number of uniforms, keep partial coverage
// bit-identical, and surface byte-for-byte the same bad-row errors —
// without consuming the erroring chain's uniform.

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/state"
)

// pairSpecQ4 is a purely pairwise q=4 spec (soft proper-coloring-ish
// tables), landing every vertex on the buffered plan walk and the generic
// LUT draw path.
func pairSpecQ4(t *testing.T) *Spec {
	t.Helper()
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		g.MustAddEdge(e[0], e[1])
	}
	pair := make([]float64, 16)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a == b {
				pair[a*4+b] = 0.2
			} else {
				pair[a*4+b] = 1 + 0.1*float64(a) + 0.03*float64(b)
			}
		}
	}
	factors := []Factor{
		UnaryTable(1, []float64{1, 0.5, 2, 0.25}, "u1"),
		{Scope: []int{0, 1}, Table: pair, Name: "p01"},
		{Scope: []int{1, 2}, Table: pair, Name: "p12"},
		{Scope: []int{2, 3}, Table: pair, Name: "p23"},
		{Scope: []int{3, 0}, Table: pair, Name: "p30"},
	}
	s, err := NewSpec(g, 4, factors)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// condTestSpecs covers every draw path: q=2 register, q=3 register, q=3
// buffered (mixed arities + closures), q=4 generic.
func condTestSpecs(t *testing.T) []struct {
	name string
	s    *Spec
} {
	t.Helper()
	return []struct {
		name string
		s    *Spec
	}{
		{"q2", unaryFirstSpec(t)},
		{"q3-pair", pairSpecQ3(t)},
		{"q3-mixed", batchSpec(t)},
		{"q4-pair", pairSpecQ4(t)},
	}
}

// condEngines compiles the spec twice — one engine with the cache off, one
// with it on — so the two paths can run the same draws side by side.
func condEngines(t *testing.T, s *Spec, tableCap int) (off, on *Compiled) {
	t.Helper()
	off = CompileCap(s, tableCap)
	off.SetCondMode(CondOff)
	on = CompileCap(s, tableCap)
	return off, on
}

// TestCondSamplingMatchesPlanPath is the shadow-RNG equivalence property:
// the cached dense, subset, and bound-subset kernels must write exactly
// the cells the plan kernels write for identical generator states, on
// compact and forced-wide lattices, on the tabled and closure-fallback
// engines.
func TestCondSamplingMatchesPlanPath(t *testing.T) {
	const B = 6
	for _, spec := range condTestSpecs(t) {
		t.Run(spec.name, func(t *testing.T) {
			for _, rep := range []struct {
				name string
				wide bool
			}{{"compact", false}, {"wide", true}} {
				t.Run(rep.name, func(t *testing.T) {
					for _, cap := range []struct {
						name string
						cap  int
					}{{"tabled", DefaultTableCap}, {"closure-fallback", 0}} {
						t.Run(cap.name, func(t *testing.T) {
							if rep.wide {
								defer state.SetCompactLimitForTest(0)()
							}
							engOff, engOn := condEngines(t, spec.s, cap.cap)
							n, q := engOn.N(), engOn.Q()
							if st := engOn.CondStats(); st.Cached != n {
								t.Fatalf("cache covers %d of %d vertices, want all", st.Cached, n)
							}
							latOff, err := state.Pack(n, q, randomChains(n, q, B, 91))
							if err != nil {
								t.Fatal(err)
							}
							latOn, err := state.Pack(n, q, randomChains(n, q, B, 91))
							if err != nil {
								t.Fatal(err)
							}
							if latOff.Compact() == rep.wide {
								t.Fatalf("lattice Compact() = %v with wide=%v", latOff.Compact(), rep.wide)
							}
							sc := NewBatchScratch(B)
							buf := make([]float64, B*q)
							rngOff := dist.NewXoshiro(13, 4)
							rngOn := rngOff
							same := func(stage string) {
								t.Helper()
								if rngOff != rngOn {
									t.Fatalf("%s: generators diverged (different uniform consumption)", stage)
								}
								for v := 0; v < n; v++ {
									for c := 0; c < B; c++ {
										if a, b := latOff.Get(v, c), latOn.Get(v, c); a != b {
											t.Fatalf("%s: cell (%d,%d) plan=%d cache=%d", stage, v, c, a, b)
										}
									}
								}
							}
							// Dense sweeps over spans including single-chain
							// blocks.
							for sweep := 0; sweep < 8; sweep++ {
								for v := 0; v < n; v++ {
									for _, span := range [][2]int{{0, B}, {2, 3}, {B - 1, B}} {
										if err := engOff.SampleVertexBatch(latOff, v, span[0], span[1], buf, sc, &rngOff); err != nil {
											t.Fatal(err)
										}
										if err := engOn.SampleVertexBatch(latOn, v, span[0], span[1], buf, sc, &rngOn); err != nil {
											t.Fatal(err)
										}
									}
								}
							}
							same("dense")
							// Masked subsets, including the unbound entry point.
							subsets := [][]int32{{0}, {1, 3, 4}, {0, 1, 2, 3, 4, 5}, {5}}
							for sweep := 0; sweep < 4; sweep++ {
								for v := 0; v < n; v++ {
									chains := subsets[(sweep+v)%len(subsets)]
									if err := engOff.SampleVertexSubset(latOff, v, chains, buf, sc, &rngOff); err != nil {
										t.Fatal(err)
									}
									if err := engOn.SampleVertexSubset(latOn, v, chains, buf, sc, &rngOn); err != nil {
										t.Fatal(err)
									}
								}
							}
							same("subset")
							bindOff, err := engOff.BindVertexSubset(latOff)
							if err != nil {
								t.Fatal(err)
							}
							bindOn, err := engOn.BindVertexSubset(latOn)
							if err != nil {
								t.Fatal(err)
							}
							for sweep := 0; sweep < 4; sweep++ {
								for v := 0; v < n; v++ {
									chains := subsets[(sweep+v+1)%len(subsets)]
									if err := bindOff(v, chains, buf, sc, &rngOff); err != nil {
										t.Fatal(err)
									}
									if err := bindOn(v, chains, buf, sc, &rngOn); err != nil {
										t.Fatal(err)
									}
								}
							}
							same("bound-subset")
						})
					}
				})
			}
		})
	}
}

// TestCondLookupLatticeMatchesSampleWeights pins the B = 1 path: for the
// same uniform, CondLookupLattice + CondDrawCum must return exactly the
// symbol dist.SampleWeightsX draws from the CondWeightsLattice row.
func TestCondLookupLatticeMatchesSampleWeights(t *testing.T) {
	for _, spec := range condTestSpecs(t) {
		t.Run(spec.name, func(t *testing.T) {
			_, eng := condEngines(t, spec.s, DefaultTableCap)
			n, q := eng.N(), eng.Q()
			lat, err := state.Pack(n, q, randomChains(n, q, 1, 3))
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]float64, q)
			rng := dist.NewXoshiro(99, 0)
			for sweep := 0; sweep < 50; sweep++ {
				for v := 0; v < n; v++ {
					shadow := rng
					w, err := eng.CondWeightsLattice(lat, 0, v, buf)
					if err != nil {
						t.Fatal(err)
					}
					want, err := dist.SampleWeightsX(w, &shadow)
					if err != nil {
						t.Fatal(err)
					}
					cum, last, ok := eng.CondLookupLattice(lat, 0, v)
					if !ok {
						t.Fatalf("vertex %d not served by the cache", v)
					}
					got := CondDrawCum(cum, last, rng.Float64())
					if got != want {
						t.Fatalf("sweep %d v=%d: cache drew %d, SampleWeightsX %d", sweep, v, got, want)
					}
					if rng != shadow {
						t.Fatalf("sweep %d v=%d: uniform consumption diverged", sweep, v)
					}
					lat.Set(v, 0, got)
				}
			}
			// The lookup declines calls it cannot serve instead of guessing.
			eng.SetCondMode(CondOff)
			if _, _, ok := eng.CondLookupLattice(lat, 0, 0); ok {
				t.Error("lookup served a CondOff engine")
			}
			eng.SetCondMode(CondAuto)
			if _, _, ok := eng.CondLookupLattice(lat, 0, -1); ok {
				t.Error("lookup served a negative vertex")
			}
			if _, _, ok := eng.CondLookupLattice(lat, 1, 0); ok {
				t.Error("lookup served an out-of-range chain")
			}
			fresh, err := state.New(n, 1, q)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, ok := eng.CondLookupLattice(fresh, 0, 0); ok {
				t.Error("lookup served an unset neighborhood")
			}
		})
	}
}

// TestCondPartialCoverage shrinks the budgets so only part of the graph is
// cached and checks the mixed cached/uncached sweep stays bit-identical —
// the greedy byte budget must not change semantics, only speed.
func TestCondPartialCoverage(t *testing.T) {
	s := pairSpecQ3(t)
	// Each vertex of the q=3 cycle needs 3²·3 = 27 row entries ≈ 240 bytes;
	// a 500-byte budget caches the first two vertices only.
	restore := SetCondCapForTest(DefaultCondCap, 500)
	defer restore()
	engOff, engOn := condEngines(t, s, DefaultTableCap)
	n, q := engOn.N(), engOn.Q()
	st := engOn.CondStats()
	if st.Cached == 0 || st.Cached == n {
		t.Fatalf("want partial coverage, got %d of %d cached (%d bytes)", st.Cached, n, st.Bytes)
	}
	const B = 5
	latOff, err := state.Pack(n, q, randomChains(n, q, B, 7))
	if err != nil {
		t.Fatal(err)
	}
	latOn, err := state.Pack(n, q, randomChains(n, q, B, 7))
	if err != nil {
		t.Fatal(err)
	}
	sc := NewBatchScratch(B)
	buf := make([]float64, B*q)
	rngOff := dist.NewXoshiro(41, 2)
	rngOn := rngOff
	for sweep := 0; sweep < 10; sweep++ {
		for v := 0; v < n; v++ {
			if err := engOff.SampleVertexBatch(latOff, v, 0, B, buf, sc, &rngOff); err != nil {
				t.Fatal(err)
			}
			if err := engOn.SampleVertexBatch(latOn, v, 0, B, buf, sc, &rngOn); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rngOff != rngOn {
		t.Fatal("generators diverged under partial coverage")
	}
	for v := 0; v < n; v++ {
		for c := 0; c < B; c++ {
			if a, b := latOff.Get(v, c), latOn.Get(v, c); a != b {
				t.Fatalf("cell (%d,%d): plan=%d mixed=%d", v, c, a, b)
			}
		}
	}
}

// TestCondCapGates checks the eligibility caps: a zero entry cap caches
// nothing (kernels fall back to the plan walk), and CondOn lifts the byte
// budget but not the entry cap.
func TestCondCapGates(t *testing.T) {
	t.Run("zero-entry-cap", func(t *testing.T) {
		defer SetCondCapForTest(0, int64(DefaultCondBytes))()
		_, eng := condEngines(t, pairSpecQ3(t), DefaultTableCap)
		if st := eng.CondStats(); st.Cached != 0 || st.Bytes != 0 {
			t.Fatalf("zero cap cached %+v", st)
		}
		// Kernels still work through the plan walk.
		n, q := eng.N(), eng.Q()
		lat, err := state.Pack(n, q, randomChains(n, q, 3, 5))
		if err != nil {
			t.Fatal(err)
		}
		rng := dist.NewXoshiro(1, 0)
		if err := eng.SampleVertexBatch(lat, 0, 0, 3, make([]float64, 3*q), nil, &rng); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("cond-on-lifts-byte-budget", func(t *testing.T) {
		defer SetCondCapForTest(DefaultCondCap, 1)()
		_, eng := condEngines(t, pairSpecQ3(t), DefaultTableCap)
		eng.SetCondMode(CondOn)
		if st := eng.CondStats(); st.Cached != eng.N() {
			t.Fatalf("CondOn under a 1-byte budget cached %d of %d", st.Cached, eng.N())
		}
	})
	t.Run("auto-respects-byte-budget", func(t *testing.T) {
		defer SetCondCapForTest(DefaultCondCap, 1)()
		_, eng := condEngines(t, pairSpecQ3(t), DefaultTableCap)
		if st := eng.CondStats(); st.Cached != 0 {
			t.Fatalf("1-byte budget cached %d vertices", st.Cached)
		}
	})
}

// TestCondBadRowMatchesPlanError forces a reachable zero-mass conditional
// (a two-coloring path pinned to opposite colors around the middle vertex)
// and checks the cached path reproduces the plan path's error byte for
// byte without consuming the erroring chain's uniform.
func TestCondBadRowMatchesPlanError(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	diff := []float64{0, 1, 1, 0}
	s, err := NewSpec(g, 2, []Factor{
		{Scope: []int{0, 1}, Table: diff, Name: "p01"},
		{Scope: []int{1, 2}, Table: diff, Name: "p12"},
	})
	if err != nil {
		t.Fatal(err)
	}
	engOff, engOn := condEngines(t, s, DefaultTableCap)
	mk := func() *state.Lattice {
		cfg := dist.NewConfig(3)
		cfg[0], cfg[1], cfg[2] = 0, 0, 1 // v1's conditional: both colors blocked
		lat, err := state.Pack(3, 2, []dist.Config{cfg})
		if err != nil {
			t.Fatal(err)
		}
		return lat
	}
	buf := make([]float64, 2)
	rngOff := dist.NewXoshiro(3, 0)
	rngOn := rngOff
	errOff := engOff.SampleVertexBatch(mk(), 1, 0, 1, buf, nil, &rngOff)
	errOn := engOn.SampleVertexBatch(mk(), 1, 0, 1, buf, nil, &rngOn)
	if errOff == nil || errOn == nil {
		t.Fatalf("zero-mass row not diagnosed: off=%v on=%v", errOff, errOn)
	}
	if errOff.Error() != errOn.Error() {
		t.Fatalf("errors differ:\noff: %v\non:  %v", errOff, errOn)
	}
	if rngOff != rngOn {
		t.Fatal("generators diverged on the error path")
	}
	// The B = 1 lookup declines bad rows so the fallback rebuilds the same
	// error.
	if _, _, ok := engOn.CondLookupLattice(mk(), 0, 1); ok {
		t.Error("lookup served a zero-mass row")
	}
	// Subset kernel, same contract.
	errOff = engOff.SampleVertexSubset(mk(), 1, []int32{0}, buf, nil, &rngOff)
	errOn = engOn.SampleVertexSubset(mk(), 1, []int32{0}, buf, nil, &rngOn)
	if errOff == nil || errOn == nil || errOff.Error() != errOn.Error() {
		t.Fatalf("subset errors differ:\noff: %v\non:  %v", errOff, errOn)
	}
	if rngOff != rngOn {
		t.Fatal("generators diverged on the subset error path")
	}
}
