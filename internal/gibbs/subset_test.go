package gibbs

// subset_test.go pins the masked kernels to their per-chain references:
// SampleVertexSubset must draw exactly what the reference walk over the
// per-chain CondWeightsLattice rows draws for the same uniforms, touch
// only the listed chains, and agree bit-for-bit with the single-chain
// heat-bath on a one-chain subset; FilterWeightBatch must reproduce FilterWeightLattice
// per chain across arities and representations.

import (
	"errors"
	"testing"

	"repro/internal/dist"
	"repro/internal/state"
)

// TestSampleVertexSubsetMatchesReference drives the masked fused kernel
// over irregular chain subsets on all three plan paths (q=2 register,
// q=3 register, buffered mixed-arity) and both representations, checking
// each listed chain against the reference walk and each unlisted chain
// for bit-exact preservation.
func TestSampleVertexSubsetMatchesReference(t *testing.T) {
	for _, spec := range []struct {
		name string
		s    *Spec
	}{{"q2", unaryFirstSpec(t)}, {"q3-pair", pairSpecQ3(t)}, {"q3-mixed", batchSpec(t)}} {
		t.Run(spec.name, func(t *testing.T) {
			for _, rep := range []struct {
				name string
				wide bool
			}{{"compact", false}, {"wide", true}} {
				t.Run(rep.name, func(t *testing.T) {
					eng := Compile(spec.s)
					n, q := eng.N(), eng.Q()
					const B = 8
					if rep.wide {
						defer state.SetCompactLimitForTest(0)()
					}
					lat, err := state.Pack(n, q, randomChains(n, q, B, 31))
					if err != nil {
						t.Fatal(err)
					}
					if lat.Compact() == rep.wide {
						t.Fatalf("lattice Compact() = %v with wide=%v", lat.Compact(), rep.wide)
					}
					if err := lat.CheckAssigned(); err != nil {
						t.Fatal(err)
					}
					subsets := [][]int32{
						{0}, {B - 1}, {2, 5}, {0, 3, 4, 7}, {1, 2, 3, 4, 5, 6}, {0, 1, 2, 3, 4, 5, 6, 7},
					}
					sc := NewBatchScratch(B)
					buf := make([]float64, B*q)
					ref := make([]float64, q)
					before := make([]int, B)
					rng := dist.NewXoshiro(11, 0)
					for sweep := 0; sweep < 8; sweep++ {
						for v := 0; v < n; v++ {
							sub := subsets[(sweep*n+v)%len(subsets)]
							in := make(map[int32]bool, len(sub))
							for _, ch := range sub {
								in[ch] = true
							}
							for c := 0; c < B; c++ {
								before[c] = lat.Get(v, c)
							}
							// The reference draw replays the same generator
							// against the per-chain weights.
							shadow := rng
							want := make(map[int32]int, len(sub))
							for _, ch := range sub {
								want[ch] = refDraw(t, eng, lat, v, int(ch), ref, &shadow)
							}
							if err := eng.SampleVertexSubset(lat, v, sub, buf, sc, &rng); err != nil {
								t.Fatal(err)
							}
							for c := 0; c < B; c++ {
								got := lat.Get(v, c)
								if in[int32(c)] {
									if got != want[int32(c)] {
										t.Fatalf("sweep %d v=%d chain %d: subset drew %d, reference walk %d", sweep, v, c, got, want[int32(c)])
									}
								} else if got != before[c] {
									t.Fatalf("sweep %d v=%d chain %d: unlisted chain changed %d -> %d", sweep, v, c, before[c], got)
								}
							}
						}
					}
				})
			}
		})
	}
}

// TestSampleVertexSubsetMatchesHeatBath is the gibbs-layer half of the
// B=1 agreement contract: a one-chain subset must update exactly like the
// single-chain heat-bath consuming the same uniform.
func TestSampleVertexSubsetMatchesHeatBath(t *testing.T) {
	for _, spec := range []struct {
		name string
		s    *Spec
	}{{"q2", unaryFirstSpec(t)}, {"q3-mixed", batchSpec(t)}} {
		t.Run(spec.name, func(t *testing.T) {
			eng := Compile(spec.s)
			n, q := eng.N(), eng.Q()
			const B = 4
			chains := randomChains(n, q, B, 53)
			lat, err := state.Pack(n, q, chains)
			if err != nil {
				t.Fatal(err)
			}
			mirror, err := state.Pack(n, q, chains)
			if err != nil {
				t.Fatal(err)
			}
			if err := lat.CheckAssigned(); err != nil {
				t.Fatal(err)
			}
			buf := make([]float64, q)
			cond := make([]float64, q)
			rng := dist.NewXoshiro(99, 1)
			shadow := rng
			for sweep := 0; sweep < 10; sweep++ {
				for v := 0; v < n; v++ {
					c := (sweep + v) % B
					if err := eng.SampleVertexSubset(lat, v, []int32{int32(c)}, buf, nil, &rng); err != nil {
						t.Fatal(err)
					}
					w, err := eng.CondWeightsLattice(mirror, c, v, cond)
					if err != nil {
						t.Fatal(err)
					}
					x, err := dist.SampleWeightsX(w, &shadow)
					if err != nil {
						t.Fatal(err)
					}
					mirror.Set(v, c, x)
					if got := lat.Get(v, c); got != x {
						t.Fatalf("sweep %d v=%d chain %d: subset %d != heat-bath %d", sweep, v, c, got, x)
					}
				}
			}
		})
	}
}

// TestSampleVertexSubsetRejectsBadInput covers the argument checks and the
// empty-subset no-op.
func TestSampleVertexSubsetRejectsBadInput(t *testing.T) {
	eng := Compile(batchSpec(t))
	n, q := eng.N(), eng.Q()
	const B = 3
	lat, err := state.Pack(n, q, randomChains(n, q, B, 3))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, B*q)
	rng := dist.NewXoshiro(1, 0)
	if err := eng.SampleVertexSubset(lat, 0, nil, buf, nil, &rng); err != nil {
		t.Errorf("empty subset: err = %v, want nil", err)
	}
	if err := eng.SampleVertexSubset(lat, -1, []int32{0}, buf, nil, &rng); err == nil {
		t.Error("negative vertex accepted")
	}
	if err := eng.SampleVertexSubset(lat, 0, []int32{int32(B)}, buf, nil, &rng); err == nil {
		t.Error("out-of-range chain accepted")
	}
	if err := eng.SampleVertexSubset(lat, 0, []int32{-1}, buf, nil, &rng); err == nil {
		t.Error("negative chain accepted")
	}
	if err := eng.SampleVertexSubset(lat, 0, []int32{0, 1}, buf[:1], nil, &rng); err == nil {
		t.Error("short buffer accepted")
	}
	short, err := state.New(n-1, B, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SampleVertexSubset(short, 0, []int32{0}, buf, nil, &rng); err == nil {
		t.Error("short lattice accepted")
	}
}

// TestFilterWeightBatchMatchesSingle pins the batched filter to
// FilterWeightLattice per chain on every tabled factor, across toggled
// subsets of each factor's scope, chain spans, and representations.
func TestFilterWeightBatchMatchesSingle(t *testing.T) {
	for _, rep := range []struct {
		name string
		wide bool
	}{{"compact", false}, {"wide", true}} {
		t.Run(rep.name, func(t *testing.T) {
			eng := Compile(batchSpec(t))
			n, q := eng.N(), eng.Q()
			const B = 7
			if rep.wide {
				defer state.SetCompactLimitForTest(0)()
			}
			old, err := state.Pack(n, q, randomChains(n, q, B, 17))
			if err != nil {
				t.Fatal(err)
			}
			prop, err := state.Pack(n, q, randomChains(n, q, B, 18))
			if err != nil {
				t.Fatal(err)
			}
			sc := NewBatchScratch(B)
			out := make([]float64, B)
			for i := range eng.factors {
				f := &eng.factors[i]
				if f.table == nil {
					continue
				}
				// Distinct scope vertices, then every nonempty prefix of them
				// as the toggled set (covers k = 1..arity).
				var scope []int
				for _, u := range f.scope {
					seen := false
					for _, s := range scope {
						if s == int(u) {
							seen = true
							break
						}
					}
					if !seen {
						scope = append(scope, int(u))
					}
				}
				for k := 1; k <= len(scope); k++ {
					verts := scope[:k]
					for _, span := range [][2]int{{0, B}, {2, 5}, {B - 1, B}} {
						c0, c1 := span[0], span[1]
						if err := eng.FilterWeightBatch(i, old, prop, c0, c1, verts, out, sc); err != nil {
							t.Fatal(err)
						}
						for c := c0; c < c1; c++ {
							want, err := eng.FilterWeightLattice(i, old, prop, c, verts)
							if err != nil {
								t.Fatal(err)
							}
							if out[c-c0] != want {
								t.Fatalf("factor %d verts %v chain %d: batch %v != single %v", i, verts, c, out[c-c0], want)
							}
						}
					}
				}
			}
		})
	}
}

// TestFilterWeightBatchValidation covers the argument and capability
// checks: bad factor index, bad range, short output, closure factors
// (ErrNotTabled), oversized toggle sets, vertices outside the scope, and
// the empty-toggle identity row.
func TestFilterWeightBatchValidation(t *testing.T) {
	eng := CompileCap(batchSpec(t), 0) // every factor closure-backed
	n, q := eng.N(), eng.Q()
	const B = 3
	old, err := state.Pack(n, q, randomChains(n, q, B, 5))
	if err != nil {
		t.Fatal(err)
	}
	prop, err := state.Pack(n, q, randomChains(n, q, B, 6))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, B)
	closure := -1
	for i := range eng.factors {
		if eng.factors[i].table == nil && len(eng.factors[i].scope) > 0 {
			closure = i
			break
		}
	}
	if closure < 0 {
		t.Fatal("capped compile produced no closure-backed factor")
	}
	cv := int(eng.factors[closure].scope[0])
	if err := eng.FilterWeightBatch(closure, old, prop, 0, B, []int{cv}, out, nil); !errors.Is(err, ErrNotTabled) {
		t.Errorf("closure factor: err = %v, want ErrNotTabled", err)
	}
	eng = Compile(batchSpec(t))
	if err := eng.FilterWeightBatch(-1, old, prop, 0, B, []int{0}, out, nil); err == nil {
		t.Error("negative factor accepted")
	}
	if err := eng.FilterWeightBatch(0, old, prop, 2, 1, []int{0}, out, nil); err == nil {
		t.Error("empty chain range accepted")
	}
	if err := eng.FilterWeightBatch(0, old, prop, 0, B+1, []int{0}, out, nil); err == nil {
		t.Error("over-range chains accepted")
	}
	if err := eng.FilterWeightBatch(0, old, prop, 0, B, []int{0}, out[:1], nil); err == nil {
		t.Error("short output accepted")
	}
	big := make([]int, filterMaxToggle+1)
	if err := eng.FilterWeightBatch(0, old, prop, 0, B, big, out, nil); err == nil {
		t.Error("oversized toggle set accepted")
	}
	// Factor 0 is "tri" with scope {0,1,2}: vertex 4 is outside it.
	if err := eng.FilterWeightBatch(0, old, prop, 0, B, []int{4}, out, nil); err == nil {
		t.Error("out-of-scope vertex accepted")
	}
	if err := eng.FilterWeightBatch(0, old, prop, 0, B, nil, out, nil); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < B; c++ {
		if out[c] != 1 {
			t.Errorf("empty toggle set: out[%d] = %v, want 1", c, out[c])
		}
	}
}
