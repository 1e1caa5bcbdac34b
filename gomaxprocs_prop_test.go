package repro_test

// gomaxprocs_prop_test.go: the adaptive driver's determinism contract
// across GOMAXPROCS. The worst-vertex scans of the R̂/ESS accumulator split
// the vertices into min(GOMAXPROCS, n) blocks, and the engines' worker
// count is pinned by the policy, so (instance, seed, policy) must fix the
// Report and the final lattice bit for bit whatever the scheduler width.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/run"
	"repro/internal/sampler"
)

func TestDriverDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const seed = 23
	policy := run.Policy{
		Chains:     6,
		BurnIn:     2,
		MaxSweeps:  40,
		CheckEvery: 2,
		Rhat:       1.02,
		MinESS:     200,
		Workers:    2,
	}
	corpus := corpusInstances(t)
	for _, name := range []string{"hardcore-tree15-below", "coloring-grid3-qeqdelta", "wcsp-explicit-pinned"} {
		in, ok := corpus[name]
		if !ok {
			t.Fatalf("corpus instance %s missing", name)
		}
		for _, dyn := range sampler.MultiNames() {
			t.Run(name+"/"+dyn, func(t *testing.T) {
				var wantRep string
				var want sampler.MultiChain
				for _, procs := range []int{1, 2, 8} {
					runtime.GOMAXPROCS(procs)
					rep, m, err := run.One(in, dyn, seed, policy)
					if err != nil {
						t.Fatal(err)
					}
					// %v prints every float in its shortest round-trip
					// form, so equal strings mean equal bits (NaN
					// included, which reflect.DeepEqual rejects).
					got := fmt.Sprintf("%+v", *rep)
					if want == nil {
						wantRep, want = got, m
						continue
					}
					if got != wantRep {
						t.Errorf("GOMAXPROCS %d report differs from GOMAXPROCS 1:\n%s\n%s", procs, got, wantRep)
					}
					sameChains(t, m, want)
				}
			})
		}
	}
}
