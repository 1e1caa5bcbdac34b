package sampler

// sampler_test.go validates the registry and the batched engine end to
// end: every registered dynamic must drive every model builder to the
// exact Gibbs distribution within the sampling-noise envelope, the batch
// engine must do so for all of its chains at once (including with a
// forced multi-worker pool, so the chains×blocks partition runs under the
// race detector), and pinning/feasibility invariants must hold throughout.

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/psample"
)

func TestRegistryHasBuiltins(t *testing.T) {
	want := []string{"chromatic", "glauber", "luby", "metropolis"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		info, ok := Lookup(name)
		if !ok || info.Synopsis == "" {
			t.Errorf("Lookup(%q) = %+v, %v", name, info, ok)
		}
	}
}

func TestNewUnknownDynamic(t *testing.T) {
	spec, err := model.Hardcore(graph.Path(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Create("nosuch", in, Options{Seed: 1}); err == nil {
		t.Error("unknown dynamic accepted")
	}
	if _, err := SweepRounds("nosuch", in); err == nil {
		t.Error("unknown dynamic accepted by SweepRounds")
	}
}

// TestCreateSelectsEngine pins Create's Options contract: Chains = 0 is
// the single-chain engine, Chains ≥ 1 the batched multi-chain engine
// (which must implement MultiChain), two Create calls with the same
// options follow the same trajectory, and a batched request on a dynamic
// without one is a descriptive error.
func TestCreateSelectsEngine(t *testing.T) {
	spec, err := model.Hardcore(graph.Cycle(6), 1.2)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Create("nosuch", in, Options{}); err == nil {
		t.Error("unknown dynamic accepted")
	}
	for _, name := range Names() {
		single, err := Create(name, in, Options{Seed: 5})
		if err != nil {
			t.Fatalf("Create(%q, Chains: 0) = %v", name, err)
		}
		if err := single.Run(3); err != nil {
			t.Fatalf("%q single-chain Run: %v", name, err)
		}
	}
	for _, name := range MultiNames() {
		s, err := Create(name, in, Options{Chains: 4, Seed: 5})
		if err != nil {
			t.Fatalf("Create(%q, Chains: 4) = %v", name, err)
		}
		m, ok := s.(MultiChain)
		if !ok {
			t.Fatalf("batched Create(%q) does not implement MultiChain", name)
		}
		if m.Chains() != 4 {
			t.Errorf("Create(%q).Chains() = %d, want 4", name, m.Chains())
		}
		// Construction is a pure function of (name, chains, seed): a second
		// engine must follow the same chain-0 trajectory.
		again, err := Create(name, in, Options{Chains: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		twin := again.(MultiChain)
		if err := m.Run(5); err != nil {
			t.Fatal(err)
		}
		if err := twin.Run(5); err != nil {
			t.Fatal(err)
		}
		got, want := m.Chain(0), twin.Chain(0)
		for v := range got {
			if got[v] != want[v] {
				t.Errorf("two Create calls diverge for %q at vertex %d", name, v)
				break
			}
		}
	}
	// Dynamics without a batched form: a descriptive error, not a panic.
	if _, err := Create("glauber", in, Options{Chains: 4}); err == nil {
		t.Error("Create(glauber, Chains: 4) accepted")
	}
}

// TestCreateSingleChainIsBatchedB1 pins the single-chain contract: for
// every dynamic with a batched engine, Chains: 0 and Chains: 1 both build
// that engine with one chain, and their trajectories are bit-identical.
func TestCreateSingleChainIsBatchedB1(t *testing.T) {
	spec, err := model.Ising(graph.Cycle(9), 0.6, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	pin := dist.NewConfig(9)
	pin[4] = 1
	in, err := gibbs.NewInstance(spec, pin)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range MultiNames() {
		t.Run(name, func(t *testing.T) {
			var engines [2]MultiChain
			for i, chains := range []int{0, 1} {
				s, err := Create(name, in, Options{Chains: chains, Seed: 9})
				if err != nil {
					t.Fatalf("Create(Chains: %d) = %v", chains, err)
				}
				m, ok := s.(MultiChain)
				if !ok {
					t.Fatalf("Create(Chains: %d) built %T, not a MultiChain", chains, s)
				}
				if m.Chains() != 1 {
					t.Fatalf("Create(Chains: %d).Chains() = %d, want 1", chains, m.Chains())
				}
				engines[i] = m
			}
			for chunk := 0; chunk < 4; chunk++ {
				for _, m := range engines {
					if err := m.Run(7); err != nil {
						t.Fatal(err)
					}
				}
				a, b := engines[0].State(), engines[1].State()
				if !a.Equal(b) {
					t.Fatalf("chunk %d: Chains: 0 at %v, Chains: 1 at %v", chunk, a, b)
				}
			}
			if r0, r1 := engines[0].Rounds(), engines[1].Rounds(); r0 != 28 || r1 != 28 {
				t.Errorf("Rounds() = %d, %d, want 28", r0, r1)
			}
		})
	}
}

// TestRegisterNeedsExactlyOneConstructor pins the registry rule: a
// dynamic registers either its batched engine or, when it has none, a
// single-chain constructor — never both, never neither.
func TestRegisterNeedsExactlyOneConstructor(t *testing.T) {
	newSingle := func(*gibbs.Instance, int64) (Sampler, error) { return nil, nil }
	newBatch := func(*gibbs.Instance, int, int64) (MultiChain, error) { return nil, nil }
	sweep := func(*gibbs.Instance) int { return 1 }
	for _, info := range []Info{
		{Name: "test-both", New: newSingle, NewBatch: newBatch, SweepRounds: sweep},
		{Name: "test-neither", SweepRounds: sweep},
	} {
		t.Run(info.Name, func(t *testing.T) {
			defer func() {
				regMu.Lock()
				delete(registry, info.Name)
				regMu.Unlock()
			}()
			defer func() {
				if recover() == nil {
					t.Errorf("Register accepted %q", info.Name)
				}
			}()
			Register(info)
		})
	}
}

func TestSweepRoundsPerDynamic(t *testing.T) {
	spec, err := model.Hardcore(graph.Cycle(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"glauber": 8, "luby": 3, "metropolis": 1, "chromatic": 1}
	for name, w := range want {
		got, err := SweepRounds(name, in)
		if err != nil || got != w {
			t.Errorf("SweepRounds(%q) = %d, %v; want %d", name, got, err, w)
		}
	}
}

// TestEveryDynamicMatchesExact runs each registered dynamic through the
// uniform interface on a hardcore cycle and pins its output distribution
// to the brute-force referee. This is the registry-level analogue of the
// per-engine TV tests in internal/psample.
func TestEveryDynamicMatchesExact(t *testing.T) {
	spec, err := model.Hardcore(graph.Cycle(6), 1.2)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := exact.JointDistribution(in)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 4000
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s, err := Create(name, in, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			sweep, err := SweepRounds(name, in)
			if err != nil {
				t.Fatal(err)
			}
			emp := dist.NewEmpirical(in.N())
			for i := 0; i < trials; i++ {
				if err := s.Reset(int64(2000 + i)); err != nil {
					t.Fatal(err)
				}
				if err := s.Run(40 * sweep); err != nil {
					t.Fatal(err)
				}
				emp.Observe(s.State())
			}
			got, err := emp.Joint()
			if err != nil {
				t.Fatal(err)
			}
			tv, err := dist.TVJoint(truth, got)
			if err != nil {
				t.Fatal(err)
			}
			tol := 2.5 * dist.ExpectedTVNoise(truth.Len(), trials)
			if tv > tol {
				t.Errorf("TV vs exact = %v > envelope %v", tv, tol)
			}
			if s.Rounds() != 40*sweep {
				t.Errorf("Rounds() = %d, want %d", s.Rounds(), 40*sweep)
			}
		})
	}
}

// TestBatchMatchesExact drives B chains at once and pins the pooled
// output distribution: chains draw from disjoint parts of the worker RNG
// streams, so all B final states of one run are independent samples.
func TestBatchMatchesExact(t *testing.T) {
	type specCase struct {
		name string
		spec *gibbs.Spec
		err  error
	}
	hc, hcErr := model.Hardcore(graph.Cycle(6), 1.2)
	is, isErr := model.Ising(graph.Cycle(6), 0.5, 0.8)
	col, colErr := model.Coloring(graph.Path(3), 4)
	cases := []specCase{
		{"hardcore", hc, hcErr},
		{"ising", is, isErr},
		{"coloring", col, colErr},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.err != nil {
				t.Fatal(c.err)
			}
			in, err := gibbs.NewInstance(c.spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := exact.JointDistribution(in)
			if err != nil {
				t.Fatal(err)
			}
			r, err := psample.NewRules(in)
			if err != nil {
				t.Fatal(err)
			}
			const B, runs = 16, 400
			b, err := NewBatch(r, B, 1)
			if err != nil {
				t.Fatal(err)
			}
			emp := dist.NewEmpirical(in.N())
			for i := 0; i < runs; i++ {
				if err := b.Reset(int64(3000 + i)); err != nil {
					t.Fatal(err)
				}
				if err := b.Run(40); err != nil {
					t.Fatal(err)
				}
				for ch := 0; ch < B; ch++ {
					emp.Observe(b.Chain(ch))
				}
			}
			got, err := emp.Joint()
			if err != nil {
				t.Fatal(err)
			}
			tv, err := dist.TVJoint(truth, got)
			if err != nil {
				t.Fatal(err)
			}
			tol := 2.5 * dist.ExpectedTVNoise(truth.Len(), B*runs)
			if tv > tol {
				t.Errorf("TV vs exact = %v > envelope %v", tv, tol)
			}
		})
	}
}

// TestBatchForcedWorkers forces a multi-worker pool on an instance small
// enough that the default heuristic would run inline, so the
// chains×blocks partition and its barriers execute under the race
// detector, and checks feasibility and pinning of every chain throughout.
func TestBatchForcedWorkers(t *testing.T) {
	spec, err := model.Hardcore(graph.Cycle(7), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pin := dist.NewConfig(7)
	pin[2] = model.Out
	in, err := gibbs.NewInstance(spec, pin)
	if err != nil {
		t.Fatal(err)
	}
	r, err := psample.NewRules(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3} {
		for _, B := range []int{1, 5, 33} {
			b, err := NewBatch(r, B, 17)
			if err != nil {
				t.Fatal(err)
			}
			b.SetWorkers(workers)
			for batch := 0; batch < 6; batch++ {
				if err := b.Run(4); err != nil {
					t.Fatal(err)
				}
				for ch := 0; ch < B; ch++ {
					cfg := b.Chain(ch)
					if cfg[2] != model.Out {
						t.Fatalf("workers=%d B=%d chain %d: pinning violated: %v", workers, B, ch, cfg)
					}
					w, err := spec.Weight(cfg)
					if err != nil || w <= 0 {
						t.Fatalf("workers=%d B=%d chain %d: infeasible %v (w=%v err=%v)", workers, B, ch, cfg, w, err)
					}
				}
			}
			if b.Rounds() != 24 {
				t.Errorf("Rounds() = %d, want 24", b.Rounds())
			}
		}
	}
}

// TestBatchChainsDecorrelated checks that distinct chains actually evolve
// independently: after a few sweeps on a large-entropy instance the B
// chains must not all agree (they start identical, so any RNG-stream
// aliasing across chains would keep them in lockstep).
func TestBatchChainsDecorrelated(t *testing.T) {
	spec, err := model.Ising(graph.Cycle(12), 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := psample.NewRules(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(r, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(10); err != nil {
		t.Fatal(err)
	}
	first := b.Chain(0)
	distinct := false
	for ch := 1; ch < b.Chains(); ch++ {
		if !b.Chain(ch).Equal(first) {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Error("all 8 chains identical after 10 sweeps — chain randomness is aliased")
	}
}

func TestBatchRejectsBadChainCount(t *testing.T) {
	spec, err := model.Hardcore(graph.Path(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := psample.NewRules(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatch(r, 0, 1); err == nil {
		t.Error("0 chains accepted")
	}
}

// TestBatchFullyPinned checks the degenerate schedule: with every vertex
// pinned there are no stages and sweeps are counted no-ops.
func TestBatchFullyPinned(t *testing.T) {
	spec, err := model.Hardcore(graph.Path(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, dist.Config{model.Out, model.Out})
	if err != nil {
		t.Fatal(err)
	}
	r, err := psample.NewRules(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(r, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(5); err != nil {
		t.Fatal(err)
	}
	if b.Rounds() != 5 {
		t.Errorf("Rounds() = %d, want 5", b.Rounds())
	}
	if cfg := b.Chain(1); cfg[0] != model.Out || cfg[1] != model.Out {
		t.Errorf("pinned state moved: %v", cfg)
	}
}
