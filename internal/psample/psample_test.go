package psample

// psample_test.go validates the single-chain engines (the batched engines
// at B = 1) end to end: they must reproduce the exact Gibbs distribution
// (TV distance against internal/exact within the dist.ExpectedTVNoise
// envelope) for every internal/model builder, and stay feasible and
// respect pinning, also with one chain split across workers.

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
)

// tvCase is one model-builder validation instance: small enough for the
// brute-force referee, parameterized inside the ergodic regime of both
// dynamics (for colorings this means q ≥ Δ+2 so single-site moves are
// never frozen).
type tvCase struct {
	name   string
	in     *gibbs.Instance
	rounds int
	trials int
}

func buildTVCases(t *testing.T) []tvCase {
	t.Helper()
	var cases []tvCase
	add := func(name string, spec *gibbs.Spec, err error, rounds, trials int) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		in, err := gibbs.NewInstance(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tvCase{name: name, in: in, rounds: rounds, trials: trials})
	}

	hc, err := model.Hardcore(graph.Cycle(6), 1.2)
	add("hardcore", hc, err, 40, 6000)

	is, err := model.Ising(graph.Cycle(6), 0.5, 0.8)
	add("ising", is, err, 40, 6000)

	col, err := model.Coloring(graph.Path(3), 4)
	add("coloring", col, err, 40, 6000)

	lc, err := model.ListColoring(graph.Path(3), 4, [][]int{{0, 1, 2}, {1, 2, 3}, {0, 1, 3}})
	add("list-coloring", lc, err, 40, 6000)

	m, err := model.Matching(graph.Path(5), 1.3)
	if err != nil {
		t.Fatal(err)
	}
	add("matching", m.Spec, nil, 40, 6000)

	h := graph.NewHypergraph(6)
	for _, e := range [][]int{{0, 1, 2}, {2, 3, 4}, {3, 4, 5}} {
		if err := h.AddEdge(e...); err != nil {
			t.Fatal(err)
		}
	}
	hm, err := model.HypergraphMatching(h, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	add("hypergraph-matching", hm.Spec, nil, 40, 6000)

	return cases
}

// sampler abstracts the two engines for the shared TV harness.
type sampler interface {
	Reset(seed int64) error
	Run(rounds int) error
	State() dist.Config
}

func checkTV(t *testing.T, in *gibbs.Instance, s sampler, rounds, trials int) {
	t.Helper()
	truth, err := exact.JointDistribution(in)
	if err != nil {
		t.Fatal(err)
	}
	emp := dist.NewEmpirical(in.N())
	for i := 0; i < trials; i++ {
		if err := s.Reset(int64(1000 + i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(rounds); err != nil {
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
		t.Errorf("TV vs exact = %v > envelope %v (support %d, trials %d)", tv, tol, truth.Len(), trials)
	}
}

// TestLubyGlauberMatchesExact pins the single-chain LubyGlauber output
// distribution to the brute-force referee for every model builder.
func TestLubyGlauberMatchesExact(t *testing.T) {
	for _, c := range buildTVCases(t) {
		t.Run(c.name, func(t *testing.T) {
			r, err := NewRules(c.in)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewBatchLubyGlauber(r, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkTV(t, c.in, s, c.rounds, c.trials)
			if s.Updates() == 0 {
				t.Error("no heat-bath updates recorded")
			}
		})
	}
}

// TestLocalMetropolisMatchesExact pins the single-chain LocalMetropolis
// output distribution to the brute-force referee for every model builder.
func TestLocalMetropolisMatchesExact(t *testing.T) {
	for _, c := range buildTVCases(t) {
		t.Run(c.name, func(t *testing.T) {
			r, err := NewRules(c.in)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewBatchLocalMetropolis(r, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			// LocalMetropolis pays per-round acceptance losses; give it a
			// longer schedule than LubyGlauber.
			checkTV(t, c.in, s, 2*c.rounds, c.trials)
			if s.Accepts() == 0 {
				t.Error("no accepted proposals recorded")
			}
		})
	}
}

// TestShardedRespectsPinning checks that pinned vertices never move under
// either single-chain engine.
func TestShardedRespectsPinning(t *testing.T) {
	spec, err := model.Hardcore(graph.Path(6), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pin := dist.Config{model.In, dist.Unset, dist.Unset, dist.Unset, dist.Unset, model.Out}
	in, err := gibbs.NewInstance(spec, pin)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRules(in)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewBatchLubyGlauber(r, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := NewBatchLocalMetropolis(r, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sampler{lg, lm} {
		if err := s.Run(60); err != nil {
			t.Fatal(err)
		}
		cfg := s.State()
		if cfg[0] != model.In || cfg[5] != model.Out {
			t.Errorf("pinning violated: %v", cfg)
		}
		w, err := spec.Weight(cfg)
		if err != nil || w <= 0 {
			t.Errorf("infeasible state %v (w=%v err=%v)", cfg, w, err)
		}
	}
}

// TestShardedMultiWorker exercises the worker-pool path (barriers, block
// partition, per-worker RNG streams) with one chain split across workers
// by vertex blocks on a larger instance, and checks the chain stays
// feasible throughout. The race-detector CI job makes this a
// synchronization test as much as a correctness one.
func TestShardedMultiWorker(t *testing.T) {
	g := graph.Torus(8, 8)
	spec, err := model.Hardcore(g, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRules(in)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewBatchLubyGlauber(r, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	lg.SetWorkers(4)
	lm, err := NewBatchLocalMetropolis(r, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	lm.SetWorkers(4)
	for _, s := range []sampler{lg, lm} {
		for i := 0; i < 10; i++ {
			if err := s.Run(5); err != nil {
				t.Fatal(err)
			}
			w, err := spec.Weight(s.State())
			if err != nil || w <= 0 {
				t.Fatalf("infeasible state after batch %d (w=%v err=%v)", i, w, err)
			}
		}
	}
	if lg.Rounds() != 50 || lm.Rounds() != 50 {
		t.Errorf("rounds = %d, %d, want 50", lg.Rounds(), lm.Rounds())
	}
}

// TestShardedForcedWorkersSmall forces a multi-worker pool on one chain of
// an instance so small that DefaultWorkers would collapse it to the inline
// 1-worker path, so the B = 1 vertex-block partition and its barriers run
// under the race detector even for tiny cases. Correctness is checked by feasibility and
// pinning invariants after every batch.
func TestShardedForcedWorkersSmall(t *testing.T) {
	spec, err := model.Hardcore(graph.Cycle(7), 1.1)
	if err != nil {
		t.Fatal(err)
	}
	pin := dist.NewConfig(7)
	pin[3] = model.Out
	in, err := gibbs.NewInstance(spec, pin)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRules(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5} {
		lg, err := NewBatchLubyGlauber(r, 1, 42)
		if err != nil {
			t.Fatal(err)
		}
		lg.SetWorkers(workers)
		lm, err := NewBatchLocalMetropolis(r, 1, 42)
		if err != nil {
			t.Fatal(err)
		}
		lm.SetWorkers(workers)
		for _, s := range []sampler{lg, lm} {
			for batch := 0; batch < 8; batch++ {
				if err := s.Run(10); err != nil {
					t.Fatal(err)
				}
				cfg := s.State()
				if cfg[3] != model.Out {
					t.Fatalf("workers=%d: pinning violated: %v", workers, cfg)
				}
				w, err := spec.Weight(cfg)
				if err != nil || w <= 0 {
					t.Fatalf("workers=%d: infeasible state %v (w=%v err=%v)", workers, cfg, w, err)
				}
			}
		}
	}
}

// TestRulesRejectsWideFilterFactor pins the 1<<k overflow fix: a factor
// with ≥ 63 free scope vertices must be rejected by NewRules with a
// descriptive error instead of silently computing a garbage filter scale.
func TestRulesRejectsWideFilterFactor(t *testing.T) {
	const k = 63
	g := graph.Complete(k)
	scope := make([]int, k)
	for i := range scope {
		scope[i] = i
	}
	f := []gibbs.Factor{{
		Scope: scope,
		Eval:  func([]int) float64 { return 1 },
		Name:  "wide",
	}}
	spec, err := gibbs.NewSpec(g, 2, f)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewRules(in)
	if err == nil {
		t.Fatal("63-free-vertex filter factor accepted")
	}
	if !strings.Contains(err.Error(), "overflow") {
		t.Errorf("error %q does not describe the overflow", err)
	}
}

// TestRulesRejectsNonCliqueScope checks the locality precondition both
// harnesses rely on.
func TestRulesRejectsNonCliqueScope(t *testing.T) {
	g := graph.Path(3) // 0-1-2; 0 and 2 are not adjacent
	f := []gibbs.Factor{{Scope: []int{0, 2}, Table: []float64{1, 1, 1, 0.5}, Name: "nonlocal"}}
	spec, err := gibbs.NewSpec(g, 2, f)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRules(in); err == nil {
		t.Fatal("non-clique scope accepted")
	}
}

// TestProposalMatchesConditional sanity-checks the proposal construction:
// for an isolated free vertex the proposal is exactly its conditional
// marginal, so one LocalMetropolis round samples it perfectly.
func TestProposalMatchesConditional(t *testing.T) {
	g := graph.New(1)
	spec, err := model.Hardcore(g, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRules(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.Marginal(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < r.Q(); x++ {
		if diff := r.proposal[0][x] - want[x]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("proposal %v != marginal %v", r.proposal[0], want)
		}
	}
	rng := dist.NewXoshiro(1, 0)
	if x := r.Propose(0, &rng); x < 0 || x >= r.Q() {
		t.Fatalf("proposal symbol %d out of range", x)
	}
}
