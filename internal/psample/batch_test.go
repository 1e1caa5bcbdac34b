package psample

// batch_test.go validates the batched multi-chain engines end to end:
// at B = 1 with a single worker both batched engines must reproduce the
// serial references of oracle_test.go symbol for symbol (same seed, same
// RNG consumption order, bit-identical kernels), the pooled output of all B
// chains must match the exact Gibbs distribution for every model builder,
// pinning must hold in every chain, and the forced multi-worker pool must
// stay feasible under the race detector.

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
)

// multiChain abstracts the two batched engines for the shared harnesses.
type multiChain interface {
	Reset(seed int64) error
	Run(rounds int) error
	State() dist.Config
	Chains() int
	Chain(c int) dist.Config
}

// TestBatchLubyGlauberMatchesSingleChain pins the B = 1 trajectory of the
// batched engine to the serial reference, chunk by chunk. The seed policy
// that makes this exact: the engine derives per-worker streams as
// dist.NewXoshiro(seed, worker), so on one worker it runs the reference's
// single stream; stage 1 draws one uniform per free vertex in increasing
// order on both sides, and stage 2 heat-baths the winners in increasing vertex order
// with one uniform each against bit-identical conditional weights (the
// subset kernel's identity with the single-cell path is pinned in
// internal/gibbs). Any divergence in kernel order or draw semantics shows
// up here as a symbol mismatch.
func TestBatchLubyGlauberMatchesSingleChain(t *testing.T) {
	for _, c := range buildTVCases(t) {
		t.Run(c.name, func(t *testing.T) {
			r, err := NewRules(c.in)
			if err != nil {
				t.Fatal(err)
			}
			single, err := newOracleLuby(r, 42)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := NewBatchLubyGlauber(r, 1, 42)
			if err != nil {
				t.Fatal(err)
			}
			batch.SetWorkers(1)
			for chunk := 0; chunk < 5; chunk++ {
				if err := single.Run(9); err != nil {
					t.Fatal(err)
				}
				if err := batch.Run(9); err != nil {
					t.Fatal(err)
				}
				ss, bs := single.State(), batch.State()
				for v := range ss {
					if ss[v] != bs[v] {
						t.Fatalf("chunk %d vertex %d: single %d, batched %d\nsingle  %v\nbatched %v",
							chunk, v, ss[v], bs[v], ss, bs)
					}
				}
			}
			if single.Updates() != batch.Updates() {
				t.Errorf("updates diverged: single %d, batched %d", single.Updates(), batch.Updates())
			}
			if single.Updates() == 0 {
				t.Error("no heat-bath updates recorded")
			}
		})
	}
}

// TestBatchLocalMetropolisMatchesSingleChain is the LocalMetropolis B = 1
// agreement test against the serial reference: one proposal draw per free vertex in increasing order,
// then one filter coin per acceptance factor in factor order (the batched
// filter weight is bit-identical to the single-cell filter, pinned in
// internal/gibbs), and a deterministic adoption stage.
func TestBatchLocalMetropolisMatchesSingleChain(t *testing.T) {
	for _, c := range buildTVCases(t) {
		t.Run(c.name, func(t *testing.T) {
			r, err := NewRules(c.in)
			if err != nil {
				t.Fatal(err)
			}
			single, err := newOracleMetropolis(r, 42)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := NewBatchLocalMetropolis(r, 1, 42)
			if err != nil {
				t.Fatal(err)
			}
			batch.SetWorkers(1)
			for chunk := 0; chunk < 5; chunk++ {
				if err := single.Run(9); err != nil {
					t.Fatal(err)
				}
				if err := batch.Run(9); err != nil {
					t.Fatal(err)
				}
				ss, bs := single.State(), batch.State()
				for v := range ss {
					if ss[v] != bs[v] {
						t.Fatalf("chunk %d vertex %d: single %d, batched %d\nsingle  %v\nbatched %v",
							chunk, v, ss[v], bs[v], ss, bs)
					}
				}
			}
			if single.Accepts() != batch.Accepts() {
				t.Errorf("accepts diverged: single %d, batched %d", single.Accepts(), batch.Accepts())
			}
			if single.Accepts() == 0 {
				t.Error("no accepted proposals recorded")
			}
		})
	}
}

// checkTVMulti is the multi-chain TV harness: every trial contributes all
// B final chain states (the chains consume disjoint draws of the worker
// streams, so they are independent samples), and the noise envelope is
// sized to the pooled observation count.
func checkTVMulti(t *testing.T, in *gibbs.Instance, s multiChain, rounds, trials int) {
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
		for c := 0; c < s.Chains(); c++ {
			emp.Observe(s.Chain(c))
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
	n := trials * s.Chains()
	tol := 2.5 * dist.ExpectedTVNoise(truth.Len(), n)
	if tv > tol {
		t.Errorf("TV vs exact = %v > envelope %v (support %d, observations %d)", tv, tol, truth.Len(), n)
	}
}

// TestBatchLubyGlauberMatchesExact pins the pooled B = 16 output of the
// batched LubyGlauber engine to the brute-force referee for every model
// builder (hypergraph matching drives the general, non-pairwise subset
// kernel path).
func TestBatchLubyGlauberMatchesExact(t *testing.T) {
	const chains = 16
	for _, c := range buildTVCases(t) {
		t.Run(c.name, func(t *testing.T) {
			r, err := NewRules(c.in)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewBatchLubyGlauber(r, chains, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkTVMulti(t, c.in, s, c.rounds, c.trials/chains)
			if s.Updates() == 0 {
				t.Error("no heat-bath updates recorded")
			}
		})
	}
}

// TestBatchLocalMetropolisMatchesExact pins the pooled B = 16 output of
// the batched LocalMetropolis engine to the brute-force referee for every
// model builder (the arity-3 hypergraph-matching factors drive the
// batched filter's mask walk beyond the pairwise case).
func TestBatchLocalMetropolisMatchesExact(t *testing.T) {
	const chains = 16
	for _, c := range buildTVCases(t) {
		t.Run(c.name, func(t *testing.T) {
			r, err := NewRules(c.in)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewBatchLocalMetropolis(r, chains, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Same longer schedule as the B = 1 test: per-round
			// acceptance losses.
			checkTVMulti(t, c.in, s, 2*c.rounds, c.trials/chains)
			if s.Accepts() == 0 {
				t.Error("no accepted proposals recorded")
			}
		})
	}
}

// TestBatchRespectsPinning checks that pinned vertices never move in any
// chain of either batched engine.
func TestBatchRespectsPinning(t *testing.T) {
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
	lg, err := NewBatchLubyGlauber(r, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := NewBatchLocalMetropolis(r, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []multiChain{lg, lm} {
		if err := s.Run(60); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < s.Chains(); c++ {
			cfg := s.Chain(c)
			if cfg[0] != model.In || cfg[5] != model.Out {
				t.Errorf("chain %d pinning violated: %v", c, cfg)
			}
			w, err := spec.Weight(cfg)
			if err != nil || w <= 0 {
				t.Errorf("chain %d infeasible state %v (w=%v err=%v)", c, cfg, w, err)
			}
		}
	}
}

// TestBatchMultiWorker exercises the chain-block-affine worker partition
// (barriers, groups-outermost item grid, per-worker RNG streams) of both
// batched engines on a larger instance at B = 32 with a forced pool, and
// checks every chain stays feasible throughout. The race-detector CI job
// makes this a synchronization test as much as a correctness one.
func TestBatchMultiWorker(t *testing.T) {
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
	lg, err := NewBatchLubyGlauber(r, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	lg.SetWorkers(4)
	lm, err := NewBatchLocalMetropolis(r, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	lm.SetWorkers(4)
	for _, s := range []multiChain{lg, lm} {
		for i := 0; i < 6; i++ {
			if err := s.Run(5); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < s.Chains(); c++ {
				cfg := s.Chain(c)
				w, err := spec.Weight(cfg)
				if err != nil || w <= 0 {
					t.Fatalf("chain %d infeasible after %d rounds (w=%v err=%v)", c, (i+1)*5, w, err)
				}
			}
		}
	}
}

// TestBatchEnginesFullyPinned checks that a fully pinned instance is a
// no-op round for both batched engines (the empty free list short-circuits
// before any kernel runs).
func TestBatchEnginesFullyPinned(t *testing.T) {
	spec, err := model.Hardcore(graph.Path(2), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pin := dist.Config{model.Out, model.In}
	in, err := gibbs.NewInstance(spec, pin)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRules(in)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewBatchLubyGlauber(r, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := NewBatchLocalMetropolis(r, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []multiChain{lg, lm} {
		if err := s.Run(10); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < s.Chains(); c++ {
			cfg := s.Chain(c)
			if cfg[0] != model.Out || cfg[1] != model.In {
				t.Errorf("chain %d moved on a fully pinned instance: %v", c, cfg)
			}
		}
	}
	if lg.Rounds() != 10 || lm.Rounds() != 10 {
		t.Errorf("rounds not counted: luby %d, metropolis %d", lg.Rounds(), lm.Rounds())
	}
}
