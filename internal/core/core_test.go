package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/decay"
	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/slocal"
)

func hardcoreInstance(t testing.TB, g *graph.Graph, lambda float64, pinned dist.Config) *gibbs.Instance {
	t.Helper()
	s, err := model.Hardcore(g, lambda)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(s, pinned)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func sawOracle(t testing.TB, g *graph.Graph, lambda float64) *DecayOracle {
	t.Helper()
	est, err := decay.NewHardcoreSAW(g, lambda)
	if err != nil {
		t.Fatal(err)
	}
	rate := model.HardcoreDecayRate(lambda, g.MaxDegree())
	if rate >= 1 {
		t.Fatalf("test model not in uniqueness regime: λ=%v Δ=%d", lambda, g.MaxDegree())
	}
	return &DecayOracle{Est: est, Rate: rate, N: g.N()}
}

func TestDecayOracleAccuracy(t *testing.T) {
	g := graph.Cycle(10)
	lambda := 1.0
	in := hardcoreInstance(t, g, lambda, nil)
	o := sawOracle(t, g, lambda)
	for _, delta := range []float64{0.1, 0.01, 1e-4} {
		got, radius, err := o.Marginal(in, 0, delta)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exact.Marginal(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		tv, _ := dist.TV(got, want)
		if tv > delta {
			t.Errorf("delta=%v: error %v exceeds bound (radius %d)", delta, tv, radius)
		}
	}
}

func TestDecayOracleRadiusGrowsWithAccuracy(t *testing.T) {
	g := graph.Cycle(10)
	o := sawOracle(t, g, 1.0)
	in := hardcoreInstance(t, g, 1.0, nil)
	_, r1, err := o.Marginal(in, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := o.Marginal(in, 0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if r2 <= r1 {
		t.Errorf("radius should grow: %d vs %d", r1, r2)
	}
}

func TestSequentialSampleExactOracle(t *testing.T) {
	// With the exact oracle the sequential sampler is a perfect sampler;
	// verify its empirical joint distribution against ground truth.
	g := graph.Cycle(5)
	in := hardcoreInstance(t, g, 1.5, nil)
	truth, err := exact.JointDistribution(in)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	emp := dist.NewEmpirical(5)
	const trials = 30000
	order := slocal.IdentityOrder(5)
	for i := 0; i < trials; i++ {
		cfg, _, err := SequentialSample(in, &ExactOracle{}, order, 0.001, rng)
		if err != nil {
			t.Fatal(err)
		}
		emp.Observe(cfg)
	}
	got, err := emp.Joint()
	if err != nil {
		t.Fatal(err)
	}
	tv, err := dist.TVJoint(truth, got)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.02 {
		t.Errorf("sequential sampler TV = %v", tv)
	}
}

func TestSequentialSampleAllOrders(t *testing.T) {
	// Theorem 3.2 holds for every ordering; check a marginal statistic on
	// several adversarial orderings.
	g := graph.Path(6)
	in := hardcoreInstance(t, g, 2, nil)
	truthMarg, err := exact.Marginal(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	orders := [][]int{
		slocal.IdentityOrder(6),
		slocal.ReverseOrder(6),
		slocal.RandomOrder(6, rng),
		slocal.BoundaryFirstOrder(g),
	}
	const trials = 20000
	for oi, order := range orders {
		hits := 0
		for i := 0; i < trials; i++ {
			cfg, _, err := SequentialSample(in, &ExactOracle{}, order, 0.001, rng)
			if err != nil {
				t.Fatal(err)
			}
			if cfg[3] == model.In {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-truthMarg[model.In]) > 0.02 {
			t.Errorf("order %d: P[v3 occupied] = %v, want %v", oi, got, truthMarg[model.In])
		}
	}
}

func TestSequentialSampleDecayOracleTV(t *testing.T) {
	// With the SAW decay oracle at error δ the joint output must be within
	// δ (plus sampling noise) of the target.
	g := graph.Cycle(6)
	lambda := 0.8
	in := hardcoreInstance(t, g, lambda, nil)
	o := sawOracle(t, g, lambda)
	truth, err := exact.JointDistribution(in)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	emp := dist.NewEmpirical(6)
	const trials = 30000
	order := slocal.IdentityOrder(6)
	for i := 0; i < trials; i++ {
		cfg, _, err := SequentialSample(in, o, order, 0.01, rng)
		if err != nil {
			t.Fatal(err)
		}
		emp.Observe(cfg)
	}
	got, err := emp.Joint()
	if err != nil {
		t.Fatal(err)
	}
	tv, err := dist.TVJoint(truth, got)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.01+0.02 {
		t.Errorf("decay-oracle sampler TV = %v", tv)
	}
}

func TestSequentialSampleRespectsPinning(t *testing.T) {
	g := graph.Path(4)
	pin := dist.Config{1, dist.Unset, dist.Unset, 0}
	in := hardcoreInstance(t, g, 1, pin)
	rng := rand.New(rand.NewSource(64))
	cfg, _, err := SequentialSample(in, &ExactOracle{}, slocal.IdentityOrder(4), 0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	if cfg[0] != 1 || cfg[3] != 0 {
		t.Errorf("pinning violated: %v", cfg)
	}
	if cfg[1] == 1 {
		t.Errorf("neighbor of pinned occupied vertex occupied: %v", cfg)
	}
}

func TestSequentialSampleErrors(t *testing.T) {
	g := graph.Path(3)
	in := hardcoreInstance(t, g, 1, nil)
	rng := rand.New(rand.NewSource(65))
	if _, _, err := SequentialSample(in, nil, slocal.IdentityOrder(3), 0.1, rng); err == nil {
		t.Error("nil oracle accepted")
	}
	if _, _, err := SequentialSample(in, &ExactOracle{}, []int{0, 0, 1}, 0.1, rng); err == nil {
		t.Error("bad order accepted")
	}
	if _, _, err := SequentialSample(in, &ExactOracle{}, slocal.IdentityOrder(3), 0, rng); err == nil {
		t.Error("zero delta accepted")
	}
}

// TestErrorBoundsRejectNonFinite pins the typed rejection of unusable
// error bounds: NaN compares false against every guard, so a "≤ 0" check
// alone lets it through to the oracle. A sampling δ must be finite and
// positive; an oracle ε of 0 or less still selects the default, but NaN
// and ±Inf are a *BoundError.
func TestErrorBoundsRejectNonFinite(t *testing.T) {
	g := graph.Path(3)
	in := hardcoreInstance(t, g, 1, nil)
	rng := rand.New(rand.NewSource(67))
	o := &ExactOracle{}
	isBound := func(err error) bool {
		var be *BoundError
		return errors.As(err, &be)
	}
	for _, delta := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.5} {
		if _, _, err := SequentialSample(in, o, slocal.IdentityOrder(3), delta, rng); !isBound(err) {
			t.Errorf("SequentialSample δ=%v: err = %v, want *BoundError", delta, err)
		}
		if _, err := SampleLOCAL(in, sawOracle(t, g, 1), delta, rng); !isBound(err) {
			t.Errorf("SampleLOCAL δ=%v: err = %v, want *BoundError", delta, err)
		}
	}
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := LocalJVV(in, o, JVVConfig{Eps: eps}, rng); !isBound(err) {
			t.Errorf("LocalJVV ε=%v: err = %v, want *BoundError", eps, err)
		}
		if _, _, err := JVVLOCAL(in, o, JVVConfig{Eps: eps}, rng); !isBound(err) {
			t.Errorf("JVVLOCAL ε=%v: err = %v, want *BoundError", eps, err)
		}
		if _, err := EstimateLogPartition(in, o, nil, eps); !isBound(err) {
			t.Errorf("EstimateLogPartition ε=%v: err = %v, want *BoundError", eps, err)
		}
	}
	// ε = 0 keeps selecting the documented default.
	if _, err := EstimateLogPartition(in, o, nil, 0); err != nil {
		t.Errorf("EstimateLogPartition ε=0: %v", err)
	}
	if _, err := LocalJVV(in, o, JVVConfig{}, rng); err != nil {
		t.Errorf("LocalJVV default ε: %v", err)
	}
}

func TestSampleLOCALEndToEnd(t *testing.T) {
	// Theorem 3.2 end to end: decomposition + chromatic schedule + scan.
	g := graph.Cycle(12)
	lambda := 0.9
	in := hardcoreInstance(t, g, lambda, nil)
	o := sawOracle(t, g, lambda)
	rng := rand.New(rand.NewSource(66))
	res, err := SampleLOCAL(in, o, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Config.IsTotal() {
		t.Fatal("partial output")
	}
	w, err := in.Spec.Weight(res.Config)
	if err != nil || w <= 0 {
		t.Errorf("infeasible sample: w=%v err=%v", w, err)
	}
	if res.Rounds <= 0 {
		t.Errorf("rounds = %d", res.Rounds)
	}
	// Statistical check on a marginal.
	truth, err := exact.Marginal(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	hits, total := 0, 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		r, err := SampleLOCAL(in, o, 0.05, rng)
		if err != nil {
			t.Fatal(err)
		}
		if r.FailureCount() > 0 {
			continue
		}
		total++
		if r.Config[0] == model.In {
			hits++
		}
	}
	got := float64(hits) / float64(total)
	if math.Abs(got-truth[model.In]) > 0.03 {
		t.Errorf("LOCAL sampler marginal = %v, want %v", got, truth[model.In])
	}
}

func TestInferenceFromSampling(t *testing.T) {
	// Theorem 3.4: marginals reconstructed from the sampler.
	g := graph.Cycle(6)
	lambda := 1.2
	in := hardcoreInstance(t, g, lambda, nil)
	o := sawOracle(t, g, lambda)
	rng := rand.New(rand.NewSource(67))
	sample := func(r *rand.Rand) (*SampleResult, error) {
		cfg, rad, err := SequentialSample(in, o, slocal.IdentityOrder(6), 0.01, r)
		if err != nil {
			return nil, err
		}
		return &SampleResult{Config: cfg, Failed: make([]bool, 6), Rounds: rad}, nil
	}
	got, err := InferenceFromSampling(in, sample, 2, 20000, rng)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.Marginal(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	tv, _ := dist.TV(got, want)
	if tv > 0.03 {
		t.Errorf("reconstructed marginal off by %v", tv)
	}
	if _, err := InferenceFromSampling(in, sample, 2, 0, rng); err == nil {
		t.Error("zero runs accepted")
	}
}

func TestNoisyOracleInjectsError(t *testing.T) {
	g := graph.Cycle(6)
	in := hardcoreInstance(t, g, 1, nil)
	clean := &ExactOracle{}
	noisy := &NoisyOracle{Inner: clean, Noise: 0.2}
	a, _, err := clean.Marginal(in, 0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := noisy.Marginal(in, 0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	tv, _ := dist.TV(a, b)
	if tv == 0 {
		t.Error("noise had no effect")
	}
	if err := b.Validate(1e-9); err != nil {
		t.Errorf("noisy marginal not a distribution: %v", err)
	}
}
