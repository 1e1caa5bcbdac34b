package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/netdecomp"
	"repro/internal/slocal"
)

// JVVConfig tunes the local-JVV exact sampler.
type JVVConfig struct {
	// Eps is the multiplicative inference error fed to the oracle; the
	// paper uses 1/n³. Zero selects 1/n³.
	Eps float64
	// BallCompletion selects how pass 3 constructs the bridging
	// configuration σ_i inside B_t(v_i): greedy local completion (valid for
	// locally admissible distributions, the default) or exhaustive ball
	// enumeration (valid for all local Gibbs distributions, exponential in
	// the ball size).
	BallCompletion CompletionMode
	// FullRatio disables the B_{2t} restriction of equation (11) and
	// computes the µ̂ ratio over every scan position. The restriction is
	// exact only for genuinely t-local oracles (all decay oracles are);
	// referee oracles that read the whole graph (ExactOracle) must set
	// FullRatio for the telescoping of Lemma 4.8 to hold.
	FullRatio bool
	// Order optionally fixes the SLOCAL scan order (adversarial input);
	// nil lets the caller-level scheduler decide.
	Order []int
}

// CompletionMode selects the σ_i construction strategy in pass 3.
type CompletionMode int

const (
	// CompleteGreedy extends partial configurations greedily, relying on
	// local admissibility (Definition 2.5).
	CompleteGreedy CompletionMode = iota + 1
	// CompleteEnumerate searches all configurations of the ball interior,
	// the fully general strategy of Claim 4.6.
	CompleteEnumerate
)

// JVVResult reports the outcome of the local-JVV sampler.
type JVVResult struct {
	// Config is the candidate sample Y.
	Config dist.Config
	// Failed[v] is the local rejection indicator F'_v of pass 3.
	Failed []bool
	// GroundState is the feasible configuration σ₀ built in pass 1.
	GroundState dist.Config
	// AcceptProbs records the per-node acceptance probabilities q_{v_i}.
	AcceptProbs []float64
	// Locality is the SLOCAL locality of the three passes combined
	// (Lemma 4.4: t + 2t + 2(3t+ℓ) = O(t)).
	Locality int
	// OracleRadius is the radius t used by the multiplicative oracle.
	OracleRadius int
}

// Accepted reports whether no node rejected.
func (r *JVVResult) Accepted() bool {
	for _, f := range r.Failed {
		if f {
			return false
		}
	}
	return true
}

// ErrGroundState indicates pass 1 failed to construct a feasible ground
// state (the oracle reported no positive symbol).
var ErrGroundState = errors.New("core: JVV ground state construction failed")

// LocalJVV runs the three-pass local rejection sampling algorithm of
// Section 4.2 as an SLOCAL algorithm on the given ordering:
//
//	Pass 1 builds a feasible ground state σ₀ by pinning each vertex to a
//	symbol of positive estimated marginal.
//	Pass 2 samples the candidate Y vertex by vertex from the estimated
//	conditional marginals (so Y ~ µ̂^τ with err(µ̂^τ, µ^τ) ≤ 1/n² by
//	Claim 4.5).
//	Pass 3 walks a bridge σ₀ = σ̃₀, σ̃₁, ..., σ̃_n = Y of feasible
//	configurations, each step changing only the ball B_t(v_i), and accepts
//	at v_i with probability
//
//	    q_{v_i} = (µ̂^τ(σ̃_{i−1}) · w(σ̃_i)) / (µ̂^τ(σ̃_i) · w(σ̃_{i−1})) · e^{−3/n²},
//
//	whose telescoped product cancels every µ̂ term except constants, so
//	Pr[Y = σ ∧ accept] ∝ w(σ): conditioned on acceptance the output is
//	*exactly* µ^τ (Lemma 4.8).
//
// Note on the paper's notation: the paper samples F'_{v_i} = 1 "with
// probability q_{v_i}" while also calling F'_{v_i} = 1 a failure; since
// q_{v_i} ∈ [e^{−5/n²}, 1] is the quantity whose product must be the
// success probability, the intended semantics — implemented here — is that
// v_i accepts with probability q_{v_i} and fails otherwise, giving total
// failure probability 1 − Π q_{v_i} = O(1/n).
func LocalJVV(in *gibbs.Instance, o MultOracle, cfg JVVConfig, rng *rand.Rand) (*JVVResult, error) {
	if o == nil {
		return nil, ErrNoOracle
	}
	n := in.N()
	if n == 0 {
		return &JVVResult{Config: dist.Config{}, Failed: nil}, nil
	}
	eps, err := defaultEps(cfg.Eps, 1/math.Pow(float64(n), 3))
	if err != nil {
		return nil, err
	}
	mode := cfg.BallCompletion
	if mode == 0 {
		mode = CompleteGreedy
	}
	order := cfg.Order
	if order == nil {
		order = slocal.IdentityOrder(n)
	}
	if err := slocal.CheckOrder(n, order); err != nil {
		return nil, err
	}
	ell, err := in.Spec.Locality()
	if err != nil {
		return nil, err
	}
	// Pass 3 evaluates factors in its inner loops; run it on the compiled
	// engine with reusable ratio scratch.
	eng := in.Spec.Compiled()
	scratch := eng.NewScratch()

	res := &JVVResult{
		Failed:      make([]bool, n),
		AcceptProbs: make([]float64, n),
	}
	for i := range res.AcceptProbs {
		res.AcceptProbs[i] = 1
	}

	// Pass 1: ground state σ₀.
	ground := in.Pinned.Clone()
	cur := in
	t := 0
	for _, v := range order {
		if ground[v] != dist.Unset {
			continue
		}
		mu, r, err := o.MarginalMult(cur, v, eps)
		if err != nil {
			return nil, fmt.Errorf("core: JVV pass 1 at %d: %w", v, err)
		}
		if r > t {
			t = r
		}
		c := mu.ArgMax()
		if c < 0 || mu[c] <= 0 {
			return nil, fmt.Errorf("%w: vertex %d", ErrGroundState, v)
		}
		ground[v] = c
		cur, err = cur.Pin(v, c)
		if err != nil {
			return nil, err
		}
	}
	res.GroundState = ground
	res.OracleRadius = t

	// Pass 2: candidate Y.
	y := in.Pinned.Clone()
	cur = in
	for _, v := range order {
		if y[v] != dist.Unset {
			continue
		}
		mu, _, err := o.MarginalMult(cur, v, eps)
		if err != nil {
			return nil, fmt.Errorf("core: JVV pass 2 at %d: %w", v, err)
		}
		if err := oracleSanity(mu, in.Q()); err != nil {
			return nil, err
		}
		x := mu.Sample(rng)
		y[v] = x
		cur, err = cur.Pin(v, x)
		if err != nil {
			return nil, err
		}
	}
	res.Config = y

	// Pass 3: bridge σ̃_{i-1} → σ̃_i and acceptance sampling.
	sigma := ground.Clone()
	damp := math.Exp(-3 / (float64(n) * float64(n)))
	for i, v := range order {
		if in.Pinned[v] != dist.Unset {
			// Pinned vertices agree in every configuration; q = 1.
			continue
		}
		next, err := bridgeStep(in, eng, sigma, y, order, i, t, mode)
		if err != nil {
			return nil, fmt.Errorf("core: JVV pass 3 bridge at %d: %w", v, err)
		}
		q, err := acceptProb(in, eng, scratch, o, sigma, next, order, i, t, eps, damp, cfg.FullRatio)
		if err != nil {
			return nil, fmt.Errorf("core: JVV pass 3 accept at %d: %w", v, err)
		}
		res.AcceptProbs[v] = q
		if rng.Float64() >= q {
			res.Failed[v] = true
		}
		sigma = next
	}
	// Lemma 4.4 locality accounting for the three passes with localities
	// t, t, 3t+ℓ.
	res.Locality = t + 2*t + 2*(3*t+ell)
	return res, nil
}

// bridgeStep constructs σ̃_i from σ̃_{i−1}: a feasible configuration that
// agrees with Y on order[0..i] and with σ̃_{i−1} outside B_t(v_i)
// (invariants (6), (7), (8) of the paper; existence is Claim 4.6).
func bridgeStep(in *gibbs.Instance, eng *gibbs.Compiled, prev, y dist.Config, order []int, i, t int, mode CompletionMode) (dist.Config, error) {
	v := order[i]
	if prev[v] == y[v] {
		// Nothing to change; σ̃_i = σ̃_{i−1} already satisfies the
		// invariants.
		return prev, nil
	}
	g := in.Spec.G
	ball := g.Ball(v, t)
	inBall := make(map[int]bool, len(ball))
	for _, u := range ball {
		inBall[u] = true
	}
	fixedByY := make(map[int]bool, i+1)
	for j := 0; j <= i; j++ {
		fixedByY[order[j]] = true
	}
	// Constraints: outside the ball keep σ̃_{i−1}; inside the ball, pinned
	// vertices keep τ and already-scanned vertices take Y.
	base := dist.NewConfig(in.N())
	for u := 0; u < in.N(); u++ {
		switch {
		case !inBall[u]:
			base[u] = prev[u]
		case in.Pinned[u] != dist.Unset:
			base[u] = in.Pinned[u]
		case fixedByY[u]:
			base[u] = y[u]
		}
	}
	switch mode {
	case CompleteGreedy:
		out, err := eng.GreedyCompletion(base)
		if err != nil {
			return nil, err
		}
		return out, nil
	case CompleteEnumerate:
		return completeByEnumeration(in, eng, base)
	default:
		return nil, fmt.Errorf("core: unknown completion mode %d", mode)
	}
}

// completeByEnumeration finds a positive-weight extension of base by
// exhaustive search over the free variables (the general strategy of Claim
// 4.6; exponential in the number of free ball vertices).
func completeByEnumeration(in *gibbs.Instance, eng *gibbs.Compiled, base dist.Config) (dist.Config, error) {
	free := base.Free()
	q := in.Q()
	cfg := base.Clone()
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(free) {
			w, err := eng.Weight(cfg)
			return err == nil && w > 0
		}
		u := free[k]
		for x := 0; x < q; x++ {
			cfg[u] = x
			if !eng.LocallyFeasibleAt(cfg, u) {
				continue
			}
			if rec(k + 1) {
				return true
			}
		}
		cfg[u] = dist.Unset
		return false
	}
	if !rec(0) {
		return nil, fmt.Errorf("%w: no feasible completion", gibbs.ErrInfeasible)
	}
	return cfg, nil
}

// acceptProb computes q_{v_i} per equation (9), using the B_{2t}(v_i)
// restriction of equation (11) for the µ̂^τ ratio and the ball restriction
// of equation (12) for the weight ratio.
func acceptProb(in *gibbs.Instance, eng *gibbs.Compiled, scratch *gibbs.Scratch, o MultOracle, prev, next dist.Config, order []int, i, t int, eps, damp float64, fullRatio bool) (float64, error) {
	v := order[i]
	if prev.Equal(next) {
		// σ̃_i = σ̃_{i−1}: both ratios are 1.
		return damp, nil
	}
	g := in.Spec.G
	ball2t := g.Ball(v, 2*t)
	in2t := make(map[int]bool, len(ball2t))
	for _, u := range ball2t {
		in2t[u] = true
	}
	// µ̂^τ(σ̃_{i−1}) / µ̂^τ(σ̃_i) restricted to scan positions inside
	// B_{2t}(v): for positions outside, the prefix pinnings agree within
	// the oracle's radius, so the marginals cancel exactly.
	logRatio := 0.0
	prefixPrev := in.Pinned.Clone()
	prefixNext := in.Pinned.Clone()
	for _, u := range order {
		if in.Pinned[u] != dist.Unset {
			continue
		}
		if fullRatio || in2t[u] {
			instPrev := in.PinAll(prefixPrev)
			muPrev, _, err := o.MarginalMult(instPrev, u, eps)
			if err != nil {
				return 0, err
			}
			instNext := in.PinAll(prefixNext)
			muNext, _, err := o.MarginalMult(instNext, u, eps)
			if err != nil {
				return 0, err
			}
			pPrev, pNext := muPrev[prev[u]], muNext[next[u]]
			if pPrev <= 0 || pNext <= 0 {
				return 0, fmt.Errorf("core: zero oracle marginal on bridge configuration at %d", u)
			}
			logRatio += math.Log(pPrev) - math.Log(pNext)
		}
		prefixPrev[u] = prev[u]
		prefixNext[u] = next[u]
	}
	// w(σ̃_i) / w(σ̃_{i−1}) over factors touching the changed ball.
	diff := prev.DiffersAt(next)
	wRatio, err := eng.WeightRatioOnBall(next, prev, diff, scratch)
	if err != nil {
		return 0, err
	}
	if wRatio <= 0 {
		return 0, fmt.Errorf("core: bridge configuration infeasible (weight ratio %v)", wRatio)
	}
	q := math.Exp(logRatio) * wRatio * damp
	if math.IsNaN(q) || q < 0 {
		return 0, fmt.Errorf("core: acceptance probability degenerate: %v", q)
	}
	if q > 1 {
		// With a true multiplicative oracle q ≤ e^{−1/n²} < 1; clamping
		// guards against slightly out-of-spec oracles (fault injection).
		q = 1
	}
	return q, nil
}

// JVVLOCAL realizes Theorem 4.2 end to end in the LOCAL model: it builds a
// network decomposition of the power graph G^(r+1), where r = 9t + 2ℓ is
// the single-pass SLOCAL locality of local-JVV (Lemma 4.4), derives the
// chromatic scheduling order, runs LocalJVV on it, and merges the rejection
// failures F' with the decomposition failures F”. Conditioned on no
// failure the output is distributed exactly as µ^τ.
func JVVLOCAL(in *gibbs.Instance, o MultOracle, cfg JVVConfig, rng *rand.Rand) (*JVVResult, int, error) {
	n := in.N()
	if n == 0 {
		return &JVVResult{}, 0, nil
	}
	eps, err := defaultEps(cfg.Eps, 1/math.Pow(float64(n), 3))
	if err != nil {
		return nil, 0, err
	}
	probeV := 0
	if free := in.FreeVertices(); len(free) > 0 {
		probeV = free[0]
	}
	_, t, err := o.MarginalMult(in, probeV, eps)
	if err != nil {
		return nil, 0, fmt.Errorf("core: oracle probe: %w", err)
	}
	ell, err := in.Spec.Locality()
	if err != nil {
		return nil, 0, err
	}
	r := 9*t + 2*ell
	power := in.Spec.G.Power(r + 1)
	dec, err := netdecomp.BallCarving(power, netdecomp.Params{}, rng)
	if err != nil {
		return nil, 0, err
	}
	cfg.Order = dec.ScheduleOrder()
	res, err := LocalJVV(in, o, cfg, rng)
	if err != nil {
		return nil, 0, err
	}
	for v := 0; v < n; v++ {
		if dec.Failed[v] {
			res.Failed[v] = true
		}
	}
	return res, dec.SimulationRounds(r), nil
}
