// Package core implements the contributions of Feng & Yin, "On Local
// Distributed Sampling and Counting" (PODC 2018): the equivalence of
// approximate inference and approximate sampling in the LOCAL model
// (Theorems 3.2 and 3.4), the boosting of additive-error inference to
// multiplicative-error inference for local Gibbs distributions (Lemma 4.1),
// the distributed Jerrum–Valiant–Vazirani exact sampler via local rejection
// sampling (Theorem 4.2 / Proposition 4.3), and the equivalence between
// tractability and strong spatial mixing (Theorem 5.1, Corollaries 5.2 and
// 5.3), together with the round-complexity accounting that yields the
// paper's O(log³ n)-style bounds.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/decay"
	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
)

// Oracle is a LOCAL approximate-inference oracle: Marginal returns an
// estimate of the conditional marginal µ^τ_v with total variation error at
// most delta, together with the LOCAL radius (round count) the estimate
// consumed. By Proposition 3.3 inference oracles can be assumed
// deterministic and failure-free, which all implementations here are.
type Oracle interface {
	Marginal(in *gibbs.Instance, v int, delta float64) (dist.Dist, int, error)
}

// MultOracle is an approximate-inference oracle with multiplicative error
// guarantee: err(µ̂_v, µ^τ_v) = max_c |ln µ̂_v(c) − ln µ^τ_v(c)| ≤ eps
// (Section 4.1).
type MultOracle interface {
	MarginalMult(in *gibbs.Instance, v int, eps float64) (dist.Dist, int, error)
}

// ErrNoOracle indicates a reduction invoked without the oracle it requires.
var ErrNoOracle = errors.New("core: missing inference oracle")

// BoundError reports an unusable error bound: a sampling δ that is not a
// finite positive number, or an oracle ε that is NaN or infinite. Such a
// bound would otherwise pass the "≤ 0" guards (every comparison with NaN
// is false) and reach the oracle as a meaningless accuracy target.
type BoundError struct {
	Name  string
	Value float64
}

func (e *BoundError) Error() string {
	return fmt.Sprintf("core: error bound %s = %v must be a finite positive number", e.Name, e.Value)
}

// checkDelta returns a *BoundError unless delta is finite and positive.
func checkDelta(delta float64) error {
	if !(delta > 0) || math.IsInf(delta, 1) {
		return &BoundError{Name: "δ", Value: delta}
	}
	return nil
}

// defaultEps resolves an oracle ε: a nonpositive value selects def (the
// documented default), NaN and ±Inf are a *BoundError.
func defaultEps(eps, def float64) (float64, error) {
	if math.IsNaN(eps) || math.IsInf(eps, 0) {
		return 0, &BoundError{Name: "ε", Value: eps}
	}
	if eps <= 0 {
		return def, nil
	}
	return eps, nil
}

// DepthEstimator is a truncated computation-tree marginal estimator (the
// shape shared by the Weitz SAW tree, the BGKNT matching recursion and the
// GKM coloring recursion in internal/decay).
type DepthEstimator interface {
	Marginal(pinned dist.Config, v, depth int) (dist.Dist, error)
}

// DecayOracle adapts a correlation-decay estimator with certified
// exponential decay rate Rate (strong spatial mixing with δ_n(t) =
// poly(n)·Rate^t) into both an additive- and a multiplicative-error
// inference oracle. The multiplicative guarantee reflects the fact —
// explained by Corollary 5.2 of the paper — that the known SSM results for
// these models hold with decay in multiplicative error.
type DecayOracle struct {
	// Est is the underlying estimator.
	Est DepthEstimator
	// Rate is the certified decay rate α ∈ [0, 1).
	Rate float64
	// N is the instance size used in the poly(n) prefactor of the decay
	// bound.
	N int
	// MaxDepth optionally caps the truncation depth (0 = no cap). Capping
	// models a round budget; estimates then carry the error of the capped
	// depth.
	MaxDepth int
}

var (
	_ Oracle     = (*DecayOracle)(nil)
	_ MultOracle = (*DecayOracle)(nil)
)

func (o *DecayOracle) depth(delta float64) (int, error) {
	t, err := decay.DepthForError(o.Rate, delta, o.N)
	if err != nil {
		return 0, err
	}
	if o.MaxDepth > 0 && t > o.MaxDepth {
		t = o.MaxDepth
	}
	return t, nil
}

// Marginal implements Oracle.
func (o *DecayOracle) Marginal(in *gibbs.Instance, v int, delta float64) (dist.Dist, int, error) {
	t, err := o.depth(delta)
	if err != nil {
		return nil, 0, err
	}
	d, err := o.Est.Marginal(in.Pinned, v, t)
	if err != nil {
		return nil, 0, err
	}
	return d, t, nil
}

// MarginalMult implements MultOracle.
func (o *DecayOracle) MarginalMult(in *gibbs.Instance, v int, eps float64) (dist.Dist, int, error) {
	return o.Marginal(in, v, eps)
}

// ExactOracle answers inference queries by exhaustive enumeration — the
// zero-error referee used in tests and small experiments. It reads the
// whole graph, so its reported radius is n (consumers such as the JVV
// bridge construction of Claim 4.6 must treat its information ball as the
// entire instance).
type ExactOracle struct {
	// Radius overrides the radius charged per query; 0 charges n (the
	// honest radius of a global computation).
	Radius int
	// Budget caps enumeration size; 0 means exact.DefaultBudget.
	Budget int
}

var (
	_ Oracle     = (*ExactOracle)(nil)
	_ MultOracle = (*ExactOracle)(nil)
)

// Marginal implements Oracle with zero error.
func (o *ExactOracle) Marginal(in *gibbs.Instance, v int, _ float64) (dist.Dist, int, error) {
	budget := o.Budget
	if budget <= 0 {
		budget = exact.DefaultBudget
	}
	d, err := exact.MarginalBudget(in, v, budget)
	if err != nil {
		return nil, 0, err
	}
	r := o.Radius
	if r <= 0 {
		r = in.N()
	}
	return d, r, nil
}

// MarginalMult implements MultOracle with zero error.
func (o *ExactOracle) MarginalMult(in *gibbs.Instance, v int, eps float64) (dist.Dist, int, error) {
	return o.Marginal(in, v, eps)
}

// NoisyOracle wraps an inner oracle and perturbs each returned marginal by
// mixing with the uniform distribution at weight Noise. It is a fault
// injector: tests use it to check that the reductions degrade gracefully
// (and that the JVV acceptance probabilities flag inconsistent oracles).
type NoisyOracle struct {
	Inner Oracle
	// Noise is the mixing weight toward uniform added on top of the
	// requested accuracy.
	Noise float64
}

var _ Oracle = (*NoisyOracle)(nil)

// Marginal implements Oracle with the injected extra error.
func (o *NoisyOracle) Marginal(in *gibbs.Instance, v int, delta float64) (dist.Dist, int, error) {
	d, r, err := o.Inner.Marginal(in, v, delta)
	if err != nil {
		return nil, 0, err
	}
	mixed, err := dist.Mix(d, dist.Uniform(len(d)), o.Noise)
	if err != nil {
		return nil, 0, err
	}
	return mixed, r, nil
}

// oracleSanity validates an oracle result before it is consumed by a
// reduction.
func oracleSanity(d dist.Dist, q int) error {
	if len(d) != q {
		return fmt.Errorf("core: oracle returned %d-symbol marginal for alphabet %d", len(d), q)
	}
	return d.Validate(1e-9)
}
