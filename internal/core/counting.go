package core

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/slocal"
)

// CountResult is the outcome of chain-rule counting.
type CountResult struct {
	// LogZ is the estimated log partition function ln Z(τ).
	LogZ float64
	// Terms is the number of chain-rule factors (free vertices).
	Terms int
	// MaxRadius is the largest oracle radius consumed by any term.
	MaxRadius int
}

// EstimateLogPartition estimates the (conditional) log partition function
// ln Z(τ) of the instance by the self-reducibility decomposition the paper
// inherits from Jerrum [9]: fix any feasible configuration σ ⊇ τ and any
// ordering v_1..v_n of the free vertices; then
//
//	µ^τ(σ) = Π_i µ^{τ ∧ σ(v_1..v_{i−1})}_{v_i}(σ(v_i))
//	Z(τ)   = w(σ) / µ^τ(σ),
//
// so ln Z is computable from n marginal estimates — exactly how "counting"
// reduces to "inference" for self-reducible problems (Section 1). With a
// multiplicative-error-ε oracle the estimate carries error at most n·ε in
// ln Z. The feasible σ is constructed by pass-1-style pinning at oracle
// modes.
func EstimateLogPartition(in *gibbs.Instance, o MultOracle, order []int, eps float64) (*CountResult, error) {
	if o == nil {
		return nil, ErrNoOracle
	}
	n := in.N()
	if order == nil {
		order = slocal.IdentityOrder(n)
	}
	if err := slocal.CheckOrder(n, order); err != nil {
		return nil, err
	}
	eps, err := defaultEps(eps, 1/math.Pow(float64(n)+1, 3))
	if err != nil {
		return nil, err
	}
	res := &CountResult{}
	// Build a feasible σ ⊇ τ and accumulate the chain-rule log product on
	// the fly.
	cur := in
	sigma := in.Pinned.Clone()
	logMu := 0.0
	for _, v := range order {
		if sigma[v] != dist.Unset {
			continue
		}
		mu, r, err := o.MarginalMult(cur, v, eps)
		if err != nil {
			return nil, fmt.Errorf("core: log partition at %d: %w", v, err)
		}
		if r > res.MaxRadius {
			res.MaxRadius = r
		}
		c := mu.ArgMax()
		if c < 0 || mu[c] <= 0 {
			return nil, fmt.Errorf("%w: vertex %d", ErrGroundState, v)
		}
		logMu += math.Log(mu[c])
		sigma[v] = c
		cur, err = cur.Pin(v, c)
		if err != nil {
			return nil, err
		}
		res.Terms++
	}
	w, err := in.Spec.Weight(sigma)
	if err != nil {
		return nil, err
	}
	if w <= 0 {
		return nil, fmt.Errorf("%w: chain-rule anchor infeasible", gibbs.ErrInfeasible)
	}
	res.LogZ = math.Log(w) - logMu
	return res, nil
}
