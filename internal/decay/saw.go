// Package decay implements the correlation-decay ("strong spatial mixing")
// marginal estimators that the paper cites as the state of the art and uses
// as inference oracles (Section 5 of Feng & Yin, PODC 2018):
//
//   - Weitz's self-avoiding-walk (SAW) tree recursion for the hardcore model
//     and general antiferromagnetic 2-spin systems [Weitz 06; Li–Lu–Yin 13],
//   - the Bayati–Gamarnik–Katz–Nair–Tetali path-tree recursion for
//     monomer–dimer (matching) marginals [BGKNT 07], and
//   - the Gamarnik–Katz–Misra style recursion for list colorings of
//     triangle-free graphs [GKM 13].
//
// Each estimator computes a vertex (or edge) marginal conditioned on an
// arbitrary pinned partial configuration, truncating its computation tree at
// a given depth t. Under strong spatial mixing the truncation error decays
// exponentially in t, so these estimators realize LOCAL approximate
// inference with t(n, δ) = O(log(n/δ)) rounds; they are the oracles plugged
// into the reductions of Sections 3–5.
package decay

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/model"
)

// ErrPinnedInfeasible indicates a pinned configuration that the estimator
// detects to be infeasible (e.g. two adjacent occupied vertices in the
// hardcore model).
var ErrPinnedInfeasible = errors.New("decay: pinned configuration infeasible")

// ratio represents an odds ratio R = num/den of P(In)/P(Out) without
// dividing, so that pinned vertices (R = 0 or R = ∞) stay exact.
type ratio struct {
	num, den float64
}

func (r ratio) normalized() ratio {
	m := math.Max(r.num, r.den)
	if m <= 0 {
		return r
	}
	return ratio{num: r.num / m, den: r.den / m}
}

// dist2 converts the ratio into a two-symbol distribution (Out, In).
func (r ratio) dist2() (dist.Dist, error) {
	total := r.num + r.den
	if total <= 0 || math.IsNaN(total) {
		return nil, ErrPinnedInfeasible
	}
	return dist.Dist{r.den / total, r.num / total}, nil
}

// TwoSpinSAW is Weitz's SAW-tree marginal estimator for a 2-spin system on
// a fixed graph. The zero value is not usable; construct with NewTwoSpinSAW.
type TwoSpinSAW struct {
	g *graph.Graph
	p model.TwoSpinParams
}

// NewTwoSpinSAW returns a SAW-tree estimator for the 2-spin system with
// parameters p on graph g.
func NewTwoSpinSAW(g *graph.Graph, p model.TwoSpinParams) (*TwoSpinSAW, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &TwoSpinSAW{g: g, p: p}, nil
}

// NewHardcoreSAW returns the SAW estimator for the hardcore model with
// fugacity λ ((β, γ) = (1, 0)).
func NewHardcoreSAW(g *graph.Graph, lambda float64) (*TwoSpinSAW, error) {
	return NewTwoSpinSAW(g, model.TwoSpinParams{Beta: 1, Gamma: 0, Lambda: lambda})
}

// Marginal estimates the conditional marginal distribution of vertex v under
// the pinned partial configuration, truncating the SAW tree at the given
// depth. Depth 0 uses only v's own activity. On trees (and, at full depth,
// on any graph, by Weitz's theorem) the result is exact.
func (e *TwoSpinSAW) Marginal(pinned dist.Config, v, depth int) (dist.Dist, error) {
	if v < 0 || v >= e.g.N() {
		return nil, fmt.Errorf("decay: vertex %d out of range", v)
	}
	if len(pinned) != e.g.N() {
		return nil, fmt.Errorf("decay: pinning length %d != n %d", len(pinned), e.g.N())
	}
	if x := pinned[v]; x != dist.Unset {
		return dist.Point(2, x), nil
	}
	onPath := make(map[int]int) // vertex -> departure neighbor on current walk
	r := e.sawRatio(pinned, v, -1, depth, onPath)
	d, err := r.dist2()
	if err != nil {
		return nil, fmt.Errorf("decay: SAW marginal at %d: %w", v, err)
	}
	return d, nil
}

// sawRatio computes the odds ratio R_u = P(u=In)/P(u=Out) in the SAW tree
// rooted at the walk ending at u, having arrived from `from` (-1 at the
// root). onPath maps each vertex currently on the walk to the neighbor
// through which the walk departed it (used by Weitz's cycle-closing rule).
func (e *TwoSpinSAW) sawRatio(pinned dist.Config, u, from, depth int, onPath map[int]int) ratio {
	if x := pinned[u]; x != dist.Unset {
		if x == model.In {
			return ratio{num: 1, den: 0}
		}
		return ratio{num: 0, den: 1}
	}
	if depth <= 0 {
		// Truncated leaf: treat as a free isolated vertex.
		return ratio{num: e.p.Lambda, den: 1}.normalized()
	}
	out := ratio{num: e.p.Lambda, den: 1}
	for _, w := range e.g.Neighbors(u) {
		if w == from {
			continue
		}
		var rw ratio
		if dep, visited := onPath[w]; visited {
			// Weitz's cycle-closing rule: the walk returns to w, which left
			// through neighbor dep. The leaf copy of w is pinned to In when
			// the returning edge (w, u) is larger than the departing edge
			// (w, dep) in w's local ordering (sorted neighbor index), and to
			// Out when smaller.
			if u > dep {
				rw = ratio{num: 1, den: 0}
			} else {
				rw = ratio{num: 0, den: 1}
			}
		} else {
			onPath[u] = w
			rw = e.sawRatio(pinned, w, u, depth-1, onPath)
			delete(onPath, u)
		}
		// Child contribution: (den + γ·num) when u=In, (β·den + num) when
		// u=Out.
		out = ratio{
			num: out.num * (rw.den + e.p.Gamma*rw.num),
			den: out.den * (e.p.Beta*rw.den + rw.num),
		}.normalized()
	}
	return out
}

// DepthForError returns a truncation depth sufficient for additive error δ
// given an exponential decay rate α ∈ (0, 1): the smallest t with
// C·α^t ≤ δ, using a poly(n) prefactor C = n. Returns an error when the
// rate does not certify decay (α ≥ 1).
func DepthForError(alpha, delta float64, n int) (int, error) {
	if alpha >= 1 || alpha < 0 {
		return 0, fmt.Errorf("decay: rate %v does not certify decay", alpha)
	}
	if !(delta > 0) || math.IsInf(delta, 1) {
		return 0, fmt.Errorf("decay: error bound %v must be a finite positive number", delta)
	}
	if alpha == 0 {
		return 1, nil
	}
	c := float64(n)
	if c < 1 {
		c = 1
	}
	t := math.Log(delta/c) / math.Log(alpha)
	if t < 1 {
		t = 1
	}
	return int(math.Ceil(t)), nil
}
