package main

// referee.go: the correctness checks behind fail_frac. Each runs on a
// drive's final chains, outside every timed region. Every final chain must
// satisfy all factors (Compiled.LocallyFeasible); on top of that each
// workload has a distributional referee that needs no enumeration:
//
//   - occupancyReferee (hardcore on a tree): the exact marginals come from
//     the full-depth self-avoiding-walk recursion, which is exact on trees.
//     Vertices are grouped into the two classes of the bipartition; per
//     chain, the class's occupied-vertex count is one observation, and the
//     pooled mean is compared with the exact expectation in units of the
//     between-chain standard error. Under the target distribution and
//     independent chains that ratio is Student-t with B−1 degrees of
//     freedom, which fixes the bound for a stated false-alarm rate.
//   - uniformReferee (proper colorings): by color symmetry each color
//     holds exactly 1/q of the mass, so the pooled color histogram is
//     compared with uniform by Pearson's chi-square with q−1 degrees of
//     freedom. The multinomial null treats cells as independent; in a
//     proper coloring same-colored neighbors are impossible, which makes
//     color counts less variable than multinomial, so the stated rate is
//     an upper bound up to the weak positive correlation at distance two.

import (
	"fmt"
	"math"

	"repro/internal/decay"
	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/state"
)

// refereeAlpha is the false-alarm rate of one distributional check of one
// drive, shared by Bonferroni across the check's tests. A run makes at
// most a few hundred drives, so a false alarm shows up about once in ten
// thousand runs.
const refereeAlpha = 1e-6

// referee is a distributional check of a final lattice. check returns the
// check's statistic (for the log) and a non-nil error when it rejects.
type referee interface {
	check(lat *state.Lattice) (float64, error)
	describe() string
}

// infeasibleChain returns the first chain of the lattice that violates a
// factor, or -1.
func infeasibleChain(c *gibbs.Compiled, lat *state.Lattice) int {
	cfg := dist.NewConfig(lat.N())
	for ch := 0; ch < lat.Chains(); ch++ {
		lat.ReadChain(ch, cfg)
		if !c.LocallyFeasible(cfg) {
			return ch
		}
	}
	return -1
}

// occupancyReferee compares per-class occupancy with exact marginals.
type occupancyReferee struct {
	// class[v] is v's group (0 or 1); mean[g] is the exact expected
	// number of occupied vertices in group g.
	class []int
	mean  [2]float64
	// bound is the |t| above which a class is rejected.
	bound  float64
	chains int
}

// newOccupancyReferee builds the referee for the hardcore model with
// fugacity lambda on the tree g, observed through B chains.
func newOccupancyReferee(g *graph.Graph, lambda float64, chains int) (*occupancyReferee, error) {
	class, err := bipartition(g)
	if err != nil {
		return nil, err
	}
	saw, err := decay.NewHardcoreSAW(g, lambda)
	if err != nil {
		return nil, err
	}
	free := dist.NewConfig(g.N())
	r := &occupancyReferee{class: class, chains: chains}
	for v := 0; v < g.N(); v++ {
		// Depth n exceeds any self-avoiding walk, so the recursion is the
		// full one — exact on a tree.
		d, err := saw.Marginal(free, v, g.N())
		if err != nil {
			return nil, err
		}
		r.mean[class[v]] += d[1]
	}
	r.bound = criticalValue(func(t float64) float64 { return studentTail(t, chains-1) }, refereeAlpha/2, 1e3)
	return r, nil
}

// bipartition 2-colors a connected bipartite graph by breadth-first
// depth parity from vertex 0.
func bipartition(g *graph.Graph) ([]int, error) {
	class := make([]int, g.N())
	for i := range class {
		class[i] = -1
	}
	if g.N() == 0 {
		return class, nil
	}
	class[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			switch class[u] {
			case -1:
				class[u] = 1 - class[v]
				queue = append(queue, u)
			case class[v]:
				return nil, fmt.Errorf("referee: graph is not bipartite (edge %d-%d)", v, u)
			}
		}
	}
	for v, c := range class {
		if c < 0 {
			return nil, fmt.Errorf("referee: graph is not connected (vertex %d unreached)", v)
		}
	}
	return class, nil
}

func (r *occupancyReferee) describe() string {
	return fmt.Sprintf("per-class occupancy vs exact SAW marginals, |t_%d| ≤ %.2f (false-alarm rate %.0e per drive)", r.chains-1, r.bound, refereeAlpha)
}

// check returns the largest |t| over the two classes.
func (r *occupancyReferee) check(lat *state.Lattice) (float64, error) {
	B := lat.Chains()
	counts := make([][2]float64, B)
	for v, g := range r.class {
		for c := 0; c < B; c++ {
			counts[c][g] += float64(lat.Get(v, c))
		}
	}
	worst := 0.0
	for g := 0; g < 2; g++ {
		t := tStatistic(counts, g, r.mean[g])
		if math.IsNaN(t) || math.Abs(t) > worst {
			worst = math.Abs(t)
		}
		if !(math.Abs(t) <= r.bound) {
			return worst, fmt.Errorf("class %d occupancy t=%.2f beyond ±%.2f (expected %.1f)", g, t, r.bound, r.mean[g])
		}
	}
	return worst, nil
}

// tStatistic returns (mean − want) / (sd / √B) over the chains' counts of
// group g; zero spread with a nonzero offset is ±Inf.
func tStatistic(counts [][2]float64, g int, want float64) float64 {
	B := float64(len(counts))
	sum := 0.0
	for _, c := range counts {
		sum += c[g]
	}
	mean := sum / B
	ss := 0.0
	for _, c := range counts {
		d := c[g] - mean
		ss += d * d
	}
	se := math.Sqrt(ss / (B - 1) / B)
	return (mean - want) / se
}

// uniformReferee tests the pooled symbol histogram against uniform 1/q.
type uniformReferee struct {
	q     int
	bound float64
}

func newUniformReferee(q int) *uniformReferee {
	return &uniformReferee{
		q:     q,
		bound: criticalValue(func(x float64) float64 { return chiSquareTail(x, q-1) }, refereeAlpha, 1e4),
	}
}

func (r *uniformReferee) describe() string {
	return fmt.Sprintf("pooled color histogram vs uniform 1/%d, chi2_%d ≤ %.2f (false-alarm rate %.0e per drive)", r.q, r.q-1, r.bound, refereeAlpha)
}

// check returns Pearson's chi-square of the pooled histogram.
func (r *uniformReferee) check(lat *state.Lattice) (float64, error) {
	hist := make([]float64, r.q)
	total := 0.0
	for v := 0; v < lat.N(); v++ {
		for c := 0; c < lat.Chains(); c++ {
			hist[lat.Get(v, c)]++
			total++
		}
	}
	want := total / float64(r.q)
	chi2 := 0.0
	for _, h := range hist {
		d := h - want
		chi2 += d * d / want
	}
	if !(chi2 <= r.bound) {
		return chi2, fmt.Errorf("color histogram chi2=%.1f beyond %.1f", chi2, r.bound)
	}
	return chi2, nil
}
