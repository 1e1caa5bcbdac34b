package main

// kernels.go: the layer benchmarks below the engine. The gibbs kernels run
// directly on a converged lattice snapshot (the final chains of a traced
// drive) at the engines' chain block, and the RunRounds barrier runs with
// empty stages at the workload's worker and stage count.

import (
	"time"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/psample"
	"repro/internal/state"
)

// minSample is the shortest timed sample of a layer benchmark; shorter
// ones would mostly measure the clock.
const minSample = 2 * time.Millisecond

// nsPerUnit calls step in timed samples of at least minSample until budget
// has passed (and at least five samples exist) and returns the median
// nanoseconds per unit of work over the samples. step returns the units
// it did.
func nsPerUnit(budget time.Duration, step func() (int, error)) (float64, error) {
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < budget {
		units := 0
		t0 := time.Now()
		var dt time.Duration
		for dt < minSample {
			u, err := step()
			if err != nil {
				return 0, err
			}
			units += u
			dt = time.Since(t0)
		}
		per = append(per, float64(dt.Nanoseconds())/float64(max(units, 1)))
	}
	return median(per), nil
}

// accFactor is one LocalMetropolis acceptance factor: a factor with at
// least two distinct free scope vertices, as psample.NewRules selects
// them.
type accFactor struct {
	fi    int
	verts []int
}

// accFactors lists the instance's acceptance factors in factor order.
func accFactors(in *gibbs.Instance) []accFactor {
	var out []accFactor
	for fi, f := range in.Spec.Factors {
		var verts []int
		for _, u := range f.Scope {
			dup := false
			for _, d := range verts {
				dup = dup || d == u
			}
			if !dup && in.Pinned[u] == dist.Unset {
				verts = append(verts, u)
			}
		}
		if len(verts) >= 2 {
			out = append(out, accFactor{fi: fi, verts: verts})
		}
	}
	return out
}

// kernelResult holds the per-unit costs of the three sampling kernels.
type kernelResult struct {
	batchNsPerCell, subsetNsPerCell, filterNsPerFactorChain float64
}

// kernelBench times SampleVertexBatch (dense chain blocks), the bound
// SampleVertexSubset kernel (chain subsets of Luby's winner density
// 1/(free degree + 1)) and FilterWeightBatch (every acceptance factor
// against a fresh proposal lattice), each for a share of budget.
func kernelBench(in *gibbs.Instance, r *psample.Rules, snap *state.Lattice, seed int64, budget time.Duration) (kernelResult, error) {
	var res kernelResult
	c := in.Spec.Compiled()
	q := in.Q()
	B := snap.Chains()
	cb := min(B, psample.ChainBlock(q))
	free := r.FreeList()
	buf := make([]float64, cb*q)
	sc := gibbs.NewBatchScratch(cb)
	rng := dist.NewXoshiro(seed, 0)
	share := budget / 3

	lat := snap.Clone()
	var err error
	res.batchNsPerCell, err = nsPerUnit(share, func() (int, error) {
		cells := 0
		for _, v := range free {
			for c0 := 0; c0 < B; c0 += cb {
				c1 := min(c0+cb, B)
				if err := c.SampleVertexBatch(lat, v, c0, c1, buf, sc, &rng); err != nil {
					return 0, err
				}
				cells += c1 - c0
			}
		}
		return cells, nil
	})
	if err != nil {
		return res, err
	}

	// One chain subset per (vertex, chain block), drawn once.
	type item struct {
		v      int
		chains []int32
	}
	var items []item
	for _, v := range free {
		deg := 0
		for _, u := range in.Spec.G.Neighbors(v) {
			if in.Pinned[u] == dist.Unset {
				deg++
			}
		}
		for c0 := 0; c0 < B; c0 += cb {
			var chains []int32
			for ch := c0; ch < min(c0+cb, B); ch++ {
				if rng.Float64()*float64(deg+1) < 1 {
					chains = append(chains, int32(ch))
				}
			}
			if len(chains) > 0 {
				items = append(items, item{v, chains})
			}
		}
	}
	lat = snap.Clone()
	subset, err := c.BindVertexSubset(lat)
	if err != nil {
		return res, err
	}
	res.subsetNsPerCell, err = nsPerUnit(share, func() (int, error) {
		cells := 0
		for _, it := range items {
			if err := subset(it.v, it.chains, buf, sc, &rng); err != nil {
				return 0, err
			}
			cells += len(it.chains)
		}
		return cells, nil
	})
	if err != nil {
		return res, err
	}

	prop := snap.Clone()
	for _, v := range free {
		cdf := r.ProposalCDF(v)
		for ch := 0; ch < B; ch++ {
			prop.Set(v, ch, cdf.Draw(&rng))
		}
	}
	accs := accFactors(in)
	out := make([]float64, cb)
	res.filterNsPerFactorChain, err = nsPerUnit(share, func() (int, error) {
		units := 0
		for _, af := range accs {
			for c0 := 0; c0 < B; c0 += cb {
				c1 := min(c0+cb, B)
				if err := c.FilterWeightBatch(af.fi, snap, prop, c0, c1, af.verts, out, sc); err != nil {
					return 0, err
				}
				units += c1 - c0
			}
		}
		return units, nil
	})
	return res, err
}

// barrierBench times psample.RunRounds with empty stages: one call per
// sweep-equivalent of sweepRounds rounds, as the engine makes it, and
// returns nanoseconds per round.
func barrierBench(workers, stagesPerRound, sweepRounds int, budget time.Duration) (float64, error) {
	stages := make([]func(w, round int) error, stagesPerRound)
	for i := range stages {
		stages[i] = func(int, int) error { return nil }
	}
	return nsPerUnit(budget, func() (int, error) {
		return sweepRounds, psample.RunRounds(workers, sweepRounds, stages)
	})
}
