package sampler

// batch.go is the ChromaticGlauber engine: B ≥ 1 independent chains over
// one shared compiled engine, advanced in lockstep under the deterministic
// chromatic schedule (B = 1 is the single-chain engine). Where LubyGlauber
// randomizes its independent sets (one Luby phase per round, each vertex
// selected with probability ≥ 1/(deg+1)), ChromaticGlauber fixes them up
// front: a proper coloring of the interaction graph, computed once, gives
// at most Δ+1 stages per sweep in which every free vertex is heat-bathed
// exactly once. The price is symmetry: on the LOCAL model the coloring
// must arrive as node input (psample.ChromaticGlauberLOCAL), χ rounds per
// sweep instead of one.
//
// The configurations live in a state.Lattice (chain-major per vertex,
// cell (v,c) at vals[v*B+c], one byte per cell for every model this repo
// builds) so that updating one vertex across all chains touches
// contiguous memory and amortizes the per-vertex factor bookkeeping — the
// mixed-radix index computation and factor-table cache misses that
// dominate single-chain sweeps are paid once per vertex instead of once
// per chain, and the compact cells keep the whole B×n working set in
// cache at large B.
//
// The per-stage work runs through the fused sweep-plan kernel
// (gibbs.Compiled.SampleVertexBatch), which hands each worker's dense
// chain block to the chain-list heat-bath kernel the batched LubyGlauber
// engine uses for its masked updates: weights and the heat-bath draw in
// one pass over a flat per-vertex instruction stream, a value-type
// dist.Xoshiro stream per worker instead of *rand.Rand interface calls,
// and lattice validity checked once per Run (state.Lattice.CheckAssigned)
// instead of per cell — sampled symbols are always in range, so one
// preflight covers every subsequent stage.
//
// The stage schedule is the cached psample.Rules.ClassSchedule: the
// interaction graph colored by natural-order greedy and by the degeneracy
// (smallest-last) order, keeping whichever uses fewer classes — fewer
// classes mean fewer barriers per sweep.
//
// Correctness: a stage updates one color class simultaneously in every
// chain. Within a chain the class is an independent set of the interaction
// graph, and factor scopes are cliques (enforced by psample.NewRules), so
// no two simultaneous updates share a factor and the stage is a product of
// ordinary heat-bath kernels — exactly the LubyGlauber argument with the
// random independent set replaced by a deterministic one. Across chains
// there is no interaction at all. Workers partition the stage's item grid
// chain-block-affine: items enumerate groups outermost, so a worker's
// contiguous item range covers contiguous chain columns across the whole
// class — each chain column stays with one worker (and its RNG stream)
// for locality now and the NUMA story later.

import (
	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/psample"
	"repro/internal/state"
)

// Batch advances B independent chains of ChromaticGlauber dynamics in
// lockstep over one shared gibbs.Compiled engine.
type Batch struct {
	// nworkers is the SetWorkers override when positive (default: one
	// per CPU, bounded so per-stage blocks stay coarse).
	nworkers int

	rules *psample.Rules
	// chains is B, the number of independent chains.
	chains int
	// lat is the chain-major state lattice: cell (v, c) is chain c at v.
	lat *state.Lattice
	// classes is the cached chromatic stage schedule of the rules.
	classes [][]int
	sweeps  int
	updates int64
	workers []batchWorker
	seed    int64
	// checked records that the lattice passed its CheckAssigned preflight;
	// stages write only in-range symbols, so one scan per Reset suffices.
	checked bool
}

// batchWorker is the per-worker mutable state: a value-type RNG stream and
// the batched conditional-weight buffers.
type batchWorker struct {
	rng dist.Xoshiro
	buf []float64
	sc  *gibbs.BatchScratch
}

// NewBatch returns a batched engine of the given number of chains, every
// chain started from the greedy feasible completion of the instance
// pinning, with per-worker RNG streams derived from seed. The stage
// schedule is the rules' cached class schedule (at most min(Δ, d)+1
// barrier-separated stages per sweep), so constructing many batches over
// one Rules colors the graph once.
// A nonpositive chain count surfaces as the state container's typed
// *state.DomainError.
func NewBatch(r *psample.Rules, chains int, seed int64) (*Batch, error) {
	b := &Batch{
		rules:   r,
		chains:  chains,
		classes: r.ClassSchedule(),
	}
	if err := b.Reset(seed); err != nil {
		return nil, err
	}
	return b, nil
}

// Reset restarts every chain from the greedy start with fresh RNG streams.
func (b *Batch) Reset(seed int64) error {
	lat, err := b.rules.ResetLattice(b.lat, b.chains)
	if err != nil {
		return err
	}
	b.lat = lat
	b.seed = seed
	b.sweeps = 0
	b.updates = 0
	b.workers = b.workers[:0]
	b.checked = false
	return nil
}

// Chains returns B, the number of independent chains.
func (b *Batch) Chains() int { return b.chains }

// Classes returns the stage schedule (free vertices grouped by greedy
// color). The slices alias engine state and must not be modified.
func (b *Batch) Classes() [][]int { return b.classes }

// Rounds returns the number of full sweeps executed since the last Reset.
func (b *Batch) Rounds() int { return b.sweeps }

// Updates returns the total number of single-site heat-bath updates
// executed across all chains since the last Reset (every scheduled update
// is unconditional — the chromatic schedule has no rejection, so this is
// the update-rate counter of the adaptive driver).
func (b *Batch) Updates() int64 { return b.updates }

// SetWorkers overrides the worker count (nonpositive restores the
// CPU-scaled default). Per-worker RNG streams mean trajectories depend on
// the worker count; callers wanting machine-independent reproducibility
// (the adaptive driver's determinism contract) pin it.
func (b *Batch) SetWorkers(w int) { b.nworkers = w }

// Chain returns a copy of chain c's current configuration.
func (b *Batch) Chain(c int) dist.Config {
	return b.lat.Chain(c)
}

// State returns a copy of chain 0's configuration (the single-chain view
// of the Sampler interface).
func (b *Batch) State() dist.Config { return b.lat.Chain(0) }

// Lattice exposes the underlying state container (read-only for callers:
// diagnostics such as the R̂ accumulator read it between runs).
func (b *Batch) Lattice() *state.Lattice { return b.lat }

// ensureWorkers sizes the per-worker state for w workers.
func (b *Batch) ensureWorkers(w, cb int) {
	for len(b.workers) < w {
		i := len(b.workers)
		b.workers = append(b.workers, batchWorker{
			rng: dist.NewXoshiro(b.seed, int64(i)),
			buf: make([]float64, cb*b.rules.Q()),
			sc:  gibbs.NewBatchScratch(cb),
		})
	}
}

// Run executes the given number of full sweeps; each sweep is one
// barrier-separated stage per color class, and each stage advances every
// chain at every vertex of the class through the fused sweep-plan kernel.
// The worker pool statically partitions the stage's (chain-group, vertex)
// item grid with groups outermost, so each worker owns contiguous chain
// columns.
func (b *Batch) Run(sweeps int) error {
	if len(b.classes) == 0 {
		// Fully pinned instance: a sweep is a no-op.
		b.sweeps += sweeps
		return nil
	}
	// One preflight scan replaces the per-cell validity checks of the
	// fused kernel: every symbol the stages write is in range, so the
	// invariant survives until the next Reset.
	if !b.checked {
		if err := b.lat.CheckAssigned(); err != nil {
			return err
		}
		b.checked = true
	}
	B := b.chains
	// Chains are processed in groups of psample.ChainBlock(q) so the
	// conditional-weight buffer stays L1-resident while still amortizing
	// the per-vertex plan walk across many chains.
	cb := min(B, psample.ChainBlock(b.rules.Q()))
	groups := (B + cb - 1) / cb
	maxItems := 0
	for _, class := range b.classes {
		maxItems = max(maxItems, len(class)*groups)
	}
	workers := b.nworkers
	if workers <= 0 {
		// Scale the worker heuristic by the scalar updates per item (one
		// chain group ≈ cb single-vertex updates).
		workers = psample.DefaultWorkers(maxItems * cb)
	}
	workers = max(min(workers, maxItems), 1)
	b.ensureWorkers(workers, cb)
	eng := b.rules.Engine()
	stages := make([]func(w, round int) error, len(b.classes))
	for k, class := range b.classes {
		nclass := len(class)
		items := nclass * groups
		stages[k] = func(w, round int) error {
			lo, hi := psample.BlockOf(items, workers, w)
			wk := &b.workers[w]
			for it := lo; it < hi; it++ {
				// Groups outermost: a contiguous item range is a run of
				// whole chain-column groups, so the worker (and its RNG
				// stream) owns those columns across every vertex of the
				// class.
				v := class[it%nclass]
				c0 := (it / nclass) * cb
				c1 := min(c0+cb, B)
				if err := eng.SampleVertexBatch(b.lat, v, c0, c1, wk.buf, wk.sc, &wk.rng); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if err := psample.RunRounds(workers, sweeps, stages); err != nil {
		return err
	}
	b.sweeps += sweeps
	classTotal := 0
	for _, class := range b.classes {
		classTotal += len(class)
	}
	b.updates += int64(sweeps) * int64(classTotal) * int64(B)
	return nil
}
