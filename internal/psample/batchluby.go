package psample

// batchluby.go is the batched multi-chain LubyGlauber engine: B
// independent chains of the paper's interleaved construct-and-sample
// dynamics advanced in lockstep over one chain-major state.Lattice. Each
// round has two stages, batched across the chain dimension:
//
//  1. every free vertex draws one phase value per chain — a contiguous
//     row of the chain-major draw matrix per (vertex, chain group) item;
//  2. every free vertex computes the subset of its chains in which it
//     wins the Luby phase and heat-baths exactly those chains through the
//     masked fused kernel gibbs.Compiled.SampleVertexSubset — plan walk
//     and weight rows amortized across the winning chains, one uniform
//     per winner, symbols written straight into the lattice.
//
// The phase check is the engine's hot loop, so the draw matrix stores each
// phase value as the shifted 53-bit key (Uint64()>>11)<<1 rather than the
// float Float64 derives from the same raw word. The map is an order
// isomorphism onto the float draws (same 53 bits, same ties), and the free
// low bit absorbs the vertex-order tiebreak: rival u beats v exactly when
// keyU|bit > keyV, where bit — precomputed per rival in Rules.rivBit — is
// 1 iff u > v. That turns the full construct.Beats order into one
// branchless unsigned compare, so the common case (at most four free
// rivals, Rules.riv padded with an all-zero sentinel row that never wins)
// runs as a single fused pass per (vertex, chain group): four compares, no
// mask buffer, winners compacted in place with a branch-free index bump.
// Vertices with more than four free rivals take a rival-major sweep over
// Rules.freeAdj with the same key compare. The naive chain-major port of
// the scalar check — re-deriving the rival set, re-testing pinning, and
// taking an unpredictable branch per rival per chain — was measured to
// dominate the whole round.
//
// Correctness is the independent-set argument applied per chain: within
// any chain the winners form an independent set, so the simultaneous
// subset updates share no factor and the round restricted to that chain is
// a product of ordinary heat-bath kernels; across chains there is no
// interaction at all. The work grid enumerates chain groups outermost
// (exactly like the chromatic sampler.Batch), so a worker's contiguous
// item range covers contiguous chain columns and each column stays with
// one worker and its RNG stream.
//
// At B = 1 on one worker the engine consumes its RNG stream in exactly
// the order of the serial reference in oracle_test.go (one raw word per
// free vertex in increasing order — the key above and the reference's
// float are the same draw — then one heat-bath uniform per winner in
// increasing vertex order) against bit-identical weights, so the two
// trajectories agree symbol for symbol — the agreement tests pin this.

import (
	"math/bits"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/state"
)

// BatchLubyGlauber advances B independent LubyGlauber chains in lockstep
// over one shared compiled engine.
type BatchLubyGlauber struct {
	// nworkers is the SetWorkers override when positive (default: one
	// per CPU, bounded so per-stage blocks stay coarse).
	nworkers int

	rules *Rules
	// chains is B, the number of independent chains.
	chains int
	// lat is the chain-major state lattice: cell (v, c) is chain c at v.
	lat *state.Lattice
	// draws is the chain-major phase matrix: draws[v*B+c] is vertex v's
	// shifted 53-bit phase key in chain c this round. Row n (one past the
	// vertices) is the all-zero sentinel the padded rival plan points at —
	// stages never write it, and zero never beats a real key.
	draws   []uint64
	rounds  int
	updates int64
	workers []blgWorker
	seed    int64
	// checked records that the lattice passed its CheckAssigned preflight;
	// stages write only in-range symbols, so one scan per Reset suffices.
	checked bool
	// sample is the subset kernel bound to lat (gibbs.BindVertexSubset),
	// rebound alongside the preflight whenever Reset replaces the lattice.
	sample gibbs.VertexSubsetFn
}

// blgWorker is the per-worker mutable state: a value-type RNG stream, the
// subset kernel's weight buffer and scratch, the phase-survival mask, and
// the winning-chain list.
type blgWorker struct {
	rng dist.Xoshiro
	buf []float64
	sc  *gibbs.BatchScratch
	won []uint8
	win []int32
}

// NewBatchLubyGlauber returns a batched engine of the given number of
// chains, every chain started from the greedy feasible completion of the
// instance pinning, with per-worker RNG streams derived from seed. A
// nonpositive chain count surfaces as the state container's typed
// *state.DomainError.
func NewBatchLubyGlauber(r *Rules, chains int, seed int64) (*BatchLubyGlauber, error) {
	s := &BatchLubyGlauber{rules: r, chains: chains}
	if err := s.Reset(seed); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset restarts every chain from the greedy start with fresh RNG streams.
func (s *BatchLubyGlauber) Reset(seed int64) error {
	lat, err := s.rules.ResetLattice(s.lat, s.chains)
	if err != nil {
		return err
	}
	s.lat = lat
	if len(s.draws) < (s.rules.n+1)*s.chains {
		s.draws = make([]uint64, (s.rules.n+1)*s.chains)
	}
	s.seed = seed
	s.rounds = 0
	s.updates = 0
	s.workers = s.workers[:0]
	s.checked = false
	s.sample = nil
	return nil
}

// Chains returns B, the number of independent chains.
func (s *BatchLubyGlauber) Chains() int { return s.chains }

// Chain returns a copy of chain c's current configuration.
func (s *BatchLubyGlauber) Chain(c int) dist.Config { return s.lat.Chain(c) }

// State returns a copy of chain 0's configuration (the single-chain view).
func (s *BatchLubyGlauber) State() dist.Config { return s.lat.Chain(0) }

// Lattice exposes the underlying state container (read-only for callers:
// diagnostics such as the R̂ accumulator read it between runs).
func (s *BatchLubyGlauber) Lattice() *state.Lattice { return s.lat }

// Rounds returns the number of rounds executed since the last Reset.
func (s *BatchLubyGlauber) Rounds() int { return s.rounds }

// Updates returns the total number of heat-bath updates performed across
// all chains (the sum of the per-chain independent-set sizes over all
// rounds).
func (s *BatchLubyGlauber) Updates() int64 { return s.updates }

// SetWorkers overrides the worker count (nonpositive restores the
// CPU-scaled default). Per-worker RNG streams mean trajectories depend on
// the worker count; callers wanting machine-independent reproducibility
// (the adaptive run driver) pin it.
func (s *BatchLubyGlauber) SetWorkers(w int) { s.nworkers = w }

// ensureWorkers sizes the per-worker state for w workers and chain
// groups of cb.
func (s *BatchLubyGlauber) ensureWorkers(w, cb int) {
	for len(s.workers) < w {
		i := len(s.workers)
		s.workers = append(s.workers, blgWorker{
			rng: dist.NewXoshiro(s.seed, int64(i)),
			buf: make([]float64, cb*s.rules.q),
			sc:  gibbs.NewBatchScratch(cb),
			won: make([]uint8, cb),
			win: make([]int32, 0, cb),
		})
	}
}

// Run executes the given number of rounds on the worker pool. Both stages
// statically partition the (vertex, chain-group) item grid with groups
// outermost, so each worker owns contiguous chain columns.
func (s *BatchLubyGlauber) Run(rounds int) error {
	r := s.rules
	free := r.freeList
	if len(free) == 0 {
		// Fully pinned instance: a round is a no-op.
		s.rounds += rounds
		return nil
	}
	if !s.checked {
		if err := s.lat.CheckAssigned(); err != nil {
			return err
		}
		fn, err := r.eng.BindVertexSubset(s.lat)
		if err != nil {
			return err
		}
		s.sample = fn
		s.checked = true
	}
	B := s.chains
	cb := min(B, ChainBlock(r.q))
	groups := (B + cb - 1) / cb
	nfree := len(free)
	items := nfree * groups
	workers := s.nworkers
	if workers <= 0 {
		workers = DefaultWorkers(items * cb)
	}
	workers = max(min(workers, items), 1)
	s.ensureWorkers(workers, cb)
	sample := s.sample
	draws := s.draws
	updates := make([]int64, workers)
	stages := []func(w, round int) error{
		func(w, round int) error {
			lo, hi := BlockOf(items, workers, w)
			rng := &s.workers[w].rng
			if groups == 1 && nfree == r.n {
				// Fully unpinned, single chain group: the worker's rows
				// form one contiguous region, filled in the same
				// (vertex, chain) order as the general walk below.
				row := draws[lo*B : hi*B]
				for i := range row {
					row[i] = rng.Uint64() >> 11 << 1
				}
				return nil
			}
			g := lo / nfree
			k := lo - g*nfree
			for it := lo; it < hi; it++ {
				v := free[k]
				c0 := g * cb
				row := draws[v*B+c0 : v*B+min(c0+cb, B)]
				for i := range row {
					row[i] = rng.Uint64() >> 11 << 1
				}
				if k++; k == nfree {
					k = 0
					g++
				}
			}
			return nil
		},
		func(w, round int) error {
			lo, hi := BlockOf(items, workers, w)
			wk := &s.workers[w]
			g := lo / nfree
			k := lo - g*nfree
			for it := lo; it < hi; it++ {
				v := free[k]
				c0 := g * cb
				c1 := min(c0+cb, B)
				if k++; k == nfree {
					k = 0
					g++
				}
				rowv := draws[v*B+c0 : v*B+c1]
				var win []int32
				if adj := r.freeAdj[v]; len(adj) <= 4 {
					// Fused padded-rival pass: four branchless key
					// compares per chain, winners compacted in place.
					rv := r.riv[4*v : 4*v+4]
					bb := r.rivBit[4*v : 4*v+4]
					o0 := int(rv[0])*B + c0
					o1 := int(rv[1])*B + c0
					o2 := int(rv[2])*B + c0
					o3 := int(rv[3])*B + c0
					r0 := draws[o0 : o0+len(rowv)]
					r1 := draws[o1 : o1+len(rowv)]
					r2 := draws[o2 : o2+len(rowv)]
					r3 := draws[o3 : o3+len(rowv)]
					b0, b1, b2, b3 := bb[0], bb[1], bb[2], bb[3]
					win = wk.win[:len(rowv)]
					idx := 0
					for base := 0; base < len(rowv); base += 64 {
						end := min(base+64, len(rowv))
						// Keys are 54-bit, so dv − key keeps bit 63 clear
						// exactly when dv survives that rival (a
						// compare-and-branch would mispredict on the ~even
						// phase outcomes). The word loop keeps the pass
						// pure ALU — winners land in a bitmask, and only
						// the ~1/(deg+1) survivors pay the indexed store.
						var m uint64
						for i := base; i < end; i++ {
							dv := rowv[i]
							won := ^((dv - (r0[i] | b0)) |
								(dv - (r1[i] | b1)) |
								(dv - (r2[i] | b2)) |
								(dv - (r3[i] | b3))) >> 63
							m |= won << (i - base)
						}
						for m != 0 {
							i := bits.TrailingZeros64(m)
							m &= m - 1
							win[idx] = int32(c0 + base + i)
							idx++
						}
					}
					win = win[:idx]
				} else {
					// High-degree fallback: rival-major row sweep with
					// the same shifted-key compare.
					won := wk.won[:len(rowv)]
					for i := range won {
						won[i] = 1
					}
					for _, u := range adj {
						var bit uint64
						if int(u) > v {
							bit = 1
						}
						rowu := draws[int(u)*B+c0:]
						for i, dv := range rowv {
							won[i] &^= uint8((dv - (rowu[i] | bit)) >> 63)
						}
					}
					win = wk.win[:0]
					for i, ok := range won {
						if ok != 0 {
							win = append(win, int32(c0+i))
						}
					}
				}
				if len(win) == 0 {
					continue
				}
				if err := sample(v, win, wk.buf, wk.sc, &wk.rng); err != nil {
					return err
				}
				updates[w] += int64(len(win))
			}
			return nil
		},
	}
	if err := RunRounds(workers, rounds, stages); err != nil {
		return err
	}
	s.rounds += rounds
	for _, u := range updates {
		s.updates += u
	}
	return nil
}
