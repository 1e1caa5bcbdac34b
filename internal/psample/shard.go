package psample

// shard.go is the in-process execution substrate shared by the batched
// engines (BatchLubyGlauber, BatchLocalMetropolis, and the chromatic
// sampler.Batch): a static block partition of work items across a
// bounded worker pool, with a reusable generation barrier between the
// stages of each round. With one worker the stage functions run inline —
// no goroutines, no barriers — so small instances and single-CPU machines
// pay zero synchronization overhead.

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultWorkers picks the worker count for an instance with total work
// items: one worker per available CPU, but never so many that a worker's
// block drops below minBlock items (barrier crossings would dominate).
func DefaultWorkers(total int) int {
	const minBlock = 64
	w := min(runtime.GOMAXPROCS(0), total/minBlock)
	return max(w, 1)
}

// BlockOf returns worker w's half-open item range under the static
// partition of total items across workers blocks.
func BlockOf(total, workers, w int) (lo, hi int) {
	return total * w / workers, total * (w + 1) / workers
}

// ChainBlock picks the chain-group width of the batched multi-chain
// engines: weight rows for a (vertex, chain group) item stay within a
// few kB of scratch (512 floats) regardless of q, clamped to [16, 256]
// so groups neither thrash the scratch nor degenerate to single chains.
func ChainBlock(q int) int {
	if q < 1 {
		q = 1
	}
	return min(max(512/q, 16), 256)
}

// barrier is a reusable generation barrier for a fixed party count.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	gen     int
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all parties have arrived, then releases them together.
func (b *barrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	gen := b.gen
	for b.gen == gen {
		b.cond.Wait()
	}
}

// RunRounds executes rounds iterations of the stage functions on the given
// number of workers. Within a round every worker runs stage 0 on its own
// blocks, crosses a barrier, runs stage 1, and so on — so a stage may read
// anything written by earlier stages of the same round but two workers
// never write the same item (the static partition guarantees it). A stage
// error aborts the work (remaining stages become no-ops on every worker)
// and the first error observed is returned. A stage panic is recovered and
// converted into an error the same way: the panicking worker keeps
// attending the round's barriers so the surviving workers drain instead of
// deadlocking, and the error (with the panic's stack) is returned after
// the pool has stopped.
func RunRounds(workers, rounds int, stages []func(w, round int) error) error {
	if workers <= 1 {
		// The inline path has no barrier to strand, but panics are still
		// converted so the exported contract does not depend on the
		// machine-dependent worker count.
		for r := 0; r < rounds; r++ {
			for _, stage := range stages {
				if err := runStage(stage, 0, r); err != nil {
					return err
				}
			}
		}
		return nil
	}
	bar := newBarrier(workers)
	errs := make([]error, workers)
	// failedRound is the earliest round in which a stage failed (MaxInt64
	// while none has). Workers may only stop at a barrier-aligned point
	// every worker agrees on, and "end of round failedRound" is the unique
	// such point: a failure in round ≤ r is stored before the failing
	// worker attends that round's remaining barriers, so it is visible to
	// every worker by the end of round r, while a failure from round r+1
	// (set by a worker that raced ahead through the last barrier of round
	// r) can never make the predicate failedRound ≤ r true. A plain "stop
	// as soon as a failure is visible" flag has no such agreement — one
	// worker sees it a round earlier than another, leaves the pool, and
	// strands the rest at the barrier.
	const never = int64(math.MaxInt64)
	var failedRound atomic.Int64
	failedRound.Store(never)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, stage := range stages {
					if errs[w] == nil && failedRound.Load() == never {
						if err := runStage(stage, w, r); err != nil {
							errs[w] = err
							for {
								cur := failedRound.Load()
								if cur <= int64(r) || failedRound.CompareAndSwap(cur, int64(r)) {
									break
								}
							}
						}
					}
					bar.await()
				}
				if failedRound.Load() <= int64(r) {
					break
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runStage invokes one stage call, converting a panic into an error so the
// worker can keep crossing barriers.
func runStage(stage func(w, round int) error, w, r int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("psample: worker %d: stage panicked in round %d: %v\n%s", w, r, p, debug.Stack())
		}
	}()
	return stage(w, r)
}
