package gibbs

// batch.go holds the per-goroutine scratch of the multi-chain kernels
// behind the batched engines (internal/sampler.Batch, the batched Luby and
// Metropolis engines of internal/psample): B independent chains share one
// Compiled engine and store their configurations in a state.Lattice —
// chain-major per vertex, cell (v, c) at vals[v*B+c]. Advancing the same
// vertex in many chains at once lets the kernels fetch the per-vertex plan
// once per vertex instead of once per chain and walk each factor's table
// for all chains while it is cache-hot. A dense chain block [c0,c1) is
// just the contiguous chain list c0…c1−1, so one heat-bath kernel family
// (subset.go) serves dense and masked updates alike.

// BatchScratch holds the per-goroutine buffers of the batched kernels.
type BatchScratch struct {
	base   []int32
	assign []int
	// delta holds the per-toggled-vertex index-delta rows of
	// FilterWeightBatch (k rows of c1−c0 entries each), grown on demand.
	delta []int32
	// ident is the identity chain list 0, 1, 2, …, grown on demand; its
	// slice [c0:c1] is the dense block c0…c1−1 as a chain list.
	ident []int32
}

// NewBatchScratch returns scratch sized for chain groups of up to chains.
func NewBatchScratch(chains int) *BatchScratch {
	return &BatchScratch{base: make([]int32, chains)}
}

// deltaBuf returns the delta scratch grown to at least n entries.
func (sc *BatchScratch) deltaBuf(n int) []int32 {
	if len(sc.delta) < n {
		sc.delta = make([]int32, n)
	}
	return sc.delta[:n]
}

// span returns the chain list c0, c0+1, …, c1−1, growing the identity
// list to c1 entries on first use so steady-state calls allocate nothing.
func (sc *BatchScratch) span(c0, c1 int) []int32 {
	if len(sc.ident) < c1 {
		sc.ident = make([]int32, c1)
		for i := range sc.ident {
			sc.ident[i] = int32(i)
		}
	}
	return sc.ident[c0:c1]
}
