// Package sampler unifies every dynamics of the repo behind one interface
// and one registry, and adds the batched multi-chain engine.
//
// The paper (Feng & Yin, PODC 2018) gives several dynamics with the same
// stationary Gibbs distribution — sequential Glauber, LubyGlauber,
// LocalMetropolis — and this package adds a fourth, ChromaticGlauber.
// Before it existed, every consumer (experiments, cmd/lsample, the
// benchmarks) reached each dynamic through its own ad-hoc entry point and
// its own switch statement; they now select dynamics by name through
// Lookup/Create, and per-dynamic knowledge (how many rounds make one
// "sweep-equivalent") lives in the registry entry instead of being
// re-derived at every call site.
//
// The interface is deliberately small: a dynamic is something that can be
// restarted from the instance's canonical start (Reset), advanced by whole
// rounds (Run), and observed (State, Rounds). What a "round" is differs
// per dynamic — one single-site update for Glauber, one phase for
// LubyGlauber, one all-vertex proposal round for LocalMetropolis, one full
// χ-stage sweep for ChromaticGlauber — and Info.SweepRounds converts
// between them: Run(SweepRounds(in)) performs ≈ one expected update per
// free vertex for every registered dynamic, which is what makes mixing
// budgets comparable across dynamics.
//
// Each dynamic registers exactly one constructor: the sequential baseline
// its single-chain New, every other dynamic its batched engine (NewBatch),
// which at B = 1 is also its single-chain engine.
package sampler

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/state"
)

// Sampler is the common control surface of every dynamic. All four
// built-in dynamics implement it: the three batched engines natively, the
// sequential chain through a thin adapter.
type Sampler interface {
	// Reset restarts the dynamic from the instance's canonical start (the
	// greedy feasible completion of the pinning) with fresh RNG streams
	// derived from seed.
	Reset(seed int64) error
	// Run advances the dynamic by the given number of its own rounds.
	Run(rounds int) error
	// State returns a copy of the current configuration.
	State() dist.Config
	// Rounds returns the rounds executed since construction or the last
	// Reset.
	Rounds() int
}

// MultiChain is a Sampler advancing B independent chains in lockstep over
// one chain-major state lattice — the control surface of every batched
// engine (the chromatic Batch and the batched LubyGlauber and
// LocalMetropolis engines of internal/psample). State() is chain 0's
// configuration, so a MultiChain at B = 1 is the dynamic's single-chain
// engine; diagnostics that want all chains (the R̂ accumulator) read
// Chains/Chain/Lattice.
type MultiChain interface {
	Sampler
	// Chains returns B, the number of independent chains.
	Chains() int
	// Chain returns a copy of chain c's current configuration.
	Chain(c int) dist.Config
	// Lattice exposes the chain-major state container (read-only for
	// callers).
	Lattice() *state.Lattice
	// SetWorkers overrides the worker count (nonpositive restores the
	// CPU-scaled default). Per-worker RNG streams make trajectories depend
	// on it, so callers wanting machine-independent runs pin it.
	SetWorkers(w int)
}

// Info is one registry entry: a named dynamic plus the per-dynamic
// knowledge its consumers need.
type Info struct {
	// Name is the registry key (also the cmd/lsample -algo value).
	Name string
	// Synopsis is a one-line description for CLI help output.
	Synopsis string
	// New constructs a dynamic that has no batched form (the sequential
	// baseline) on the instance, started from the greedy completion of the
	// pinning, with RNG streams derived from seed. Exactly one of New and
	// NewBatch is set.
	New func(in *gibbs.Instance, seed int64) (Sampler, error)
	// SweepRounds returns how many rounds of this dynamic make one
	// sweep-equivalent (≈ one expected update per free vertex).
	SweepRounds func(in *gibbs.Instance) int
	// NewBatch constructs the batched multi-chain engine of the dynamic;
	// at chains = 1 it is the dynamic's single-chain engine.
	NewBatch func(in *gibbs.Instance, chains int, seed int64) (MultiChain, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Info{}
)

// Register adds a dynamic to the registry. It panics on an empty name, a
// duplicate, a missing sweep measure, or anything but exactly one
// constructor — registration is an init-time programming act, not a
// runtime input.
func Register(info Info) {
	if info.Name == "" || info.SweepRounds == nil || (info.New == nil) == (info.NewBatch == nil) {
		panic("sampler: Register needs a name, exactly one of New and NewBatch, and a sweep measure")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("sampler: dynamic %q registered twice", info.Name))
	}
	registry[info.Name] = info
}

// Lookup returns the registry entry for name.
func Lookup(name string) (Info, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	info, ok := registry[name]
	return info, ok
}

// Names returns the registered dynamic names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Options configures Create, the registry's single creation path.
type Options struct {
	// Chains selects the chain count: 0 is the dynamic's single-chain
	// engine — its batched engine at B = 1, or New for a dynamic without
	// one; B ≥ 1 is the batched engine advancing B independent chains in
	// lockstep (an error for dynamics without one). A batched result
	// implements MultiChain.
	Chains int
	// Seed derives every RNG stream of the dynamic.
	Seed int64
}

// Create constructs the named dynamic on the instance. It is the one
// creation path consumers (cmd/lsample, the experiments, the adaptive run
// driver, the sampling service) call.
func Create(name string, in *gibbs.Instance, o Options) (Sampler, error) {
	info, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("sampler: unknown dynamic %q (have %v)", name, Names())
	}
	if info.NewBatch == nil {
		if o.Chains != 0 {
			return nil, fmt.Errorf("sampler: dynamic %q has no batched multi-chain form (have %v)", name, MultiNames())
		}
		return info.New(in, o.Seed)
	}
	chains := o.Chains
	if chains == 0 {
		chains = 1
	}
	m, err := info.NewBatch(in, chains, o.Seed)
	if err != nil {
		// A failed constructor's typed nil must not leak as a non-nil
		// Sampler.
		return nil, err
	}
	return m, nil
}

// MultiNames returns the registered dynamics with a batched multi-chain
// form, sorted.
func MultiNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name, info := range registry {
		if info.NewBatch != nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// SweepRounds returns the rounds-per-sweep-equivalent of the named dynamic
// on the instance.
func SweepRounds(name string, in *gibbs.Instance) (int, error) {
	info, ok := Lookup(name)
	if !ok {
		return 0, fmt.Errorf("sampler: unknown dynamic %q (have %v)", name, Names())
	}
	return max(info.SweepRounds(in), 1), nil
}
