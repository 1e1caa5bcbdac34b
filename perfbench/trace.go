package main

// trace.go: the traced run. It replays run.Drive from the benchmark's own
// code — the same engine seed, worker pin, observe step and check cadence
// — and times every call into a layer's public functions. The replay must
// reproduce the untraced Drive bit for bit (report and final lattice), or
// the traced run fails: a per-layer breakdown of some other computation
// would explain nothing.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/run"
	"repro/internal/sampler"
	"repro/internal/state"
)

// spans are one traced drive's total time per layer.
type spans struct {
	create, rhatNew, run, observe, worst, split, ess time.Duration
}

func (s spans) sum() time.Duration {
	return s.create + s.rhatNew + s.run + s.observe + s.worst + s.split + s.ess
}

// tracedDrive is one replayed drive.
type tracedDrive struct {
	wall      time.Duration
	sp        spans
	sweepUS   []float64
	sweeps    int
	checks    int
	converged bool
	// rhat/split/ess and their vertices are the last check's diagnostics.
	rhat, split, ess     float64
	worstV, splitV, essV int
	progress             int64
	rhatNewBytes         uint64
	final                sampler.MultiChain
}

// counterOf reads the engine's progress counter: accepted proposals for
// LocalMetropolis, heat-bath updates for the Glauber family.
func counterOf(m sampler.MultiChain) int64 {
	if a, ok := m.(interface{ Accepts() int64 }); ok {
		return a.Accepts()
	}
	if u, ok := m.(interface{ Updates() int64 }); ok {
		return u.Updates()
	}
	return 0
}

// replayDrive runs the loop of run.Drive for a one-stage policy with a
// span around every layer call.
func replayDrive(in *gibbs.Instance, dyn string, seed int64, workers int) (*tracedDrive, error) {
	td := &tracedDrive{rhat: math.NaN(), split: math.NaN(), ess: math.NaN(), worstV: -1, splitV: -1, essV: -1}
	start := time.Now()
	m, err := newEngine(dyn, in, dist.StreamSeed(seed, 0), workers)
	if err != nil {
		return nil, err
	}
	td.sp.create = time.Since(start)
	sr, err := sampler.SweepRounds(dyn, in)
	if err != nil {
		return nil, err
	}
	a0 := allocated()
	t0 := time.Now()
	acc, err := sampler.NewRhat(m)
	td.sp.rhatNew = time.Since(t0)
	td.rhatNewBytes = allocated() - a0
	if err != nil {
		return nil, err
	}
	c0 := counterOf(m)
	since := 0
	for td.sweeps < maxSweeps {
		t0 := time.Now()
		if err := m.Run(sr); err != nil {
			return nil, err
		}
		t1 := time.Now()
		acc.Observe()
		t2 := time.Now()
		td.sp.run += t1.Sub(t0)
		td.sp.observe += t2.Sub(t1)
		td.sweepUS = append(td.sweepUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		td.sweeps++
		if since++; since < run.DefaultCheckEvery || !acc.SplitReady() {
			continue
		}
		since = 0
		td.checks++
		wv, rh, err := acc.Worst()
		if err != nil {
			return nil, err
		}
		t3 := time.Now()
		sv, srh, err := acc.WorstSplit()
		if err != nil {
			return nil, err
		}
		t4 := time.Now()
		ev, ess, err := acc.MinESS()
		if err != nil {
			return nil, err
		}
		t5 := time.Now()
		td.sp.worst += t3.Sub(t2)
		td.sp.split += t4.Sub(t3)
		td.sp.ess += t5.Sub(t4)
		td.rhat, td.worstV = rh, wv
		td.split, td.splitV = srh, sv
		td.ess, td.essV = ess, ev
		if rh <= rhatTarget {
			td.converged = true
			break
		}
	}
	td.progress = counterOf(m) - c0
	td.wall = time.Since(start)
	td.final = m
	return td, nil
}

// mismatch returns how the replay differs from Drive's report and final
// lattice, or "" when it reproduces both exactly.
func mismatch(rep *run.Report, final sampler.MultiChain, td *tracedDrive) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	checks := 0
	for _, st := range rep.Stages {
		checks += len(st.Checks)
	}
	switch {
	case rep.Sweeps != td.sweeps:
		return fmt.Sprintf("sweeps %d vs %d", rep.Sweeps, td.sweeps)
	case rep.Converged != td.converged:
		return fmt.Sprintf("converged %v vs %v", rep.Converged, td.converged)
	case checks != td.checks:
		return fmt.Sprintf("checks %d vs %d", checks, td.checks)
	case !same(rep.Rhat, td.rhat) || rep.WorstVertex != td.worstV:
		return fmt.Sprintf("rhat %v@%d vs %v@%d", rep.Rhat, rep.WorstVertex, td.rhat, td.worstV)
	case !same(rep.SplitRhat, td.split) || rep.SplitVertex != td.splitV:
		return fmt.Sprintf("split rhat %v@%d vs %v@%d", rep.SplitRhat, rep.SplitVertex, td.split, td.splitV)
	case !same(rep.ESS, td.ess) || rep.ESSVertex != td.essV:
		return fmt.Sprintf("ess %v@%d vs %v@%d", rep.ESS, rep.ESSVertex, td.ess, td.essV)
	case !sameLattice(final.Lattice(), td.final.Lattice()):
		return "final lattices differ"
	}
	return ""
}

func sameLattice(a, b *state.Lattice) bool {
	if a.N() != b.N() || a.Chains() != b.Chains() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		for c := 0; c < a.Chains(); c++ {
			if a.Get(v, c) != b.Get(v, c) {
				return false
			}
		}
	}
	return true
}

// tracePair is one seed's untraced drive and its traced replay.
type tracePair struct {
	plain  drive
	traced *tracedDrive
}

// tracedPhase runs, for each drive seed of the drive phase in turn, the
// untraced Drive and the traced replay (alternating which goes first, so
// drift does not bias the overhead ratio), until the budget is spent and
// at least minTraced seeds are done. A seed fails when its drive fails or
// the replay does not reproduce it.
func tracedPhase(in *gibbs.Instance, dyn string, seed int64, workers int, ref referee, budget time.Duration, deadline time.Time) ([]tracePair, *tally, error) {
	var pairs []tracePair
	t := &tally{}
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minTraced && time.Since(start) >= budget || i > 0 && time.Now().After(deadline) {
			return pairs, t, nil
		}
		s := seedFor(seed, streamDrive, i)
		var p tracePair
		replay := func() error {
			runtime.GC()
			td, err := replayDrive(in, dyn, s, workers)
			p.traced = td
			return err
		}
		if i%2 == 1 {
			if err := replay(); err != nil {
				return nil, nil, fmt.Errorf("traced replay %d: %w", i, err)
			}
		}
		p.plain = runDrive(in, dyn, s, workers, ref)
		if i%2 == 0 {
			if err := replay(); err != nil {
				return nil, nil, fmt.Errorf("traced replay %d: %w", i, err)
			}
		}
		reason := p.plain.reason
		if reason == "" {
			if d := mismatch(p.plain.rep, p.plain.final, p.traced); d != "" {
				reason = "replay mismatch: " + d
			}
		}
		t.add(reason)
		p.plain.final = nil
		if i > 0 {
			// Only the first replay's chains are kept, as the kernels'
			// converged snapshot.
			p.traced.final = nil
		}
		pairs = append(pairs, p)
	}
}
