package main

// drive.go: the untraced phases. Set-up builds the instance and the engine
// from the spec document again and again; the drive phase calls run.Drive
// until its time share is spent; the fixed-budget phase runs fresh
// engines for a fixed number of rounds without diagnostics (the
// `lsample -rounds` path).

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/run"
	"repro/internal/sampler"
	"repro/internal/spec"
)

// Seed streams of the phases: every input of a run derives from the
// --seed argument through dist.StreamSeed.
const (
	streamDrive = iota + 1
	streamFixed
	streamSetup
	streamKernel
)

// seedFor returns the seed of item i of a phase.
func seedFor(base int64, phase, i int) int64 {
	return dist.StreamSeed(dist.StreamSeed(base, int64(phase)), int64(i))
}

// allocated returns the bytes allocated by the process so far.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// newEngine creates the workload's batched engine through the registry and
// pins its worker count, as run.Drive does.
func newEngine(dyn string, in *gibbs.Instance, seed int64, workers int) (sampler.MultiChain, error) {
	s, err := sampler.Create(dyn, in, sampler.Options{Chains: chains, Seed: seed})
	if err != nil {
		return nil, err
	}
	m, ok := s.(sampler.MultiChain)
	if !ok {
		return nil, fmt.Errorf("dynamic %q has no multi-chain engine", dyn)
	}
	wk, ok := m.(interface{ SetWorkers(int) })
	if !ok {
		return nil, fmt.Errorf("dynamic %q cannot pin its worker count", dyn)
	}
	wk.SetWorkers(workers)
	return m, nil
}

// buildEngine runs one fresh set-up: document → spec.File → instance →
// Compiled → Plan → Cond → engine. lap, when non-nil, is called after each
// step with the step's metric name.
func buildEngine(w *workload, doc []byte, seed int64, workers int, lap func(string)) (*spec.Built, error) {
	mark := func(name string) {
		if lap != nil {
			lap(name)
		}
	}
	f, err := spec.Parse(doc)
	if err != nil {
		return nil, err
	}
	b, err := f.Build()
	if err != nil {
		return nil, err
	}
	mark("spec.build_s")
	c := b.Instance.Spec.Compiled()
	mark("gibbs.compile_s")
	c.Plan()
	mark("gibbs.plan_s")
	c.Cond()
	mark("gibbs.cond_build_s")
	if _, err := newEngine(w.dynamic, b.Instance, seed, workers); err != nil {
		return nil, err
	}
	mark("sampler.create_s")
	return b, nil
}

// setupOnce times one fresh set-up and returns the build with its seconds
// and allocated megabytes.
func setupOnce(w *workload, doc []byte, seed int64, workers int) (*spec.Built, float64, float64, error) {
	runtime.GC()
	a0 := allocated()
	t0 := time.Now()
	b, err := buildEngine(w, doc, seed, workers, nil)
	dt := time.Since(t0)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("set-up: %w", err)
	}
	return b, dt.Seconds(), float64(allocated()-a0) / 1e6, nil
}

// drivePolicy is the benchmark's convergence policy: one stage of the
// workload's dynamic, 16 chains, the worst-vertex R̂ target, the default
// check cadence, a budget far above any converging drive, and the pinned
// worker count.
func drivePolicy(dyn string, workers int) run.Policy {
	return run.Policy{
		Stages:    []run.Stage{{Dynamic: dyn}},
		Chains:    chains,
		Rhat:      rhatTarget,
		MaxSweeps: maxSweeps,
		Workers:   workers,
	}
}

// drive is one untraced run.Drive with its outcome.
type drive struct {
	seconds float64
	allocMB float64
	rep     *run.Report
	final   sampler.MultiChain
	reason  string
	stat    float64
}

// runDrive times one run.Drive call; the allocation count and the verdict
// are taken outside the timed region.
func runDrive(in *gibbs.Instance, dyn string, seed int64, workers int, ref referee) drive {
	runtime.GC()
	a0 := allocated()
	t0 := time.Now()
	rep, m, err := run.Drive(in, seed, drivePolicy(dyn, workers))
	dt := time.Since(t0)
	d := drive{seconds: dt.Seconds(), allocMB: float64(allocated()-a0) / 1e6, rep: rep, final: m}
	d.reason, d.stat = judge(in, rep, m, err, ref)
	return d
}

// judge returns why a drive failed ("" when it did not) and the referee's
// statistic. A drive fails on an error, a budget stop, an infeasible final
// chain, or a rejecting referee.
func judge(in *gibbs.Instance, rep *run.Report, m sampler.MultiChain, err error, ref referee) (string, float64) {
	switch {
	case err != nil:
		return "error: " + err.Error(), 0
	case !rep.Converged:
		return "budget", 0
	}
	if ch := infeasibleChain(in.Spec.Compiled(), m.Lattice()); ch >= 0 {
		return fmt.Sprintf("infeasible chain %d", ch), 0
	}
	stat, rerr := ref.check(m.Lattice())
	if rerr != nil {
		return "referee: " + rerr.Error(), stat
	}
	return "", stat
}

// fixedOnce runs a fresh engine for fixedSweeps sweep-equivalents without
// diagnostics and returns the ns per chain-round of its Run; a failed run
// or an infeasible final chain is an error.
func fixedOnce(in *gibbs.Instance, dyn string, seed int64, workers int) (float64, error) {
	sr, err := sampler.SweepRounds(dyn, in)
	if err != nil {
		return 0, err
	}
	rounds := fixedSweeps * sr
	m, err := newEngine(dyn, in, seed, workers)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	t0 := time.Now()
	err = m.Run(rounds)
	dt := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("fixed-budget run: %w", err)
	}
	if ch := infeasibleChain(in.Spec.Compiled(), m.Lattice()); ch >= 0 {
		return 0, fmt.Errorf("fixed-budget run: infeasible chain %d", ch)
	}
	return float64(dt.Nanoseconds()) / float64(rounds*chains), nil
}

// plainSamples are the measurements of the untraced phases.
type plainSamples struct {
	built              *spec.Built
	ref                referee
	setupSecs, setupMB []float64
	drives             []drive
	fixed              []float64
	fixedErr           error
}

// measurePlain runs the untraced phases one after the other, so that each
// measures its own steady state and none inherits another's caches or
// heap: the fresh set-ups back to back, then drives for driveShare of the
// measuring window (and at least minDrives), then fixed-budget runs for
// the rest (and at least minFixed). Drives and fixed runs use the first
// build's instance. Past the hard deadline only the first drive and the
// first fixed run still start.
func measurePlain(c config, doc []byte) (*plainSamples, error) {
	s := &plainSamples{}
	for i := 0; i < setupReps; i++ {
		b, secs, mb, err := setupOnce(c.w, doc, seedFor(c.seed, streamSetup, i), c.workers)
		if err != nil {
			return nil, err
		}
		if s.built == nil {
			s.built = b
		}
		s.setupSecs = append(s.setupSecs, secs)
		s.setupMB = append(s.setupMB, mb)
	}
	ref, err := c.w.referee(s.built)
	if err != nil {
		return nil, err
	}
	s.ref = ref
	in := s.built.Instance
	start := time.Now()
	for i := 0; i < minDrives || time.Since(start) < c.share(driveShare); i++ {
		if i > 0 && time.Now().After(c.deadline) {
			break
		}
		d := runDrive(in, c.w.dynamic, seedFor(c.seed, streamDrive, i), c.workers, ref)
		d.final = nil
		s.drives = append(s.drives, d)
	}
	start = time.Now()
	for i := 0; i < minFixed || time.Since(start) < c.share(1-driveShare); i++ {
		if i > 0 && time.Now().After(c.deadline) {
			break
		}
		ns, err := fixedOnce(in, c.w.dynamic, seedFor(c.seed, streamFixed, i), c.workers)
		if err != nil {
			s.fixedErr = err
			break
		}
		s.fixed = append(s.fixed, ns)
	}
	return s, nil
}
