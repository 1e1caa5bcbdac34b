// Command perfbench is the repository's benchmark: it measures how long
// run.Drive takes to bring 16 batched chains to a worst-vertex R̂ target
// on three workloads, what one chain-round of each batched dynamic costs,
// and — in a separate traced run — where the time goes, layer by layer.
// It checks the samples it times against exact referees. Run it from the
// repository root through the wrapper, which builds it from source:
//
//	bash perfbench/run.sh --workload coloring-torus32-luby --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, with
// --trace 1 the per-layer ones. The last line of standard output is the
// JSON result; the lines before it are the same numbers for people, with
// sample counts and the host fingerprint. README.md documents the
// workloads, the metrics and which layer metric moves which end-to-end
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/psample"
	"repro/internal/run"
	"repro/internal/sampler"
	"repro/internal/spec"
)

// The measured policy and the phase sizes.
const (
	chains      = 16
	rhatTarget  = 1.05
	maxSweeps   = 1024
	fixedSweeps = 64
	// minDrives is the least number of drives per run; converge_sweeps_p50
	// is taken over exactly this many, so it is exact for a seed whatever
	// the host's speed.
	minDrives = 32
	minTraced = 6
	minFixed  = 5
	setupReps = 15
	// driveShare is the share of --seconds given to the drive phase (or
	// the traced drive pairs); the rest goes to the fixed-budget phase (or
	// the kernel and barrier benchmarks).
	driveShare = 0.85
	// startLimit is when a run stops starting new drives whatever its
	// minimum counts, so that it ends well inside three minutes.
	startLimit = 120 * time.Second
	// layerSumLo and layerSumHi bound run.layer_sum_ratio; outside that
	// band, time goes to a layer the trace does not cover.
	layerSumLo, layerSumHi = 0.97, 1.0
)

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
	perLayer   bool
}

// metricDefs is every metric, in report order. BENCHMARK.json lists the
// same names and units; a test keeps the two in step.
var metricDefs = []metricDef{
	{"converge_s_p50", "s", false},
	{"converge_sweeps_p50", "sweeps", false},
	{"drive_alloc_mb", "MB", false},
	{"ns_per_chain_round", "ns", false},
	{"pass_frac", "ratio", false},
	{"setup_s", "s", false},
	{"setup_alloc_mb", "MB", false},

	{"spec.build_s", "s", true},
	{"gibbs.compile_s", "s", true},
	{"gibbs.plan_s", "s", true},
	{"gibbs.cond_build_s", "s", true},
	{"gibbs.cond_bytes", "B", true},
	{"gibbs.cond_coverage", "ratio", true},
	{"psample.rules_s", "s", true},
	{"sampler.create_s", "s", true},
	{"gibbs.sample_batch_ns_per_cell", "ns", true},
	{"gibbs.sample_subset_ns_per_cell", "ns", true},
	{"gibbs.filter_ns_per_factor_chain", "ns", true},
	{"psample.barrier_ns_per_round", "ns", true},
	{"engine.create_s", "s", true},
	{"engine.run_s", "s", true},
	{"engine.sweep_us_p50", "us", true},
	{"engine.sweep_us_p99", "us", true},
	{"engine.useful_ratio", "ratio", true},
	{"engine.kernel_ratio", "ratio", true},
	{"rhat.new_s", "s", true},
	{"rhat.new_mb", "MB", true},
	{"rhat.observe_s", "s", true},
	{"rhat.worst_s", "s", true},
	{"rhat.split_s", "s", true},
	{"rhat.ess_s", "s", true},
	{"rhat.checks", "count", true},
	{"run.residual_s", "s", true},
	{"run.layer_sum_ratio", "ratio", true},
	{"trace.overhead_ratio", "ratio", true},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics and prints each with its sample count.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

func (r *report) set(name string, value float64, note string) {
	for _, d := range metricDefs {
		if d.name == name {
			r.metrics[name] = metric{Value: value, Unit: d.unit}
			fmt.Fprintf(r.out, "%-34s %14.6g %-6s %s\n", name, value, d.unit, note)
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// complete reports the first metric of the mode that was not set.
func (r *report) complete(perLayer bool) error {
	for _, d := range metricDefs {
		if _, ok := r.metrics[d.name]; d.perLayer == perLayer && !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	return nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed every input of the run derives from")
	seconds := fs.Int("seconds", 30, "measuring time of the run")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics from the traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%v), --seconds ≥ 1 and --trace 0|1\n", err)
		return 2
	}
	workers := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(workers)
	fmt.Fprintln(stdout, fingerprint(workers, *seed))
	fmt.Fprintf(stdout, "workload %s: dynamic %s, %d chains, R̂ ≤ %g, check every %d sweeps, budget %d sweeps\n",
		w.name, w.dynamic, chains, rhatTarget, run.DefaultCheckEvery, maxSweeps)
	cfg := config{w: w, seed: *seed, workers: workers, measure: time.Duration(*seconds) * time.Second, deadline: time.Now().Add(startLimit)}
	rep := &report{out: stdout, metrics: map[string]metric{}}
	var res *result
	if *trace == 1 {
		res, err = tracedRun(cfg, rep)
	} else {
		res, err = plainRun(cfg, rep)
	}
	if err == nil {
		err = rep.complete(*trace == 1)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res.Metrics = rep.metrics
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// config is one run's settings.
type config struct {
	w        *workload
	seed     int64
	workers  int
	measure  time.Duration
	deadline time.Time
}

func (c config) share(f float64) time.Duration {
	return time.Duration(float64(c.measure) * f)
}

// plainRun measures the end-to-end metrics: set-up, the drive phase and
// the fixed-budget phase, all untraced.
func plainRun(c config, rep *report) (*result, error) {
	doc, err := c.w.doc()
	if err != nil {
		return nil, err
	}
	ps, err := measurePlain(c, doc)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(rep.out, "referee: %s\n", ps.ref.describe())
	t := &tally{}
	var secs, sweeps, mbs, stats []float64
	for i, d := range ps.drives {
		t.add(d.reason)
		secs = append(secs, d.seconds)
		mbs = append(mbs, d.allocMB)
		stats = append(stats, d.stat)
		if i < minDrives && d.rep != nil {
			sweeps = append(sweeps, float64(d.rep.Sweeps))
		}
	}
	if len(ps.fixed) == 0 {
		return nil, ps.fixedErr
	}
	correct := outputsCorrect(t) && ps.fixedErr == nil
	if ps.fixedErr != nil {
		fmt.Fprintf(rep.out, "FAIL fixed-budget phase: %v\n", ps.fixedErr)
	}
	printFailures(rep.out, t)
	maxStat, _ := percentile(stats, 100)
	fmt.Fprintf(rep.out, "referee statistic: median %.3g, max %.3g over %d drives\n", median(stats), maxStat, len(stats))
	pHi, n := tailPercentile(len(secs)), len(secs)
	vHi, _ := percentile(secs, pHi)
	rep.set("converge_s_p50", median(secs), fmt.Sprintf("median of %d drives (p%g %.4g s)", n, pHi, vHi))
	rep.set("converge_sweeps_p50", groupedMedian(sweeps, run.DefaultCheckEvery), fmt.Sprintf("grouped median of the first %d drives' stop sweeps", len(sweeps)))
	rep.set("drive_alloc_mb", median(mbs), fmt.Sprintf("median of %d drives", n))
	rep.set("ns_per_chain_round", median(ps.fixed), fmt.Sprintf("median of %d runs of %d sweep-equivalents", len(ps.fixed), fixedSweeps))
	rep.set("pass_frac", 1-t.failFrac(), fmt.Sprintf("%d of %d drives passed (fail_frac %.4g)", t.attempted-t.failed, t.attempted, t.failFrac()))
	rep.set("setup_s", median(ps.setupSecs), fmt.Sprintf("median of %d fresh builds", len(ps.setupSecs)))
	rep.set("setup_alloc_mb", median(ps.setupMB), fmt.Sprintf("median of %d fresh builds", len(ps.setupMB)))
	return &result{Correct: correct, Attempted: t.attempted, Failed: t.failed}, nil
}

// tracedRun measures the per-layer metrics: the traced set-up, the traced
// drive replays beside untraced drives on the same seeds, and the kernel
// and barrier benchmarks.
func tracedRun(c config, rep *report) (*result, error) {
	doc, err := c.w.doc()
	if err != nil {
		return nil, err
	}
	laps := map[string][]float64{}
	var built *spec.Built
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		last := time.Now()
		b, err := buildEngine(c.w, doc, seedFor(c.seed, streamSetup, i), c.workers, func(name string) {
			now := time.Now()
			laps[name] = append(laps[name], now.Sub(last).Seconds())
			last = now
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		t0 := time.Now()
		if _, err := psample.NewRules(b.Instance); err != nil {
			return nil, err
		}
		laps["psample.rules_s"] = append(laps["psample.rules_s"], time.Since(t0).Seconds())
		built = b
	}
	in := built.Instance
	ref, err := c.w.referee(built)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(rep.out, "referee: %s\n", ref.describe())
	pairs, t, err := tracedPhase(in, c.w.dynamic, c.seed, c.workers, ref, c.share(driveShare), c.deadline)
	if err != nil {
		return nil, err
	}
	printFailures(rep.out, t)
	rules, err := psample.NewRules(in)
	if err != nil {
		return nil, err
	}
	kern, err := kernelBench(in, rules, pairs[0].traced.final.Lattice(), seedFor(c.seed, streamKernel, 0), c.share((1-driveShare)*0.8))
	if err != nil {
		return nil, fmt.Errorf("kernel benchmark: %w", err)
	}
	sr, err := sampler.SweepRounds(c.w.dynamic, in)
	if err != nil {
		return nil, err
	}
	barrier, err := barrierBench(c.workers, c.w.stages(rules), sr, c.share((1-driveShare)*0.2))
	if err != nil {
		return nil, fmt.Errorf("barrier benchmark: %w", err)
	}

	note := fmt.Sprintf("median of %d fresh builds", setupReps)
	for _, name := range []string{"spec.build_s", "gibbs.compile_s", "gibbs.plan_s", "gibbs.cond_build_s", "psample.rules_s", "sampler.create_s"} {
		rep.set(name, median(laps[name]), note)
	}
	cs := in.Spec.Compiled().CondStats()
	rep.set("gibbs.cond_bytes", float64(cs.Bytes), fmt.Sprintf("%d of %d vertices cached", cs.Cached, cs.Total))
	rep.set("gibbs.cond_coverage", float64(cs.Cached)/float64(cs.Total), "")
	rep.set("gibbs.sample_batch_ns_per_cell", kern.batchNsPerCell, "converged snapshot, dense chain blocks")
	rep.set("gibbs.sample_subset_ns_per_cell", kern.subsetNsPerCell, "converged snapshot, Luby-density chain subsets")
	rep.set("gibbs.filter_ns_per_factor_chain", kern.filterNsPerFactorChain, "converged snapshot against fresh proposals")
	rep.set("psample.barrier_ns_per_round", barrier, fmt.Sprintf("%d workers, %d empty stages, %d rounds per call", c.workers, c.w.stages(rules), sr))

	nfree := len(in.FreeVertices())
	accs := len(accFactors(in))
	var create, runS, newS, newMB, observe, worst, split, ess, checks, residual, ratio, overhead, useful, kernel, sweepUS []float64
	for _, p := range pairs {
		td := p.traced
		sum := td.sp.sum()
		create = append(create, td.sp.create.Seconds())
		runS = append(runS, td.sp.run.Seconds())
		newS = append(newS, td.sp.rhatNew.Seconds())
		newMB = append(newMB, float64(td.rhatNewBytes)/1e6)
		observe = append(observe, td.sp.observe.Seconds())
		worst = append(worst, td.sp.worst.Seconds())
		split = append(split, td.sp.split.Seconds())
		ess = append(ess, td.sp.ess.Seconds())
		checks = append(checks, float64(td.checks))
		residual = append(residual, (td.wall - sum).Seconds())
		ratio = append(ratio, sum.Seconds()/td.wall.Seconds())
		overhead = append(overhead, td.wall.Seconds()/p.plain.seconds)
		useful = append(useful, float64(td.progress)/float64(nfree*chains*td.sweeps))
		var predicted float64
		switch c.w.dynamic {
		case "luby":
			predicted = float64(td.progress) * kern.subsetNsPerCell
		case "metropolis":
			predicted = float64(accs*chains*td.sweeps*sr) * kern.filterNsPerFactorChain
		default:
			predicted = float64(td.progress) * kern.batchNsPerCell
		}
		kernel = append(kernel, predicted/1e9/(td.sp.run.Seconds()*float64(c.workers)))
		sweepUS = append(sweepUS, td.sweepUS...)
	}
	n := len(pairs)
	note = fmt.Sprintf("median of %d traced drives", n)
	rep.set("engine.create_s", median(create), note)
	rep.set("engine.run_s", median(runS), note)
	p50, ns := percentile(sweepUS, 50)
	p99, _ := percentile(sweepUS, 99)
	rep.set("engine.sweep_us_p50", p50, fmt.Sprintf("%d sweeps", ns))
	rep.set("engine.sweep_us_p99", p99, fmt.Sprintf("%d sweeps, %.0f beyond", ns, float64(ns)/100))
	rep.set("engine.useful_ratio", median(useful), "updates or accepts per free cell per sweep, "+note)
	rep.set("engine.kernel_ratio", median(kernel), "kernel ns × kernel work / (engine.run_s × workers), "+note)
	rep.set("rhat.new_s", median(newS), note)
	rep.set("rhat.new_mb", median(newMB), note)
	rep.set("rhat.observe_s", median(observe), note)
	rep.set("rhat.worst_s", median(worst), note)
	rep.set("rhat.split_s", median(split), note)
	rep.set("rhat.ess_s", median(ess), note)
	rep.set("rhat.checks", median(checks), note)
	rep.set("run.residual_s", median(residual), note)
	lsr := median(ratio)
	band := fmt.Sprintf("within [%.2f, %.2f]", layerSumLo, layerSumHi)
	if lsr < layerSumLo || lsr > layerSumHi {
		band = fmt.Sprintf("FLAG: outside [%.2f, %.2f], a layer is unmeasured", layerSumLo, layerSumHi)
	}
	rep.set("run.layer_sum_ratio", lsr, band)
	rep.set("trace.overhead_ratio", median(overhead), fmt.Sprintf("traced over untraced wall, median of %d seed pairs", n))
	return &result{Correct: outputsCorrect(t), Attempted: t.attempted, Failed: t.failed}, nil
}

// outputsCorrect reports whether no failure of the tally is a wrong
// output — an infeasible chain, a rejecting referee or a replay that does
// not reproduce its drive. Errors and budget stops count as failures but
// not as wrong outputs.
func outputsCorrect(t *tally) bool {
	for reason := range t.reasons {
		if reason != "budget" && !strings.HasPrefix(reason, "error: ") {
			return false
		}
	}
	return true
}

func printFailures(out io.Writer, t *tally) {
	reasons := make([]string, 0, len(t.reasons))
	for r := range t.reasons {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(out, "FAIL %d of %d drives: %s\n", t.reasons[r], t.attempted, r)
	}
}
