// Command linfer runs LOCAL approximate inference (the counting side of the
// paper) at every vertex of a model instance: each node estimates its own
// conditional marginal distribution within the requested accuracy, and on
// small instances the output is checked against brute-force ground truth.
//
// Usage:
//
//	linfer -model hardcore -graph cycle -n 16 -lambda 1.0 -delta 0.01
//	linfer -model hardcore -graph cycle -n 16 -pin 0=1,8=0
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/decay"
	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "linfer:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("linfer", flag.ContinueOnError)
	modelName := fs.String("model", "hardcore", "model: hardcore | ising")
	graphName := fs.String("graph", "cycle", "graph: "+strings.Join(graph.GeneratorNames(), " | "))
	n := fs.Int("n", 16, "graph size parameter (vertices, or side for grid/torus)")
	lambda := fs.Float64("lambda", 1.0, "fugacity")
	beta := fs.Float64("beta", 0.6, "Ising edge activity")
	delta := fs.Float64("delta", 0.01, "total variation accuracy")
	pinFlag := fs.String("pin", "", "comma-separated pins v=x (self-reducibility)")
	checkExact := fs.Bool("check", true, "compare against brute force when feasible")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*delta > 0) || math.IsInf(*delta, 1) {
		return fmt.Errorf("-delta %v is not a finite positive accuracy, e.g. -delta 0.01", *delta)
	}
	g, err := graph.Build(*graphName, *n)
	if err != nil {
		return err
	}
	pinned := dist.NewConfig(g.N())
	if *pinFlag != "" {
		for _, kv := range strings.Split(*pinFlag, ",") {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad pin %q", kv)
			}
			v, err := strconv.Atoi(strings.TrimSpace(parts[0]))
			if err != nil {
				return err
			}
			x, err := strconv.Atoi(strings.TrimSpace(parts[1]))
			if err != nil {
				return err
			}
			if v < 0 || v >= g.N() {
				return fmt.Errorf("pin vertex %d out of range", v)
			}
			pinned[v] = x
		}
	}

	var (
		in *gibbs.Instance
		o  core.Oracle
	)
	switch strings.ToLower(*modelName) {
	case "hardcore":
		spec, err2 := model.Hardcore(g, *lambda)
		if err2 != nil {
			return err2
		}
		in, err = gibbs.NewInstance(spec, pinned)
		if err != nil {
			return err
		}
		est, err2 := decay.NewHardcoreSAW(g, *lambda)
		if err2 != nil {
			return err2
		}
		rate := model.HardcoreDecayRate(*lambda, g.MaxDegree())
		if rate >= 1 {
			return fmt.Errorf("λ=%g outside uniqueness for Δ=%d: approximate inference is not locally computable (Theorem 5.1 + Ω(diam) bound)", *lambda, g.MaxDegree())
		}
		o = &core.DecayOracle{Est: est, Rate: rate, N: g.N()}
	case "ising":
		p := model.TwoSpinParams{Beta: *beta, Gamma: *beta, Lambda: *lambda}
		spec, err2 := model.TwoSpin(g, p)
		if err2 != nil {
			return err2
		}
		in, err = gibbs.NewInstance(spec, pinned)
		if err != nil {
			return err
		}
		est, err2 := decay.NewTwoSpinSAW(g, p)
		if err2 != nil {
			return err2
		}
		o = &core.DecayOracle{Est: est, Rate: 0.9, N: g.N()}
	default:
		return fmt.Errorf("unknown model %q", *modelName)
	}

	_ = rand.New(rand.NewSource(1)) // inference is deterministic (Prop. 3.3)
	fmt.Printf("model=%s n=%d Δ=%d δ=%g pinned=%d\n", *modelName, g.N(), g.MaxDegree(), *delta, len(in.Lambda()))
	worst := 0.0
	canCheck := *checkExact && g.N() <= 24
	for v := 0; v < g.N(); v++ {
		m, radius, err := o.Marginal(in, v, *delta)
		if err != nil {
			return err
		}
		line := fmt.Sprintf("v=%-3d radius=%-3d µ̂=%v", v, radius, m)
		if canCheck {
			want, err := exact.Marginal(in, v)
			if err != nil {
				return err
			}
			tv, err := dist.TV(m, want)
			if err != nil {
				return err
			}
			if tv > worst {
				worst = tv
			}
			line += fmt.Sprintf("  |err|=%.2g", tv)
		}
		fmt.Println(line)
	}
	if canCheck {
		status := "within bound"
		if worst > *delta {
			status = "EXCEEDS bound"
		}
		fmt.Printf("worst error %.3g vs δ=%g: %s\n", worst, *delta, status)
	}
	return nil
}
