package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"

	"repro/internal/graph"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/state"
)

// sampled returns the chains of a chromatic engine run long past mixing
// on the document's instance.
func sampled(t *testing.T, f *spec.File, sweeps int) (*spec.Built, *state.Lattice) {
	t.Helper()
	b, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := newEngine("chromatic", b.Instance, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(sweeps); err != nil {
		t.Fatal(err)
	}
	return b, m.Lattice()
}

func TestOccupancyRefereeRejectsShiftedOccupancy(t *testing.T) {
	g := graph.CompleteTree(2, 7)
	b, lat := sampled(t, &spec.File{Version: spec.Version, Graph: spec.GraphFrom(g), Model: &spec.Model{Kind: "hardcore", Lambda: 1}}, 300)
	ref, err := newOccupancyReferee(b.Input, 1, chains)
	if err != nil {
		t.Fatal(err)
	}
	if stat, err := ref.check(lat); err != nil {
		t.Fatalf("referee rejected stationary chains (|t| = %.2f): %v", stat, err)
	}
	// Shift the larger class (odd depths, the leaves among them) down by
	// (bound + 3) standard errors in every chain, keeping the between-chain
	// spread.
	counts := make([][2]float64, chains)
	for v, g := range ref.class {
		for c := 0; c < chains; c++ {
			counts[c][g] += float64(lat.Get(v, c))
		}
	}
	mean := 0.0
	for _, c := range counts {
		mean += c[1] / chains
	}
	se := (mean - ref.mean[1]) / tStatistic(counts, 1, ref.mean[1])
	drop := int(se*(ref.bound+3)) + 1
	for c := 0; c < chains; c++ {
		left := drop
		for v, g := range ref.class {
			if left > 0 && g == 1 && lat.Get(v, c) == 1 {
				lat.Set(v, c, 0)
				left--
			}
		}
		if left > 0 {
			t.Fatalf("chain %d has too few occupied vertices to shift", c)
		}
	}
	if stat, err := ref.check(lat); err == nil {
		t.Fatalf("referee accepted occupancy shifted by %d vertices per chain (|t| = %.2f, bound %.2f)", drop, stat, ref.bound)
	}
}

func TestUniformRefereeRejectsSkewedHistogram(t *testing.T) {
	_, lat := sampled(t, &spec.File{Version: spec.Version, Graph: spec.Graph{Kind: "torus", N: 8}, Model: &spec.Model{Kind: "coloring", Q: 14}}, 300)
	ref := newUniformReferee(14)
	if stat, err := ref.check(lat); err != nil {
		t.Fatalf("referee rejected stationary chains (chi2 = %.1f): %v", stat, err)
	}
	// Recolor most of color 1 as color 0: a 1024-cell histogram with one
	// color near doubled and one near empty.
	moved := 0
	for v := 0; v < lat.N(); v++ {
		for c := 0; c < lat.Chains() && moved < 60; c++ {
			if lat.Get(v, c) == 1 {
				lat.Set(v, c, 0)
				moved++
			}
		}
	}
	if stat, err := ref.check(lat); err == nil {
		t.Fatalf("referee accepted a histogram with %d cells moved from color 1 to 0 (chi2 = %.1f, bound %.1f)", moved, stat, ref.bound)
	}
}

func TestInfeasibleChainFindsAConflict(t *testing.T) {
	b, lat := sampled(t, &spec.File{Version: spec.Version, Graph: spec.Graph{Kind: "torus", N: 8}, Model: &spec.Model{Kind: "coloring", Q: 14}}, 10)
	c := b.Instance.Spec.Compiled()
	if ch := infeasibleChain(c, lat); ch != -1 {
		t.Fatalf("proper colorings reported infeasible at chain %d", ch)
	}
	u := b.Input.Neighbors(0)[0]
	lat.Set(u, 5, lat.Get(0, 5))
	if ch := infeasibleChain(c, lat); ch != 5 {
		t.Fatalf("planted conflict in chain 5 reported at chain %d", ch)
	}
}

func TestBipartitionRejectsOddCycle(t *testing.T) {
	if _, err := bipartition(graph.Cycle(5)); err == nil {
		t.Error("odd cycle accepted as bipartite")
	}
	class, err := bipartition(graph.CompleteTree(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if class[0] != 0 || class[1] != 1 || class[3] != 0 {
		t.Errorf("depth parity classes wrong: %v", class[:4])
	}
}

// stubReferee rejects every lattice.
type stubReferee struct{}

func (stubReferee) check(*state.Lattice) (float64, error) { return 9, errors.New("planted") }
func (stubReferee) describe() string                      { return "stub" }

func TestJudgeNamesEveryFailure(t *testing.T) {
	b, err := (&spec.File{Version: spec.Version, Graph: spec.Graph{Kind: "torus", N: 4}, Model: &spec.Model{Kind: "coloring", Q: 14}}).Build()
	if err != nil {
		t.Fatal(err)
	}
	in := b.Instance
	rep, m, err := run.Drive(in, 3, drivePolicy("luby", 1))
	if err != nil || !rep.Converged {
		t.Fatalf("drive: %v, converged %v", err, rep != nil && rep.Converged)
	}
	ok := newUniformReferee(14)
	if r, _ := judge(in, rep, m, nil, ok); r != "" {
		t.Errorf("converged feasible drive judged %q", r)
	}
	if r, _ := judge(in, rep, m, errors.New("boom"), ok); r != "error: boom" {
		t.Errorf("error judged %q", r)
	}
	stopped := *rep
	stopped.Converged = false
	if r, _ := judge(in, &stopped, m, nil, ok); r != "budget" {
		t.Errorf("budget stop judged %q", r)
	}
	if r, _ := judge(in, rep, m, nil, stubReferee{}); r != "referee: planted" {
		t.Errorf("rejecting referee judged %q", r)
	}
	m.Lattice().Set(1, 0, m.Lattice().Get(0, 0))
	if r, _ := judge(in, rep, m, nil, ok); r != "infeasible chain 0" {
		t.Errorf("infeasible chain judged %q", r)
	}
}

func TestReplayReproducesDrive(t *testing.T) {
	b, err := (&spec.File{Version: spec.Version, Graph: spec.Graph{Kind: "torus", N: 6}, Model: &spec.Model{Kind: "coloring", Q: 14}}).Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, dyn := range []string{"chromatic", "luby", "metropolis"} {
		rep, m, err := run.Drive(b.Instance, 11, drivePolicy(dyn, 2))
		if err != nil {
			t.Fatal(err)
		}
		td, err := replayDrive(b.Instance, dyn, 11, 2)
		if err != nil {
			t.Fatal(err)
		}
		if d := mismatch(rep, m, td); d != "" {
			t.Errorf("%s: replay differs from Drive: %s", dyn, d)
		}
		if td.sp.sum() > td.wall {
			t.Errorf("%s: layer spans %v exceed the wall %v", dyn, td.sp.sum(), td.wall)
		}
		other, err := replayDrive(b.Instance, dyn, 12, 2)
		if err != nil {
			t.Fatal(err)
		}
		if mismatch(rep, m, other) == "" {
			t.Errorf("%s: replay of another seed matched", dyn)
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var want []metricDef
	for _, m := range bj.EndToEnd {
		want = append(want, metricDef{m.Name, m.Unit, false})
	}
	for _, m := range bj.PerLayer {
		want = append(want, metricDef{m.Name, m.Unit, true})
	}
	if len(want) != len(metricDefs) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(want), len(metricDefs))
	}
	for i, d := range metricDefs {
		if d != want[i] {
			t.Errorf("metric %d: benchmark %+v, BENCHMARK.json %+v", i, d, want[i])
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q vs %q", i, w.name, bj.Workloads[i].Name)
		}
	}
}
