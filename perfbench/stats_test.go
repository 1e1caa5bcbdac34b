package main

import (
	"math"
	"testing"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPercentileReportsValueAndCount(t *testing.T) {
	xs := []float64{7, 3, 10, 1, 5, 9, 2, 8, 6, 4}
	cases := []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}}
	for _, c := range cases {
		got, n := percentile(xs, c.p)
		if !near(got, c.want, 1e-12) || n != len(xs) {
			t.Errorf("percentile(p%g) = %g over %d samples, want %g over %d", c.p, got, n, c.want, len(xs))
		}
	}
	if xs[0] != 7 {
		t.Error("percentile reordered its input")
	}
	if v, n := percentile(nil, 50); !math.IsNaN(v) || n != 0 {
		t.Errorf("empty sample: %g over %d, want NaN over 0", v, n)
	}
	if v, n := percentile([]float64{4}, 99); v != 4 || n != 1 {
		t.Errorf("single sample: %g over %d", v, n)
	}
}

func TestGroupedMedianInterpolatesTheMedianClass(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{8, 8, 16, 16}, 8},
		{[]float64{16, 16, 16, 24}, 8 + 2.0/3*8},
		{[]float64{48, 56, 56, 48, 56}, 48 + (2.5-2)/3*8},
		{[]float64{64}, 60},
	}
	for _, c := range cases {
		if got := groupedMedian(c.xs, 8); !near(got, c.want, 1e-12) {
			t.Errorf("groupedMedian(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(groupedMedian(nil, 8)) {
		t.Error("empty sample should be NaN")
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := map[int]float64{10000: 99.9, 1000: 99, 200: 95, 100: 90, 40: 75, 39: 50, 5: 50}
	for n, want := range cases {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestStudentTailMatchesKnownValues(t *testing.T) {
	cases := []struct {
		t    float64
		nu   int
		want float64
	}{
		{1, 1, 0.5},                   // Cauchy
		{2, 2, 1 - 2/math.Sqrt(6)},    // closed form at ν = 2
		{2.131449545559323, 15, 0.05}, // two-sided 5% point
		{2.042272456301238, 30, 0.05}, // two-sided 5% point
		{0, 15, 1},
	}
	for _, c := range cases {
		if got := studentTail(c.t, c.nu); !near(got, c.want, 1e-9) {
			t.Errorf("studentTail(%g, %d) = %.12g, want %.12g", c.t, c.nu, got, c.want)
		}
	}
	if a, b := studentTail(-3, 7), studentTail(3, 7); a != b {
		t.Errorf("two-sided tail not symmetric: %g vs %g", a, b)
	}
}

func TestChiSquareTailMatchesKnownValues(t *testing.T) {
	cases := []struct {
		x    float64
		k    int
		want float64
	}{
		{3.841458820694124, 1, 0.05},
		{4, 2, math.Exp(-2)},
		{18.30703805327515, 10, 0.05},
		{22.36203249482694, 13, 0.05},
		{0, 13, 1},
	}
	for _, c := range cases {
		if got := chiSquareTail(c.x, c.k); !near(got, c.want, 1e-9) {
			t.Errorf("chiSquareTail(%g, %d) = %.12g, want %.12g", c.x, c.k, got, c.want)
		}
	}
}

func TestCriticalValueInvertsTheTail(t *testing.T) {
	x := criticalValue(func(x float64) float64 { return chiSquareTail(x, 13) }, 0.05, 1e4)
	if !near(x, 22.36203249482694, 1e-6) {
		t.Errorf("chi2_13 5%% point = %g", x)
	}
	z := criticalValue(func(t float64) float64 { return studentTail(t, 15) }, 1e-6, 1e3)
	if got := studentTail(z, 15); !near(got, 1e-6, 1e-9) {
		t.Errorf("t_15 tail at its 1e-6 point = %g", got)
	}
}

func TestTallyCountsFailFrac(t *testing.T) {
	var tl tally
	if tl.failFrac() != 0 {
		t.Error("empty tally should report 0")
	}
	for _, r := range []string{"", "budget", "", "referee: skewed", "budget"} {
		tl.add(r)
	}
	if tl.attempted != 5 || tl.failed != 3 || tl.failFrac() != 0.6 {
		t.Errorf("tally = %d/%d (%g), want 3/5 (0.6)", tl.failed, tl.attempted, tl.failFrac())
	}
	if tl.reasons["budget"] != 2 || tl.reasons["referee: skewed"] != 1 {
		t.Errorf("reasons = %v", tl.reasons)
	}
	if outputsCorrect(&tl) {
		t.Error("a rejecting referee is a wrong output")
	}
	var ok tally
	ok.add("budget")
	ok.add("error: engine failed")
	if !outputsCorrect(&ok) {
		t.Error("budget stops and errors are failures, not wrong outputs")
	}
}
