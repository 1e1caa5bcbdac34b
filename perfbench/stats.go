package main

// stats.go: the order statistics, tail probabilities and outcome counting
// the benchmark reports with. Everything here is pure and unit-tested.

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between order statistics (the "type 7" rule of most
// statistics packages), together with the sample count it rests on. An
// empty sample reports NaN and 0.
func percentile(xs []float64, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := (float64(n) - 1) * p / 100
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return s[n-1], n
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo]), n
}

// median is percentile 50 without the count.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// groupedMedian is the median of observations that are the upper ends of
// intervals of the given width: a drive that stops at check sweep s
// crossed its target somewhere in (s−width, s]. The median class is
// interpolated linearly (the textbook grouped-data median), so the
// statistic moves smoothly with the share of drives in each class instead
// of jumping a whole check interval when that share crosses one half.
func groupedMedian(xs []float64, width float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	half := float64(n) / 2
	below := 0
	for i := 0; i < n; {
		j := i
		for j < n && s[j] == s[i] {
			j++
		}
		if float64(j) >= half {
			return s[i] - width + (half-float64(below))/float64(j-i)*width
		}
		below = j
		i = j
	}
	return s[n-1]
}

// tailPercentile returns the highest percentile of the ladder 99.9, 99,
// 95, 90, 75, 50 that leaves at least ten of n samples beyond it, or 50
// when none does.
func tailPercentile(n int) float64 {
	for _, pm := range []int{999, 990, 950, 900, 750} { // per mille
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 50
}

// studentTail returns P(|T| ≥ t) for Student's t with nu ≥ 1 degrees of
// freedom, by the closed-form finite series for integer nu (Abramowitz &
// Stegun 26.7.3 and 26.7.4).
func studentTail(t float64, nu int) float64 {
	t = math.Abs(t)
	theta := math.Atan(t / math.Sqrt(float64(nu)))
	s, c := math.Sin(theta), math.Cos(theta)
	var a float64
	if nu%2 == 1 {
		sum, term := 0.0, c
		for k := 1; k <= (nu-1)/2; k++ {
			sum += term
			term *= c * c * float64(2*k) / float64(2*k+1)
		}
		if nu == 1 {
			sum = 0
		}
		a = 2 / math.Pi * (theta + s*sum)
	} else {
		sum, term := 0.0, 1.0
		for k := 1; k <= nu/2; k++ {
			sum += term
			term *= c * c * float64(2*k-1) / float64(2*k)
		}
		a = s * sum
	}
	return math.Max(0, 1-a)
}

// chiSquareTail returns P(X ≥ x) for a chi-square variable with k ≥ 1
// degrees of freedom, by the closed forms of the regularized upper
// incomplete gamma function at integer and half-integer shape.
func chiSquareTail(x float64, k int) float64 {
	if x <= 0 {
		return 1
	}
	h := x / 2
	if k%2 == 0 {
		sum, term := 0.0, 1.0
		for i := 0; i < k/2; i++ {
			sum += term
			term *= h / float64(i+1)
		}
		return math.Exp(-h) * sum
	}
	sum := 0.0
	term := math.Sqrt(h) / (math.Sqrt(math.Pi) / 2) // h^{1/2} / Γ(3/2)
	for i := 1; i <= (k-1)/2; i++ {
		sum += term
		term *= h / (float64(i) + 0.5)
	}
	return math.Erfc(math.Sqrt(h)) + math.Exp(-h)*sum
}

// criticalValue returns the x at which the decreasing tail function falls
// to alpha, by bisection on [0, hi].
func criticalValue(tail func(float64) float64, alpha, hi float64) float64 {
	lo := 0.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if tail(mid) > alpha {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// tally counts attempted operations and failures by reason; fail_frac is
// failed over attempted.
type tally struct {
	attempted int
	failed    int
	reasons   map[string]int
}

// add records one attempt; an empty reason is a success.
func (t *tally) add(reason string) {
	t.attempted++
	if reason == "" {
		return
	}
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

// failFrac returns failed over attempted (0 when nothing was attempted).
func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
