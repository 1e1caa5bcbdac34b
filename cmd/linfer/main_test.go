package main

import "testing"

func TestRunHardcoreWithPins(t *testing.T) {
	if err := run([]string{"-model", "hardcore", "-graph", "cycle", "-n", "10", "-lambda", "1", "-pin", "0=1,5=0"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunIsing(t *testing.T) {
	if err := run([]string{"-model", "ising", "-graph", "path", "-n", "8", "-beta", "0.7"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunLargeSkipsCheck(t *testing.T) {
	// n > 24 disables the brute-force comparison but must still run.
	if err := run([]string{"-model", "hardcore", "-graph", "cycle", "-n", "30", "-lambda", "0.8"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	bad := [][]string{
		{"-model", "nosuch"},
		{"-graph", "nosuch"},
		{"-pin", "garbage"},
		{"-pin", "99=1"},
		{"-model", "hardcore", "-graph", "grid", "-n", "3", "-lambda", "100"},
		// Non-finite or nonpositive accuracies: NaN used to pass both the
		// oracle's guard and the "worst > δ" self-check.
		{"-delta", "NaN"},
		{"-delta", "+Inf"},
		{"-delta", "-Inf"},
		{"-delta", "0"},
		{"-delta", "-0.01"},
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}
