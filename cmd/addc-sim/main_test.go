package main

import "testing"

func TestRunADDCSmall(t *testing.T) {
	err := run([]string{"-n", "100", "-N", "3", "-area", "60", "-seed", "2"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunCoolestSmall(t *testing.T) {
	err := run([]string{"-n", "100", "-N", "3", "-area", "60", "-seed", "2", "-alg", "coolest"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFaults(t *testing.T) {
	err := run([]string{"-n", "100", "-N", "3", "-area", "60", "-seed", "2",
		"-fault-crash", "0.1", "-fault-crash-window", "500ms", "-fault-loss", "0.05"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cases := [][]string{
		{"-alg", "bogus", "-n", "100", "-N", "3", "-area", "60"},
		{"-alpha", "1.0"},
		{"-not-a-flag"},
		{"-n", "100", "-N", "3", "-area", "60", "-fault-crash", "1.5"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
