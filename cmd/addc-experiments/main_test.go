package main

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestRunRejectsUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "9z"}); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunCurvesWritesSVG(t *testing.T) {
	if testing.Short() {
		t.Skip("full collection run")
	}
	dir := t.TempDir()
	if err := run([]string{"-fig", "curves", "-svg", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "curves.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Error("curves output is not SVG")
	}
}

// -shard flag validation: malformed specs and out-of-range indices are
// rejected before any work starts, and a shard without a checkpoint (or
// combined with the merge phase) is a usage error.
func TestRunRejectsBadShardFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"malformed", []string{"-shard", "banana", "-checkpoint", "cp.jsonl"}},
		{"no-slash", []string{"-shard", "13", "-checkpoint", "cp.jsonl"}},
		{"index-zero", []string{"-shard", "0/3", "-checkpoint", "cp.jsonl"}},
		{"index-negative", []string{"-shard", "-1/3", "-checkpoint", "cp.jsonl"}},
		{"index-past-count", []string{"-shard", "4/3", "-checkpoint", "cp.jsonl"}},
		{"count-zero", []string{"-shard", "1/0", "-checkpoint", "cp.jsonl"}},
		{"count-negative", []string{"-shard", "1/-2", "-checkpoint", "cp.jsonl"}},
		{"float-index", []string{"-shard", "1.5/3", "-checkpoint", "cp.jsonl"}},
		{"empty-count", []string{"-shard", "1/", "-checkpoint", "cp.jsonl"}},
		{"no-checkpoint", []string{"-shard", "1/3"}},
		{"shard-and-merge", []string{"-shard", "1/3", "-merge", "-checkpoint", "cp.jsonl"}},
		{"merge-no-checkpoint", []string{"-merge"}},
		{"bad-xs", []string{"-xs", "0.1,zebra"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.args); err == nil {
				t.Errorf("run(%v) accepted", tc.args)
			}
		})
	}
}

// -xs values a figure's axis cannot take are refused before anything runs:
// non-finite values anywhere, fractional counts (6a's N, 6b's n, ext1's C)
// that the sweep would truncate while printing the fraction, and points
// whose parameters fail validation.
func TestRunRejectsBadXs(t *testing.T) {
	small := []string{"-reps", "1", "-num-su", "60", "-area", "50", "-num-pu", "2", "-max-virtual", "1m", "-workers", "1"}
	for _, tc := range []struct{ fig, xs string }{
		{"6a", "2.7"},
		{"6a", "-3"},
		{"6b", "60.5"},
		{"ext1", "1.5"},
		{"ext1", "0"},
		{"6c", "NaN"},
		{"6c", "0.1,+Inf"},
		{"6c", "1.5"},
		{"6d", "2"},
	} {
		t.Run(tc.fig+"/"+tc.xs, func(t *testing.T) {
			err := run(append([]string{"-fig", tc.fig, "-xs", tc.xs}, small...))
			if err == nil || !strings.Contains(err.Error(), "fig "+tc.fig) {
				t.Fatalf("err = %v, want fig %s's grid check to refuse x = %s", err, tc.fig, tc.xs)
			}
		})
	}
}

// FuzzParseXs: parseXs never panics, and a list it accepts parses back to
// the same values from its shortest round-trip form.
func FuzzParseXs(f *testing.F) {
	for _, s := range []string{"", "0.1,0.2", " 1, 2 ,4", "2.7", "NaN", "-Inf,1e308", "0x1p-2", "1e400", "-0", ",", "zebra"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		xs, err := parseXs(in)
		if err != nil || xs == nil {
			return
		}
		fields := make([]string, len(xs))
		for i, x := range xs {
			fields[i] = strconv.FormatFloat(x, 'g', -1, 64)
		}
		back, err := parseXs(strings.Join(fields, ","))
		if err != nil {
			t.Fatalf("%q parsed to %v, whose formatted form %q does not parse: %v", in, xs, fields, err)
		}
		if len(back) != len(xs) {
			t.Fatalf("%q parsed to %d values, its formatted form to %d", in, len(xs), len(back))
		}
		for i := range xs {
			if math.Float64bits(back[i]) != math.Float64bits(xs[i]) {
				t.Fatalf("%q: value %d is %v, re-parsed %v", in, i, xs[i], back[i])
			}
		}
	})
}

// Merging with no shard journals present names the expected layout instead
// of failing obscurely.
func TestRunMergeWithoutShardJournals(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "cp.jsonl")
	err := run([]string{"-fig", "6c", "-merge", "-checkpoint", cp})
	if err == nil || !strings.Contains(err.Error(), "no shard journals") {
		t.Fatalf("err = %v, want a no-shard-journals explanation", err)
	}
}

// The extension figures take the ordinary figure path: three -shard runs of
// ext2 followed by -merge leave the journal an unsharded run writes.
func TestRunExtensionShardsMergeToUnsharded(t *testing.T) {
	dir := t.TempDir()
	small := []string{"-fig", "ext2", "-num-su", "80", "-area", "55", "-num-pu", "3",
		"-reps", "2", "-xs", "0,0.2", "-workers", "1"}
	with := func(extra ...string) []string { return append(append([]string(nil), small...), extra...) }

	unsharded := filepath.Join(dir, "unsharded.jsonl")
	if err := run(with("-checkpoint", unsharded)); err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(dir, "merged.jsonl")
	for _, sp := range []string{"1/3", "2/3", "3/3"} {
		if err := run(with("-shard", sp, "-checkpoint", merged)); err != nil {
			t.Fatalf("shard %s: %v", sp, err)
		}
	}
	if err := run(with("-merge", "-checkpoint", merged)); err != nil {
		t.Fatal(err)
	}
	want, got := readFile(t, unsharded), readFile(t, merged)
	if len(want) == 0 || string(got) != string(want) {
		t.Fatalf("merged ext2 journal diverges from the unsharded one:\n merged:\n%s\n unsharded:\n%s", got, want)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
