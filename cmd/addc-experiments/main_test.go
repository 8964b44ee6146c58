package main

import (
	"os"
	"path/filepath"
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
