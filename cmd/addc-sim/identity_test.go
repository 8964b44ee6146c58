package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// identityFile lists one "<sha256>  <artifact>" line per output the CLI
// identity tests pin; each command owns the lines under its own prefix.
const identityFile = "../../results/identity.sha256"

var updateIdentity = flag.Bool("update-identity", false, "rewrite this command's lines of results/identity.sha256 instead of checking them")

// TestOutputIdentity pins the bytes of three faulty runs (stdout and the
// MAC-level JSONL trace, seeds 1–3) and of one fault-free n = 1000 run, so
// a change that moves any simulated trajectory fails here with the
// artifact's name.
func TestOutputIdentity(t *testing.T) {
	dir := t.TempDir()
	got := map[string][]byte{
		"n1000.txt": captureRun(t, "-n", "1000", "-area", "182.6", "-N", "27"),
	}
	for seed := 1; seed <= 3; seed++ {
		tr := filepath.Join(dir, fmt.Sprintf("trace%d.jsonl", seed))
		got[fmt.Sprintf("faults-seed%d.txt", seed)] = captureRun(t, "-n", "150", "-area", "70",
			"-fault-crash", "0.05", "-fault-loss", "0.05", "-fault-bursts", "2",
			"-trace-mac", "-trace-out", tr, "-seed", fmt.Sprint(seed))
		got[fmt.Sprintf("faults-seed%d.jsonl", seed)] = readFile(t, tr)
	}
	checkIdentity(t, "addc-sim/", got)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// captureRun calls run(args) and returns what it printed to stdout.
func captureRun(t *testing.T, args ...string) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return readFile(t, f.Name())
}

// checkIdentity compares each artifact's SHA-256 with its line under prefix
// in identityFile, and requires the file to list no other artifact under
// that prefix. With -update-identity it rewrites those lines instead (one
// package at a time: both commands' tests share the file).
func checkIdentity(t *testing.T, prefix string, artifacts map[string][]byte) {
	t.Helper()
	data, err := os.ReadFile(identityFile)
	if err != nil && !(*updateIdentity && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	want := map[string]string{}
	var others []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		switch {
		case !ok:
		case strings.HasPrefix(name, prefix):
			want[strings.TrimPrefix(name, prefix)] = sum
		default:
			others = append(others, line)
		}
	}
	got := map[string]string{}
	var names []string
	for name, out := range artifacts {
		sum := sha256.Sum256(out)
		got[name] = hex.EncodeToString(sum[:])
		names = append(names, name)
	}
	slices.Sort(names)
	if *updateIdentity {
		lines := others
		for name, sum := range got {
			lines = append(lines, sum+"  "+prefix+name)
		}
		slices.SortFunc(lines, func(a, b string) int {
			_, x, _ := strings.Cut(a, "  ")
			_, y, _ := strings.Cut(b, "  ")
			return strings.Compare(x, y)
		})
		if err := os.WriteFile(identityFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, name := range names {
		if sum := got[name]; want[name] != sum {
			t.Errorf("%s%s: sha256 %s, want %q", prefix, name, sum, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s lists %s%s, which the test no longer produces", identityFile, prefix, name)
		}
	}
	if t.Failed() {
		t.Logf("if the change is meant to move results, re-record with: go test -run %s -update-identity", t.Name())
	}
}
