package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func genTopology(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "topo.json")
	err := run([]string{"gen", "-n", "120", "-N", "4", "-area", "65", "-seed", "3", "-o", path})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGenWritesTopology(t *testing.T) {
	path := genTopology(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version": 1`) {
		t.Error("missing version field")
	}
	if !strings.Contains(string(data), `"numSU": 120`) {
		t.Error("missing params")
	}
}

func TestInfoOnGeneratedTopology(t *testing.T) {
	path := genTopology(t)
	if err := run([]string{"info", path}); err != nil {
		t.Fatal(err)
	}
}

func TestSVGOnGeneratedTopology(t *testing.T) {
	topo := genTopology(t)
	out := filepath.Join(t.TempDir(), "topo.svg")
	if err := run([]string{"svg", "-o", out, topo}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Error("output is not SVG")
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"bogus"},
		{"info"},
		{"info", "/does/not/exist.json"},
		{"svg"},
		{"trace"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
