package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// Fuzz corpus lines: a shard header, a successful and a failed entry, and an
// ADDC-only (extension figure) shard header with an entry carrying the
// extension columns.
const (
	fuzzHeader    = `{"record":"shard_header","sweep":"6c","shard":1,"of":3,"grid_hash":"d987f05f43bfe021","num_xs":3,"reps":5}` + "\n"
	fuzzOK        = `{"sweep":"6c","xi":0,"rep":1,"algo":"addc","delay":812.5,"capacity":1234.25,"aborts":3,"tightness":0.125,"pu_busy":0.31,"fairness":0.97}` + "\n"
	fuzzFailed    = `{"sweep":"6c","xi":2,"rep":4,"algo":"coolest","err":"core: simulation stalled with 7/79 delivered","delay":0,"capacity":0,"aborts":0,"tightness":0,"pu_busy":0,"fairness":0}` + "\n"
	fuzzExtHeader = `{"record":"shard_header","sweep":"ext2","shard":3,"of":3,"grid_hash":"5c0d3f1e2a4b6c78","num_xs":5,"reps":10,"addc_only":true}` + "\n"
	fuzzExtOK     = `{"sweep":"ext2","xi":3,"rep":5,"algo":"addc","delay":14718.25,"capacity":99.5,"aborts":7,"tightness":0.0625,"pu_busy":0.28,"fairness":0.91,"loss":0.2,"repairs":293,"drops":3,"deafness":12}` + "\n"
)

// fuzzJournals is the FuzzLoadJournal seed corpus.
var fuzzJournals = []string{
	"",
	fuzzOK + fuzzFailed,
	fuzzHeader + fuzzOK + fuzzFailed,
	fuzzHeader + fuzzOK + fuzzFailed[:len(fuzzFailed)/2], // torn tail
	fuzzHeader[:len(fuzzHeader)/2],                       // torn header
	fuzzOK + `{"record":"other"}` + "\n",
	fuzzExtHeader + fuzzExtOK,
}

// FuzzLoadJournal feeds arbitrary bytes to LoadJournal. Loading must never
// panic, and any journal it accepts must survive a write through
// Journal.Flush and a reload with equal header and entries.
func FuzzLoadJournal(f *testing.F) {
	for _, s := range fuzzJournals {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cp.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := LoadJournal(path)
		if err != nil {
			return // rejected input: only the absence of a panic is checked
		}
		if err := j.Flush(); err != nil {
			t.Fatalf("flush of a loaded journal: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		back, err := LoadJournal(path)
		if err != nil {
			t.Fatalf("reload of a flushed journal: %v", err)
		}
		if !reflect.DeepEqual(j.Header(), back.Header()) {
			t.Fatalf("header changed across flush and reload:\n before: %+v\n after:  %+v", j.Header(), back.Header())
		}
		if !reflect.DeepEqual(j.Entries(), back.Entries()) {
			t.Fatalf("entries changed across flush and reload:\n before: %+v\n after:  %+v", j.Entries(), back.Entries())
		}
	})
}

// FuzzMergeJournals feeds two arbitrary shard journals to mergeJournals.
// Merging must never panic; whether it succeeds, and the merged bytes and
// stats when it does, must not depend on the order of the input paths; and
// a merged journal, declared as the single shard of the same grid, must
// merge to itself.
func FuzzMergeJournals(f *testing.F) {
	for _, a := range fuzzJournals {
		for _, b := range fuzzJournals {
			f.Add([]byte(a), []byte(b))
		}
	}
	// A complete two-shard split of a 1x2 grid, with a retried entry, and
	// the same split of an ADDC-only grid.
	pair := func(shard, rep int, addcOnly bool) string {
		h := `{"record":"shard_header","sweep":"6a","shard":` + strconv.Itoa(shard) + `,"of":2,"grid_hash":"h","num_xs":1,"reps":2`
		if addcOnly {
			h += `,"addc_only":true`
		}
		e := func(algo string) string {
			return `{"sweep":"6a","xi":0,"rep":` + strconv.Itoa(rep) + `,"algo":"` + algo + `","delay":1,"capacity":2,"aborts":0,"tightness":0,"pu_busy":0,"fairness":1}` + "\n"
		}
		if addcOnly {
			return h + "}\n" + e("addc") + e("addc")
		}
		return h + "}\n" + e("addc") + e("coolest") + e("addc")
	}
	f.Add([]byte(pair(1, 0, false)), []byte(pair(2, 1, false)))
	f.Add([]byte(pair(1, 0, true)), []byte(pair(2, 1, true)))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		dir := t.TempDir()
		pa, pb := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
		if err := os.WriteFile(pa, a, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pb, b, 0o644); err != nil {
			t.Fatal(err)
		}
		ab, ba := filepath.Join(dir, "ab.jsonl"), filepath.Join(dir, "ba.jsonl")
		statsAB, errAB := mergeJournals(ab, []string{pa, pb}, MergeOptions{})
		statsBA, errBA := mergeJournals(ba, []string{pb, pa}, MergeOptions{})
		if (errAB == nil) != (errBA == nil) {
			t.Fatalf("path order decides success: a,b -> %v; b,a -> %v", errAB, errBA)
		}
		if errAB != nil {
			return
		}
		if !reflect.DeepEqual(statsAB, statsBA) {
			t.Fatalf("path order changes stats: %+v vs %+v", statsAB, statsBA)
		}
		merged := readFile(t, ab)
		if other := readFile(t, ba); !bytes.Equal(merged, other) {
			t.Fatalf("path order changes the merged journal:\n%s\nvs\n%s", merged, other)
		}

		// Re-declare the merged journal as shard 1/1 of the same grid and
		// merge it again: nothing may change.
		j, err := LoadJournal(pa)
		if err != nil {
			t.Fatal(err)
		}
		h := *j.Header()
		h.Index, h.Count = 1, 1
		line, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		again := filepath.Join(dir, "again.jsonl")
		if err := os.WriteFile(again, append(append(line, '\n'), merged...), 0o644); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "out.jsonl")
		st, err := mergeJournals(out, []string{again}, MergeOptions{})
		if err != nil {
			t.Fatalf("re-merging a merged journal: %v", err)
		}
		if st.Entries != statsAB.Entries || !reflect.DeepEqual(st.MissingPairs, statsAB.MissingPairs) {
			t.Fatalf("re-merge stats %+v, want entries and missing pairs of %+v", st, statsAB)
		}
		if got := readFile(t, out); !bytes.Equal(got, merged) {
			t.Fatalf("re-merge changed the journal:\n%s\nvs\n%s", got, merged)
		}
	})
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
