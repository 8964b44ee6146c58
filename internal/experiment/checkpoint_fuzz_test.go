package experiment

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadJournal feeds arbitrary bytes to LoadJournal. Loading must never
// panic, and any journal it accepts must survive a write through
// Journal.Flush and a reload with equal header and entries.
func FuzzLoadJournal(f *testing.F) {
	header := `{"record":"shard_header","sweep":"6c","shard":1,"of":3,"grid_hash":"d987f05f43bfe021","num_xs":3,"reps":5}` + "\n"
	ok := `{"sweep":"6c","xi":0,"rep":1,"algo":"addc","delay":812.5,"capacity":1234.25,"aborts":3,"tightness":0.125,"pu_busy":0.31,"fairness":0.97}` + "\n"
	failed := `{"sweep":"6c","xi":2,"rep":4,"algo":"coolest","err":"core: simulation stalled with 7/79 delivered","delay":0,"capacity":0,"aborts":0,"tightness":0,"pu_busy":0,"fairness":0}` + "\n"
	f.Add([]byte(""))
	f.Add([]byte(ok + failed))
	f.Add([]byte(header + ok + failed))
	f.Add([]byte(header + ok + failed[:len(failed)/2])) // torn tail
	f.Add([]byte(header[:len(header)/2]))               // torn header
	f.Add([]byte(ok + `{"record":"other"}` + "\n"))
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
