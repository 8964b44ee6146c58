package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

// FuzzJobSpec feeds arbitrary bytes through the submission path's decoding
// and validation: json.Unmarshal into a JobSpec, then Validate, as
// handleSubmit and Submit do. Neither may panic, and a spec Validate accepts
// must marshal and unmarshal back to an equal spec that still validates.
func FuzzJobSpec(f *testing.F) {
	ext := testSpec(6)
	ext.Figure = "ext2"
	ext.Xs = []float64{0, 0.2}
	ext.Shards = 2
	shared := testSpec(7)
	shared.ShareTopology = true
	deadline := quickSpec(3)
	deadline.Timeout = Duration(50 * time.Millisecond)
	deadline.Retries = 2
	for _, spec := range []JobSpec{testSpec(1), quickSpec(12), ext, shared, deadline} {
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		`{"figure":"6c"}`,
		`{"figure":"ext1","xs":[1,2,4],"reps":3,"workers":2}`,
		`{"figure":"6a","max_virtual":1800000000000,"timeout":"90s"}`,
		`{"figure":"6b","xs":[],"guard":true,"same_mac":true,"disable_handoff":true}`,
		`{"figure":"9z"}`,
		`{"figure":"6c","reps":-1}`,
		`{"figure":"6c","shards":1}`,
		`{"figure":"6c","timeout":"-1s"}`,
		`{"figure":"6c","max_virtual":"soon"}`,
		`{"figure":"6c","max_virtual":9223372036854775807,"seed":18446744073709551615}`,
		`{"figure":"6c","num_su":-5,"area":1e308}`,
		`{"figure":"6c","area":1000000}`,
		`{"figure":"ext1","xs":[1e11]}`,
		`{"figure":"6a","xs":[2.7]}`,
		`{"figure":"6b","num_su":4000}`,
		`[]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			return
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not marshal: %v", spec, err)
		}
		var back JobSpec
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("accepted spec does not unmarshal from its own JSON %s: %v", out, err)
		}
		// omitempty drops an empty xs list; the sweep treats empty and
		// absent alike (the figure's default axis).
		if len(spec.Xs) == 0 {
			spec.Xs = nil
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("spec changed across a JSON round trip:\n before: %+v\n after:  %+v\n json:   %s", spec, back, out)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped spec %s no longer validates: %v", out, err)
		}
		checkGridWithinLimits(t, spec)
	})
}

// checkGridWithinLimits asserts that every grid point of an accepted spec
// stays within jobLimits, recomputing the point's size from its parameters.
func checkGridWithinLimits(t *testing.T, spec JobSpec) {
	t.Helper()
	sw, err := spec.sweep(1)
	if err != nil {
		t.Fatalf("accepted spec %+v does not build its sweep: %v", spec, err)
	}
	for _, x := range sw.Xs {
		p := sw.Apply(sw.Base, x)
		cells := 0.0
		for _, r := range []float64{p.RadiusSU, p.RadiusPU} {
			side := math.Max(1, math.Ceil(p.Area/r))
			cells += side * side
		}
		switch {
		case math.IsNaN(x) || math.IsInf(x, 0):
			t.Fatalf("spec %+v accepted with x = %v", spec, x)
		case p.NumSU > jobLimits.NumSU || p.NumPU > jobLimits.NumPU:
			t.Fatalf("spec %+v accepted with n = %d, N = %d at x = %v", spec, p.NumSU, p.NumPU, x)
		case cells > float64(jobLimits.GridCells):
			t.Fatalf("spec %+v accepted with %v grid cells at x = %v", spec, cells, x)
		case spec.Figure == "ext1" && (x != math.Trunc(x) || x < 1 || x > float64(jobLimits.Channels)):
			t.Fatalf("spec %+v accepted with %v channels", spec, x)
		case (spec.Figure == "6a" || spec.Figure == "6b") && x != math.Trunc(x):
			t.Fatalf("spec %+v accepted with a fractional count %v", spec, x)
		}
	}
}

// Specs whose grid points would exhaust the daemon's memory, or that a
// count axis would silently truncate, are refused at submission; their
// neighbors at the limits are accepted.
func TestJobSpecGridLimits(t *testing.T) {
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{`{"figure":"6c","area":1000000}`, false},
		{`{"figure":"6c","area":20000}`, false},
		{`{"figure":"6c","area":5000}`, true},
		{`{"figure":"ext1","xs":[1e11]}`, false},
		{`{"figure":"ext1","xs":[65]}`, false},
		{`{"figure":"ext1","xs":[64]}`, true},
		{`{"figure":"ext1","xs":[2.5]}`, false},
		{`{"figure":"6a","xs":[2.7]}`, false},
		{`{"figure":"6a","xs":[801]}`, false},
		{`{"figure":"6a","xs":[800]}`, true},
		{`{"figure":"6a","num_pu":700}`, false}, // the axis reaches 1.5·N = 1050
		{`{"figure":"6b","xs":[100.5]}`, false},
		{`{"figure":"6b","xs":[4001]}`, false},
		{`{"figure":"6b","xs":[4000]}`, true},
		{`{"figure":"6b","num_su":3000}`, false}, // the axis reaches 1.5·n = 4500
		{`{"figure":"6c","num_su":100000}`, false},
		{`{"figure":"6c","num_pu":100000}`, false},
		{`{"figure":"6c","xs":[1.5]}`, false},
		{`{"figure":"ext2","xs":[0.3]}`, true},
		{`{"figure":"ext2","xs":[1.5]}`, false},
	} {
		var spec JobSpec
		if err := json.Unmarshal([]byte(tc.spec), &spec); err != nil {
			t.Fatal(err)
		}
		err := spec.Validate()
		if ok := err == nil; ok != tc.ok {
			t.Errorf("%s: Validate = %v, want accepted = %v", tc.spec, err, tc.ok)
		}
		if err == nil {
			checkGridWithinLimits(t, spec)
		}
	}
}
