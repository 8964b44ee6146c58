package serve

import (
	"encoding/json"
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
	})
}
