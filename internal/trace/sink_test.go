package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"addcrn/internal/sim"
)

func TestJSONLSinkEncoding(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Add(Record{Time: 1234, Node: 7, Kind: KindDeliver, Arg: 42})
	s.Add(Record{Time: 5678, Node: -1, Kind: KindCrash, Arg: 0})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || s.Len() != 2 {
		t.Fatalf("lines=%d len=%d", len(lines), s.Len())
	}
	if lines[0] != `{"t":1234,"node":7,"kind":"deliver","arg":42}` {
		t.Errorf("line 0: %s", lines[0])
	}
	// Every line must be valid JSON with the expected fields.
	for _, line := range lines {
		var rec struct {
			T    int64  `json:"t"`
			Node int32  `json:"node"`
			Kind string `json:"kind"`
			Arg  int64  `json:"arg"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
	}
}

type failWriter struct{ after int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.after <= 0 {
		return 0, errors.New("disk full")
	}
	w.after -= len(p)
	return len(p), nil
}

func TestJSONLSinkStickyError(t *testing.T) {
	s := NewJSONLSink(&failWriter{after: 10})
	for i := 0; i < 100; i++ {
		s.Add(Record{Time: 1, Node: 1, Kind: KindDeliver})
	}
	if err := s.Flush(); err == nil {
		t.Fatal("flush swallowed the write error")
	}
	if s.Err() == nil {
		t.Fatal("Err lost the write error")
	}
	before := s.Len()
	s.Add(Record{Time: 2, Node: 2, Kind: KindDeliver}) // must be a no-op now
	if s.Len() != before {
		t.Error("sink kept counting after error")
	}
}

func TestJSONLSinkDeterministic(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		s := NewJSONLSink(&buf)
		for i := 0; i < 1000; i++ {
			s.Add(Record{Time: sim.Time(i), Node: int32(i % 13), Kind: KindDeliver, Arg: int64(i * 7)})
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(emit(), emit()) {
		t.Error("identical record streams encoded differently")
	}
}

func BenchmarkJSONLSinkAdd(b *testing.B) {
	s := NewJSONLSink(discard{})
	r := Record{Time: 123456, Node: 42, Kind: KindDeliver, Arg: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(r)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
