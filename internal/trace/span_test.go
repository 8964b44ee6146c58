package trace

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestJSONLSpanSinkAssignsSeqAndDefaults(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSpanSink(&buf, "j000001", 0)
	s.Emit(SpanEvent{Event: SpanSubmitted})
	s.Emit(SpanEvent{Event: SpanQueued})
	s.Emit(SpanEvent{Event: SpanStarted, Attempt: 1})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	spans, last, err := ScanSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 || last != 3 {
		t.Fatalf("scanned %d spans (last seq %d), want 3/3", len(spans), last)
	}
	for i, e := range spans {
		if e.Seq != int64(i+1) {
			t.Fatalf("span %d has seq %d, want %d", i, e.Seq, i+1)
		}
		if e.Job != "j000001" {
			t.Fatalf("span %d job = %q", i, e.Job)
		}
		if e.Record != SpanRecord {
			t.Fatalf("span %d record = %q", i, e.Record)
		}
		if e.WallMS == 0 {
			t.Fatalf("span %d has no wall timestamp", i)
		}
	}
	if spans[2].Event != SpanStarted || spans[2].Attempt != 1 {
		t.Fatalf("span 3 = %+v", spans[2])
	}
}

// Sequence numbering continues from a recovered stream: the restart path.
func TestJSONLSpanSinkResumesSeq(t *testing.T) {
	var buf bytes.Buffer
	first := NewJSONLSpanSink(&buf, "j1", 0)
	first.Emit(SpanEvent{Event: SpanSubmitted})
	first.Emit(SpanEvent{Event: SpanInterrupted})

	_, last, err := ScanSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	second := NewJSONLSpanSink(&buf, "j1", last)
	second.Emit(SpanEvent{Event: SpanQueued})
	second.Emit(SpanEvent{Event: SpanDone})

	spans, _, err := ScanSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	for i, e := range spans {
		if e.Seq != int64(i+1) {
			t.Fatalf("restart broke numbering: span %d has seq %d", i, e.Seq)
		}
	}
}

// ScanSpans skips interleaved non-span records (the /events stream mixes
// spans with checkpoint-journal entries) and torn final lines.
func TestScanSpansInterleavedAndTorn(t *testing.T) {
	body := `{"sweep":"6c","xi":0,"rep":0,"algo":"addc","delay":10}
{"record":"span","job":"j1","seq":1,"event":"queued","t_ms":5}
{"sweep":"6c","xi":0,"rep":0,"algo":"coolest","delay":12}
{"record":"span","job":"j1","seq":2,"event":"started","t_ms":6}
{"record":"span","job":"j1","seq":3,"ev`
	spans, last, err := ScanSpans(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || last != 2 {
		t.Fatalf("got %d spans (last %d), want 2 complete spans", len(spans), last)
	}
}

// Concurrent emitters under -race: every span gets a unique, dense
// sequence number and none are lost — the invariant the job lifecycle
// stream depends on.
func TestJSONLSpanSinkConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 500
	)
	var buf bytes.Buffer
	s := NewJSONLSpanSink(&buf, "stress", 0)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Emit(SpanEvent{Event: SpanCheckpointFlush})
			}
		}()
	}
	wg.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	spans, last, err := ScanSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := goroutines * perG
	if len(spans) != want || last != int64(want) {
		t.Fatalf("got %d spans (last %d), want %d", len(spans), last, want)
	}
	seen := make(map[int64]bool, want)
	prev := int64(0)
	for _, e := range spans {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
		if e.Seq <= prev {
			t.Fatalf("file order not monotone: %d after %d", e.Seq, prev)
		}
		prev = e.Seq
	}
	for i := int64(1); i <= int64(want); i++ {
		if !seen[i] {
			t.Fatalf("seq %d missing (lost transition)", i)
		}
	}
}

func TestJobIDContext(t *testing.T) {
	ctx := context.Background()
	if got := JobID(ctx); got != "" {
		t.Fatalf("empty context carries job %q", got)
	}
	ctx = WithJobID(ctx, "j000042")
	if got := JobID(ctx); got != "j000042" {
		t.Fatalf("JobID = %q", got)
	}
}

// Regression: a crash mid-append leaves a torn unterminated final line.
// Re-scanning alone tolerates it for reading, but an appending sink must
// repair it first — otherwise the next Emit fuses onto the torn line,
// losing a span and re-issuing its sequence number on the next recovery.
// RecoverSpans truncates the torn tail so numbering stays dense across
// repeated crash/append cycles.
func TestRecoverSpansTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.spans.jsonl")
	write := func(events ...string) {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		_, last, err := RecoverSpans(f)
		if err != nil {
			t.Fatal(err)
		}
		s := NewJSONLSpanSink(f, "j1", last)
		for _, ev := range events {
			s.Emit(SpanEvent{Event: ev})
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
	}
	tear := func(n int64) {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()-n); err != nil {
			t.Fatal(err)
		}
	}

	write(SpanSubmitted, SpanQueued, SpanStarted)
	tear(20) // cut deep into the "started" span: seq 3 is lost
	write(SpanInterrupted)
	tear(3) // tear the "interrupted" span too
	write(SpanQueued, SpanDone)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, last, err := ScanSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	// submitted, queued, then the two post-tear appends: the torn spans are
	// gone, but every surviving line parses and seqs are dense in file
	// order with no duplicates.
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(spans), spans)
	}
	if last != int64(len(spans)) {
		t.Fatalf("seqs not dense: %d spans, last %d", len(spans), last)
	}
	for i, e := range spans {
		if e.Seq != int64(i+1) {
			t.Fatalf("span %d has seq %d (lost or duplicated transition)", i, e.Seq)
		}
	}
	if spans[3].Event != SpanDone {
		t.Fatalf("final span = %+v, want done", spans[3])
	}
}

// A final line that is a complete span merely missing its terminating
// newline is sealed and kept, not thrown away.
func TestRecoverSpansSealsNewlinelessTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.spans.jsonl")
	body := `{"record":"span","job":"j1","seq":1,"event":"submitted","t_ms":5}
{"record":"span","job":"j1","seq":2,"event":"queued","t_ms":6}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	spans, last, err := RecoverSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || last != 2 {
		t.Fatalf("got %d spans (last %d), want the sealed tail kept", len(spans), last)
	}
	s := NewJSONLSpanSink(f, "j1", last)
	s.Emit(SpanEvent{Event: SpanStarted})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, last, err = ScanSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 || last != 3 {
		t.Fatalf("append after seal: got %d spans (last %d), want 3/3", len(spans), last)
	}
}

// FuzzRecoverSpans feeds arbitrary file contents to RecoverSpans, opened
// the way the daemon reopens a job's span file. It must never panic. On
// success the file must be empty or end in a newline, a rescan must return
// the same spans and last sequence number, and a span that a sink seeded
// with that number appends must read back with seq last+1.
func FuzzRecoverSpans(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"record":"span","job":"j1","seq":1,"event":"submitted","t_ms":5}` + "\n"))
	f.Add([]byte(`{"record":"span","job":"j1","seq":1,"event":"submitted","t_ms":5}
{"record":"span","job":"j1","seq":2,"event":"queued","t_ms":6}`))
	f.Add([]byte(`{"record":"span","job":"j1","seq":1,"event":"submitted","t_ms":5}
{"record":"span","job":"j1","seq":2,"eve`))
	f.Add([]byte(`{"x":1,"rep":0,"algo":"addc"}
{"record":"span","job":"j1","seq":7,"event":"done","t_ms":9}
`))
	path := filepath.Join(f.TempDir(), "job.spans.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fh, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer fh.Close()
		spans, last, err := RecoverSpans(fh)
		if err != nil {
			return
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(got); n > 0 && got[n-1] != '\n' {
			t.Fatalf("recovered file does not end in a newline: %q", got)
		}
		again, againLast, err := ScanSpans(bytes.NewReader(got))
		if err != nil || againLast != last || !reflect.DeepEqual(again, spans) {
			t.Fatalf("rescan: %d spans, last %d, err %v; recovery gave %d spans, last %d",
				len(again), againLast, err, len(spans), last)
		}

		s := NewJSONLSpanSink(fh, "j1", last)
		s.Emit(SpanEvent{Event: SpanQueued, WallMS: 1})
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		got, err = os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		after, _, err := ScanSpans(bytes.NewReader(got))
		if err != nil || len(after) != len(spans)+1 || after[len(spans)].Seq != last+1 {
			t.Fatalf("appended span did not read back as seq %d: %d spans after, err %v", last+1, len(after), err)
		}
	})
}
