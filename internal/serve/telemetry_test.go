package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"addcrn/internal/metrics"
	"addcrn/internal/metrics/promtest"
	"addcrn/internal/trace"
)

// readSpans loads a job's span stream and checks the structural invariant
// every lifecycle test depends on: sequence numbers dense from 1, in file
// order.
func readSpans(t *testing.T, s *Server, id string) []trace.SpanEvent {
	t.Helper()
	f, err := os.Open(s.SpanPath(id))
	if err != nil {
		t.Fatalf("job %s has no span stream: %v", id, err)
	}
	defer f.Close()
	spans, last, err := trace.ScanSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if last != int64(len(spans)) {
		t.Fatalf("span seqs not dense: %d spans, last seq %d", len(spans), last)
	}
	for i, e := range spans {
		if e.Seq != int64(i+1) {
			t.Fatalf("span %d has seq %d (lost or duplicated transition)", i, e.Seq)
		}
		if e.Job != id {
			t.Fatalf("span %d belongs to job %q, want %q", i, e.Job, id)
		}
		if e.WallMS == 0 {
			t.Fatalf("span %d has no wall-clock timestamp", i)
		}
	}
	return spans
}

func spanNames(spans []trace.SpanEvent) []string {
	out := make([]string, len(spans))
	for i, e := range spans {
		out[i] = e.Event
	}
	return out
}

// A job's latency histograms count it before its terminal state is
// published, so a scrape that follows a client seeing the job done (as in
// TestMetricsGoldenScrape) always includes it. The test holds the job table's
// lock while a job settles: no reader can see the terminal state, and the
// histograms must count the job all the same.
func TestHistogramsCountJobBeforeItSettles(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	j, err := s.Submit(quickSpec(32), "order-test")
	if err != nil {
		t.Fatal(err)
	}
	// The server is not started, so the job stays queued and this goroutine
	// settles it.
	j.StartedAt = j.SubmittedAt

	s.mu.Lock()
	settled := make(chan struct{})
	go func() {
		defer close(settled)
		s.terminate(j, StateDone, trace.SpanDone, "", nil, false)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.stats.execution.Count() < 1 || s.stats.duration.Count() < 1 {
		if time.Now().After(deadline) {
			s.mu.Unlock()
			<-settled
			t.Fatal("job not in the latency histograms while its terminal state waits to be published")
		}
		time.Sleep(time.Millisecond)
	}
	s.mu.Unlock()
	<-settled

	if got, _ := s.Job(j.ID); got.State != StateDone {
		t.Fatalf("job state %q, want %q", got.State, StateDone)
	}
}

// The /metrics exposition is golden: it must survive the strict parser and
// expose every required family with the right type.
func TestMetricsGoldenScrape(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.Start()
	defer s.Drain(time.Millisecond)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, err := s.Submit(quickSpec(31), "scrape-test")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, j.ID, StateDone, 2*time.Minute)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, metrics.PromContentType)
	}
	fams, err := promtest.ParsePromText(body)
	if err != nil {
		t.Fatalf("/metrics failed the strict parser: %v\n%s", err, body)
	}

	required := map[string]string{
		"addc_build_info":              "gauge",
		"addc_jobs_submitted_total":    "counter",
		"addc_jobs_completed_total":    "counter",
		"addc_jobs_failed_total":       "counter",
		"addc_jobs_deadline_total":     "counter",
		"addc_jobs_interrupted_total":  "counter",
		"addc_job_retries_total":       "counter",
		"addc_jobs_rejected_total":     "counter",
		"addc_jobs_state":              "gauge",
		"addc_queue_depth":             "gauge",
		"addc_queue_depth_peak":        "gauge",
		"addc_queue_capacity":          "gauge",
		"addc_workers":                 "gauge",
		"addc_workers_busy":            "gauge",
		"addc_workers_busy_peak":       "gauge",
		"addc_worker_utilization":      "gauge",
		"addc_topo_cache_hits_total":   "counter",
		"addc_topo_cache_misses_total": "counter",
		"addc_job_queue_wait_seconds":  "histogram",
		"addc_job_execution_seconds":   "histogram",
		"addc_job_duration_seconds":    "histogram",
	}
	for name, typ := range required {
		f := fams[name]
		if f == nil {
			t.Errorf("required family %s missing from /metrics", name)
			continue
		}
		if f.Type != typ {
			t.Errorf("family %s has type %q, want %q", name, f.Type, typ)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// A completed job has latency observations in all three histograms.
	for _, name := range []string{"addc_job_queue_wait_seconds", "addc_job_execution_seconds", "addc_job_duration_seconds"} {
		observed := false
		for _, smp := range fams[name].Samples {
			if smp.Name == name+"_count" && smp.Value >= 1 {
				observed = true
			}
		}
		if !observed {
			t.Errorf("%s_count < 1 after a completed job", name)
		}
	}
	// The rejected-total vector exposes both reasons even at zero.
	for _, reason := range []string{"queue_full", "rate_limited"} {
		if _, ok := fams["addc_jobs_rejected_total"].Series(map[string]string{"reason": reason}); !ok {
			t.Errorf("addc_jobs_rejected_total missing reason=%q", reason)
		}
	}
	// The state vector exposes all states, zeroes included.
	for _, st := range allStates {
		if _, ok := fams["addc_jobs_state"].Series(map[string]string{"state": st}); !ok {
			t.Errorf("addc_jobs_state missing state=%q", st)
		}
	}

	// The exposed counters are the server's own snapshot values.
	stats := s.Stats()
	if v, _ := fams["addc_jobs_submitted_total"].Value(); int64(v) != stats.Submitted {
		t.Fatalf("/metrics submitted %v != server submitted %d", v, stats.Submitted)
	}
	if v, _ := fams["addc_jobs_completed_total"].Value(); int64(v) != stats.Completed {
		t.Fatalf("/metrics completed %v != server completed %d", v, stats.Completed)
	}

	// Counters are monotone across scrapes: run one more job and re-scrape.
	j2, err := s.Submit(quickSpec(32), "scrape-test")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, j2.ID, StateDone, 2*time.Minute)
	resp2, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	fams2, err := promtest.ParsePromText(body2)
	if err != nil {
		t.Fatalf("second scrape failed the strict parser: %v", err)
	}
	for _, name := range []string{"addc_jobs_submitted_total", "addc_jobs_completed_total"} {
		v1, _ := fams[name].Value()
		v2, _ := fams2[name].Value()
		if v2 < v1+1 {
			t.Fatalf("%s did not advance: %v -> %v", name, v1, v2)
		}
	}
}

// A job that runs to completion leaves the complete, ordered lifecycle
// span set: submitted, queued, started, any checkpoint flushes, done.
func TestSpanLifecycleHappyPath(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.Start()
	defer s.Drain(time.Millisecond)

	j, err := s.Submit(testSpec(41), "span-test")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, j.ID, StateDone, 2*time.Minute)

	spans := readSpans(t, s, j.ID)
	names := spanNames(spans)
	if len(names) < 4 {
		t.Fatalf("span set incomplete: %v", names)
	}
	if names[0] != trace.SpanSubmitted || names[1] != trace.SpanQueued || names[2] != trace.SpanStarted {
		t.Fatalf("lifecycle prefix out of order: %v", names)
	}
	if names[len(names)-1] != trace.SpanDone {
		t.Fatalf("terminal span is %q, want done: %v", names[len(names)-1], names)
	}
	for _, mid := range names[3 : len(names)-1] {
		if mid != trace.SpanCheckpointFlush {
			t.Fatalf("unexpected mid-lifecycle span %q: %v", mid, names)
		}
	}
	// The sweep journals and closes once, so at least one flush span rode
	// the context-propagated job ID into the stream.
	flushes := 0
	for _, n := range names {
		if n == trace.SpanCheckpointFlush {
			flushes++
		}
	}
	if flushes == 0 {
		t.Fatalf("no checkpoint_flush spans; sweep-layer emission is dead: %v", names)
	}
}

// A retrying job emits one retry span per failed attempt and one started
// span per attempt, all densely numbered, ending in a single terminal span.
func TestSpanLifecycleRetry(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.Start()
	defer s.Drain(time.Millisecond)

	// Deterministically disconnected deployment: every attempt fails.
	spec := quickSpec(42)
	spec.NumSU = 10
	spec.Area = 5000
	spec.Retries = 2
	j, err := s.Submit(spec, "span-test")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		cur, _ := s.Job(j.ID)
		if terminalState(cur.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", cur.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Failing attempts still flush their journal; the flush spans are
	// attempt-local noise for this assertion, so compare the lifecycle
	// skeleton without them.
	var names []string
	for _, n := range spanNames(readSpans(t, s, j.ID)) {
		if n != trace.SpanCheckpointFlush {
			names = append(names, n)
		}
	}
	want := []string{
		trace.SpanSubmitted, trace.SpanQueued,
		trace.SpanStarted, trace.SpanRetry,
		trace.SpanStarted, trace.SpanRetry,
		trace.SpanStarted, trace.SpanFailed,
	}
	if len(names) != len(want) {
		t.Fatalf("span set = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("span %d = %q, want %q (full set %v)", i, names[i], want[i], names)
		}
	}
}

// A drain interrupts the job mid-sweep and a restarted daemon finishes it:
// the span stream must stay densely numbered across both daemon lifetimes,
// with exactly one interrupted span followed by the resumed lifecycle.
func TestSpanSeqAcrossRestart(t *testing.T) {
	spec := JobSpec{
		Figure:     "6c",
		Xs:         []float64{0.1, 0.2},
		Reps:       15,
		Seed:       7,
		MaxVirtual: Duration(30 * time.Minute),
	}
	dir := t.TempDir()
	first := newTestServer(t, Config{Workers: 1, StateDir: dir})
	first.Start()
	j, err := first.Submit(spec, "restart-test")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, first, j.ID, StateRunning, time.Minute)
	jp := first.JournalPath(j.ID)
	for {
		if fi, err := os.Stat(jp); err == nil && fi.Size() > 0 {
			break
		}
		if cur, _ := first.Job(j.ID); terminalState(cur.State) {
			t.Fatalf("job finished before the drain could interrupt it (state %s)", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	first.Drain(time.Millisecond)
	if cur, _ := first.Job(j.ID); cur.State != StateInterrupted {
		t.Fatalf("after drain, job state = %q, want interrupted", cur.State)
	}

	second := newTestServer(t, Config{Workers: 1, StateDir: dir})
	second.Start()
	defer second.Drain(time.Millisecond)
	waitJob(t, second, j.ID, StateDone, 2*time.Minute)

	// readSpans checks density across both daemons' emissions; here the
	// shape: one interrupted span, then the restart's queued/started, and
	// done last.
	names := spanNames(readSpans(t, second, j.ID))
	interruptedAt := -1
	for i, n := range names {
		if n == trace.SpanInterrupted {
			if interruptedAt >= 0 {
				t.Fatalf("multiple interrupted spans: %v", names)
			}
			interruptedAt = i
		}
	}
	if interruptedAt < 0 {
		t.Fatalf("no interrupted span recorded: %v", names)
	}
	rest := names[interruptedAt+1:]
	if len(rest) < 3 || rest[0] != trace.SpanQueued || rest[1] != trace.SpanStarted || rest[len(rest)-1] != trace.SpanDone {
		t.Fatalf("post-restart lifecycle malformed: %v", rest)
	}
	if names[len(names)-1] != trace.SpanDone {
		t.Fatalf("terminal span is %q, want done", names[len(names)-1])
	}
}

// An HTTP 404 and rejection paths must not create span files, and the
// /metrics endpoint works on a fresh server with zero observations (empty
// histograms still render validly).
func TestMetricsEmptyServer(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if _, err := promtest.ParsePromText(body); err != nil {
		t.Fatalf("empty-server scrape invalid: %v\n%s", err, body)
	}
}
