package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"addcrn/internal/experiment"
	"addcrn/internal/trace"
)

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec, client string) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if client != "" {
		req.Header.Set("X-ADDC-Client", client)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// End-to-end over HTTP: submit, poll, stream events, fetch the CSV result,
// and confirm it matches a direct engine run byte for byte.
func TestHTTPLifecycle(t *testing.T) {
	spec := testSpec(21)
	want := referenceCSV(t, spec)

	s := newTestServer(t, Config{Workers: 1})
	s.Start()
	defer s.Drain(time.Millisecond)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJob(t, ts, spec, "curl-test")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	decodeBody(t, resp, &submitted)
	if submitted.ID == "" {
		t.Fatal("submit returned no job ID")
	}

	// The events stream follows the journal and closes when the job ends.
	eventsResp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + submitted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eventsResp.Body.Close()
	// The stream interleaves two record types: lifecycle spans (marked
	// "record":"span") and checkpoint-journal entries (everything else).
	var events int
	var spanEvents []string
	scanner := bufio.NewScanner(eventsResp.Body)
	for scanner.Scan() {
		var sp trace.SpanEvent
		if err := json.Unmarshal(scanner.Bytes(), &sp); err == nil && sp.Record == trace.SpanRecord {
			spanEvents = append(spanEvents, sp.Event)
			continue
		}
		var e experiment.CheckpointEntry
		if err := json.Unmarshal(scanner.Bytes(), &e); err != nil {
			t.Fatalf("events line %d is neither a span nor a checkpoint entry: %v", events, err)
		}
		events++
	}
	// 2 x-values * 2 reps * 2 algorithms.
	if events != 8 {
		t.Fatalf("streamed %d journal events, want 8", events)
	}
	// The span timeline rides the same stream, in lifecycle order.
	if len(spanEvents) < 4 {
		t.Fatalf("streamed %d spans, want at least submitted/queued/started/done: %v", len(spanEvents), spanEvents)
	}
	if spanEvents[0] != trace.SpanSubmitted || spanEvents[1] != trace.SpanQueued ||
		spanEvents[2] != trace.SpanStarted || spanEvents[len(spanEvents)-1] != trace.SpanDone {
		t.Fatalf("span timeline out of order: %v", spanEvents)
	}

	var job Job
	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/" + submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &job)
	if job.State != StateDone {
		t.Fatalf("after events stream closed, job state = %q, want done", job.State)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/" + submitted.ID + "/result?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	csv, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(csv) != want {
		t.Fatalf("HTTP CSV diverged from direct run:\n--- direct\n%s--- http\n%s", want, csv)
	}

	var list struct {
		Jobs []Job `json:"jobs"`
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != submitted.ID {
		t.Fatalf("job list = %+v, want the one submitted job", list.Jobs)
	}
}

// Admission over HTTP: queue overflow and rate limiting both return 429
// with a Retry-After header; draining returns 503 and flips readiness.
func TestHTTPAdmissionControl(t *testing.T) {
	// No Start(): submissions stay queued, so the bound is reached exactly.
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp := postJob(t, ts, quickSpec(1), ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", resp.StatusCode)
	}
	resp := postJob(t, ts, quickSpec(2), "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full 429 carries no Retry-After header")
	}
	resp.Body.Close()

	// Malformed and invalid specs are 400s, not 5xx.
	badReq, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader("{not json"))
	badResp, err := ts.Client().Do(badReq)
	if err != nil {
		t.Fatal(err)
	}
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d, want 400", badResp.StatusCode)
	}
	badResp.Body.Close()
	if resp := postJob(t, ts, JobSpec{Figure: "nope"}, ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid figure status = %d, want 400", resp.StatusCode)
	}

	// Unknown jobs are 404; a queued job's result is 409 (not ready).
	for _, probe := range []string{"/v1/jobs/zzz", "/v1/jobs/zzz/result", "/v1/jobs/zzz/events"} {
		resp, err := ts.Client().Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status = %d, want 404", probe, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/j000000/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("queued result status = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// Liveness vs readiness across a drain.
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := ts.Client().Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d, want 200", probe, resp.StatusCode)
		}
		resp.Body.Close()
	}
	s.Drain(time.Millisecond)
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	if resp := postJob(t, ts, quickSpec(3), ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit status = %d, want 503", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz status = %d, want 200 (process is alive)", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHTTPRateLimit(t *testing.T) {
	s := newTestServer(t, Config{RatePerSec: 0.01, RateBurst: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp := postJob(t, ts, quickSpec(1), "hammer"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", resp.StatusCode)
	}
	resp := postJob(t, ts, quickSpec(2), "hammer")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive whole-second value", ra)
	}
	resp.Body.Close()
	if resp := postJob(t, ts, quickSpec(3), "other"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("independent client status = %d, want 202", resp.StatusCode)
	}
}
