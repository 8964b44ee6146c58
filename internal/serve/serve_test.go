package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"addcrn/internal/experiment"
)

// testSpec is a small fig-6c job (two activity probabilities, two reps at a
// tiny connected operating point) that finishes in a couple of seconds.
func testSpec(seed uint64) JobSpec {
	return JobSpec{
		Figure:     "6c",
		Xs:         []float64{0.1, 0.2},
		Reps:       2,
		Seed:       seed,
		NumSU:      80,
		Area:       55,
		NumPU:      3,
		MaxVirtual: Duration(30 * time.Minute),
	}
}

// quickSpec is the fastest useful job, for stress tests that need volume.
func quickSpec(seed uint64) JobSpec {
	return JobSpec{
		Figure:     "6c",
		Xs:         []float64{0.1},
		Reps:       1,
		Seed:       seed,
		NumSU:      60,
		Area:       50,
		NumPU:      2,
		MaxVirtual: Duration(30 * time.Minute),
	}
}

// referenceCSV runs the spec's sweep directly (no journal, no server) and
// returns its canonical CSV.
func referenceCSV(t *testing.T, spec JobSpec) string {
	t.Helper()
	sw, err := spec.sweep(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.FormatCSV()
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitJob polls until the job reaches want, failing fast if it settles in
// any other terminal state.
func waitJob(t *testing.T, s *Server, id, want string, timeout time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if j.State == want {
			return j
		}
		if terminalState(j.State) {
			t.Fatalf("job %s settled in %q (error %q), want %q", id, j.State, j.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	j, _ := s.Job(id)
	t.Fatalf("job %s stuck in %q after %v, want %q", id, j.State, timeout, want)
	return Job{}
}

// The service contract: a job's stored CSV is byte-identical to running the
// same spec through the engine directly (what the CLI does).
func TestJobResultMatchesDirectRun(t *testing.T) {
	spec := testSpec(5)
	want := referenceCSV(t, spec)

	s := newTestServer(t, Config{Workers: 2})
	s.Start()
	defer s.Drain(time.Millisecond)

	j, err := s.Submit(spec, "tester")
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, s, j.ID, StateDone, 2*time.Minute)
	if done.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1", done.Attempts)
	}
	res, err := s.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatal("uninterrupted job stored a partial result")
	}
	if res.CSV != want {
		t.Fatalf("service CSV diverged from direct run:\n--- direct\n%s--- service\n%s", want, res.CSV)
	}
	if res.MeanDelayRatio <= 0 {
		t.Fatalf("MeanDelayRatio = %v, want > 0", res.MeanDelayRatio)
	}
}

// The extension figures go through the same catalogue: an ext2 job's stored
// CSV, unsharded and split over two shard jobs, is byte-identical to running
// the ext2 sweep directly.
func TestExtensionJobMatchesDirectRun(t *testing.T) {
	spec := testSpec(6)
	spec.Figure = "ext2"
	spec.Xs = []float64{0, 0.2}
	want := referenceCSV(t, spec)
	if !strings.HasPrefix(want, "x,addc_delay_mean,addc_delay_ci95,addc_delivery_mean,") {
		t.Fatalf("direct ext2 run did not render the ADDC-only CSV:\n%s", want)
	}

	s := newTestServer(t, Config{Workers: 2})
	s.Start()
	defer s.Drain(time.Millisecond)
	for _, shards := range []int{0, 2} {
		spec.Shards = shards
		j, err := s.Submit(spec, "tester")
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, s, j.ID, StateDone, 2*time.Minute)
		res, err := s.Result(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if res.Partial || res.CSV != want {
			t.Fatalf("shards=%d: service CSV (partial %v) diverged from direct run:\n--- direct\n%s--- service\n%s",
				shards, res.Partial, want, res.CSV)
		}
		// An ADDC-only job has no Coolest/ADDC delay ratio to store.
		raw, err := os.ReadFile(resultPath(s.cfg.StateDir, j.ID))
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		if v, ok := fields["mean_delay_ratio"]; ok {
			t.Fatalf("shards=%d: ADDC-only result stores mean_delay_ratio %s", shards, v)
		}
	}
}

// A share_topology job's topology cache lookups, as the server counts them,
// equal those of a direct Sweep.Run of the same spec: each job owns its
// cache, so an identical resubmission builds every topology again.
func TestJobTopoCacheCountsMatchDirectRun(t *testing.T) {
	spec := testSpec(7)
	spec.ShareTopology = true
	sw, err := spec.sweep(1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if direct.TopoCache.Hits == 0 || direct.TopoCache.Misses == 0 {
		t.Fatalf("direct run stats = %+v, want hits and misses", direct.TopoCache)
	}

	s := newTestServer(t, Config{Workers: 1})
	s.Start()
	defer s.Drain(time.Millisecond)
	for n := int64(1); n <= 2; n++ {
		j, err := s.Submit(spec, "tester")
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, s, j.ID, StateDone, 2*time.Minute)
		want := experiment.TopoCacheStats{Hits: n * direct.TopoCache.Hits, Misses: n * direct.TopoCache.Misses}
		if got := s.Stats().TopoCache; got != want {
			t.Fatalf("after %d jobs: server counts %+v, want %+v", n, got, want)
		}
	}
}

// A full queue refuses immediately with ErrQueueFull; nothing blocks and
// nothing is silently buffered.
func TestSubmitQueueFull(t *testing.T) {
	// No Start(): nothing drains the queue.
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(quickSpec(uint64(i+1)), ""); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := s.Submit(quickSpec(9), "")
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := s.Stats().RejectedFull; got != 1 {
		t.Fatalf("RejectedFull = %d, want 1", got)
	}
	// The refused submission did not leak a job record.
	if got := len(s.Jobs()); got != 2 {
		t.Fatalf("job table holds %d records, want 2", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.Submit(JobSpec{Figure: "9z"}, ""); err == nil {
		t.Fatal("unknown figure admitted")
	}
	bad := quickSpec(1)
	bad.Retries = 99
	if _, err := s.Submit(bad, ""); err == nil {
		t.Fatal("out-of-range retries admitted")
	}
	if n := s.Stats().Submitted; n != 0 {
		t.Fatalf("Submitted = %d after only invalid specs", n)
	}
}

func TestSubmitRateLimited(t *testing.T) {
	s := newTestServer(t, Config{RatePerSec: 0.01, RateBurst: 1})
	if _, err := s.Submit(quickSpec(1), "client-a"); err != nil {
		t.Fatal(err)
	}
	var rated *RateLimitedError
	_, err := s.Submit(quickSpec(2), "client-a")
	if !errors.As(err, &rated) {
		t.Fatalf("err = %v, want RateLimitedError", err)
	}
	if rated.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", rated.RetryAfter)
	}
	// Another client is unaffected, and stats recorded the rejection.
	if _, err := s.Submit(quickSpec(3), "client-b"); err != nil {
		t.Fatalf("independent client refused: %v", err)
	}
	if got := s.Stats().RejectedRate; got != 1 {
		t.Fatalf("RejectedRate = %d, want 1", got)
	}
}

// A drain mid-sweep checkpoints the job, and a new server over the same
// state directory finishes it with output byte-identical to a run that was
// never interrupted.
func TestDrainResumeByteIdentical(t *testing.T) {
	// Fifteen reps of two points at the scaled default operating point:
	// a couple of seconds of work, so the journal's interval flush fires
	// and the drain provably lands mid-sweep.
	spec := JobSpec{
		Figure:     "6c",
		Xs:         []float64{0.1, 0.2},
		Reps:       15,
		Seed:       7,
		MaxVirtual: Duration(30 * time.Minute),
	}
	want := referenceCSV(t, spec)

	dir := t.TempDir()
	first := newTestServer(t, Config{Workers: 1, StateDir: dir})
	first.Start()
	j, err := first.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, first, j.ID, StateRunning, time.Minute)
	// Wait for the journal's first flush so the resume provably skips work.
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
	interrupted, ok := first.Job(j.ID)
	if !ok || interrupted.State != StateInterrupted {
		t.Fatalf("after drain, job state = %q, want %q", interrupted.State, StateInterrupted)
	}

	// Restart on the same state directory: the job resumes and completes.
	second := newTestServer(t, Config{Workers: 1, StateDir: dir})
	second.Start()
	defer second.Drain(time.Millisecond)
	done := waitJob(t, second, j.ID, StateDone, 2*time.Minute)
	if done.Resumed == 0 {
		t.Fatal("restart reran everything; expected journaled repetitions to be resumed")
	}
	res, err := second.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV != want {
		t.Fatalf("resumed CSV diverged from uninterrupted run:\n--- uninterrupted\n%s--- resumed\n%s", want, res.CSV)
	}
}

// A job's own wall-clock deadline interrupts it into the terminal
// "deadline" state with a partial result; the server keeps serving.
func TestJobDeadline(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.Start()
	defer s.Drain(time.Millisecond)

	spec := testSpec(11)
	spec.Timeout = Duration(time.Millisecond)
	j, err := s.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		cur, _ := s.Job(j.ID)
		if cur.State == StateDeadline {
			break
		}
		if terminalState(cur.State) {
			t.Fatalf("job settled in %q, want %q", cur.State, StateDeadline)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	res, err := s.Result(j.ID)
	if err != nil {
		t.Fatalf("deadline job stored no result: %v", err)
	}
	if !res.Partial {
		t.Fatal("deadline result not marked partial")
	}

	// The worker survives: a healthy job still completes afterward.
	ok, err := s.Submit(quickSpec(12), "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, ok.ID, StateDone, 2*time.Minute)
}

// Hammer the server with concurrent submissions and confirm every
// configured bound held: worker-pool peak, queue peak, idle workspaces.
func TestBoundsUnderStress(t *testing.T) {
	spec := quickSpec(1)
	cfg := Config{Workers: 2, QueueDepth: 3}
	s := newTestServer(t, cfg)
	s.Start()
	defer s.Drain(time.Minute)

	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted, refused := 0, 0
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				sp := spec
				sp.Seed = uint64(1 + g) // identical work per client
				_, err := s.Submit(sp, fmt.Sprintf("client-%d", g))
				mu.Lock()
				if err == nil {
					accepted++
				} else if errors.Is(err, ErrQueueFull) {
					refused++
				} else {
					mu.Unlock()
					panic(err)
				}
				mu.Unlock()
				time.Sleep(20 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if accepted == 0 {
		t.Fatal("stress admitted nothing")
	}

	// Wait for every admitted job to settle.
	deadline := time.Now().Add(3 * time.Minute)
	for {
		settled := 0
		for _, j := range s.Jobs() {
			if terminalState(j.State) {
				settled++
			}
		}
		if settled == accepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs settled", settled, accepted)
		}
		time.Sleep(20 * time.Millisecond)
	}

	st := s.Stats()
	if st.RunningPeak > int64(cfg.Workers) {
		t.Fatalf("running peak %d exceeds the %d-worker bound", st.RunningPeak, cfg.Workers)
	}
	if st.QueuedPeak > int64(cfg.QueueDepth) {
		t.Fatalf("queued peak %d exceeds the %d-deep queue bound", st.QueuedPeak, cfg.QueueDepth)
	}
	if refused > 0 && st.RejectedFull == 0 {
		t.Fatal("queue-full refusals not counted")
	}
	if got := st.Completed + st.Failed + st.Interrupted; got != int64(accepted) {
		t.Fatalf("settled counters sum to %d, want %d", got, accepted)
	}
}

// A failing job retries with backoff up to its budget and then fails; the
// attempt count is recorded.
func TestJobRetriesThenFails(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.Start()
	defer s.Drain(time.Millisecond)

	// A disconnected operating point: a huge area with a handful of nodes
	// deterministically fails deployment on every attempt.
	spec := quickSpec(3)
	spec.NumSU = 10
	spec.Area = 5000
	spec.Retries = 2
	j, err := s.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	var cur Job
	for {
		cur, _ = s.Job(j.ID)
		if terminalState(cur.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", cur.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cur.State != StateFailed {
		t.Fatalf("state = %q, want %q", cur.State, StateFailed)
	}
	if cur.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3 (1 + 2 retries)", cur.Attempts)
	}
	if cur.Error == "" {
		t.Fatal("failed job recorded no error")
	}
	if got := s.Stats().Retried; got != 2 {
		t.Fatalf("Retried = %d, want 2", got)
	}
}
