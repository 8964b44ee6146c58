package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"addcrn/internal/experiment"
	"addcrn/internal/netmodel"
	"addcrn/internal/serve"
	"addcrn/internal/spectrum"
)

// serveWorkload runs an in-process addc-serve (default Config, on-disk
// state) behind a loopback listener. Two closed-loop clients each submit a
// job, poll its record, and fetch its CSV.
type serveWorkload struct {
	srv      *serve.Server
	http     *http.Server
	base     string
	serveErr chan error
	// transports holds one keep-alive connection per client.
	mu         sync.Mutex
	transports []*http.Transport
}

const (
	serveClients = 2
	// servePoll is the record poll interval, well below a job's ≈0.1 s.
	servePoll = 5 * time.Millisecond
	// servePollLimit bounds one job's wait, so a stuck job fails its op
	// instead of hanging the run.
	servePollLimit = time.Minute
)

var serveFigures = []string{"6a", "6b", "6c", "6d", "6e", "6f"}

// serveSpec is op i's job: figures cycle 6a–6f at n = 60, area 45, N = 3,
// 3 reps, topology sharing on, with a new seed per round of six.
func serveSpec(seed, index uint64) serve.JobSpec {
	return serve.JobSpec{
		Figure:        serveFigures[index%uint64(len(serveFigures))],
		Reps:          3,
		Seed:          opSeed(seed, index/uint64(len(serveFigures))|1<<50),
		NumSU:         60,
		NumPU:         3,
		Area:          45,
		ShareTopology: true,
	}
}

// expectedCSV computes a job's CSV directly through the sweep layer, the
// same way the service turns a JobSpec into a sweep.
func expectedCSV(spec serve.JobSpec) (string, error) {
	p := netmodel.ScaledDefaultParams()
	p.NumSU, p.NumPU, p.Area = spec.NumSU, spec.NumPU, spec.Area
	sw, err := experiment.NewFigureSweep(spec.Figure, p, spec.Seed)
	if err != nil {
		return "", err
	}
	sw.Reps = spec.Reps
	sw.PUModel = spectrum.ModelExact
	sw.ShareTopology = spec.ShareTopology
	sw.Workers = 1
	res, err := sw.Run()
	if err != nil {
		return "", err
	}
	return res.FormatCSV(), nil
}

type servePayload struct {
	spec serve.JobSpec
	id   string
	csv  string
}

func (w *serveWorkload) clients() int { return serveClients }

func (w *serveWorkload) setUp(b *bench) error {
	srv, err := serve.New(serve.Config{StateDir: b.stateDir})
	if err != nil {
		return err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(time.Second)
		return err
	}
	w.srv = srv
	w.http = &http.Server{Handler: srv.Handler()}
	w.base = "http://" + ln.Addr().String()
	w.serveErr = make(chan error, 1)
	go func() { w.serveErr <- w.http.Serve(ln) }()
	return nil
}

func (w *serveWorkload) tearDown() error {
	if w.srv == nil {
		return nil
	}
	for _, t := range w.transports {
		t.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := w.http.Shutdown(ctx)
	if serr := <-w.serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	w.srv.Drain(time.Second)
	w.srv = nil
	return err
}

// client returns the HTTP client of one client goroutine; each keeps at
// most one idle keep-alive connection.
func (w *serveWorkload) client(id int) *http.Client {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.transports) < serveClients {
		w.transports = append(w.transports, &http.Transport{MaxIdleConnsPerHost: 1})
	}
	return &http.Client{Transport: w.transports[id], Timeout: time.Minute}
}

func (w *serveWorkload) runOp(b *bench, op *opRecord) {
	spec := serveSpec(op.wseed, op.index)
	pl := servePayload{spec: spec}
	op.payload = &pl
	c := w.client(op.client)

	body, _ := json.Marshal(spec)
	t := time.Now()
	resp, err := c.Post(w.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		op.err = err
		return
	}
	var sub struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	err = decodeJSON(resp, http.StatusAccepted, &sub)
	b.ledger.span(op.index, "serve.submit_s", t)
	if err != nil {
		op.err = err
		return
	}
	pl.id = sub.ID

	var job serve.Job
	giveUp := time.Now().Add(servePollLimit)
	for {
		if time.Now().After(giveUp) {
			op.err = fmt.Errorf("job %s still %s after %v", sub.ID, job.State, servePollLimit)
			return
		}
		resp, err := c.Get(w.base + "/v1/jobs/" + sub.ID)
		if err != nil {
			op.err = err
			return
		}
		if err := decodeJSON(resp, http.StatusOK, &job); err != nil {
			op.err = err
			return
		}
		if job.State != serve.StateQueued && job.State != serve.StateRunning {
			break
		}
		time.Sleep(servePoll)
	}
	seen := time.Now()
	if !checkJobDone(op, job) {
		return
	}
	// The job record's timestamps are wall-clock Unix milliseconds.
	b.ledger.spanAt(op.index, "serve.queue_wait_s", float64(job.StartedAt-job.SubmittedAt)/1e3)
	b.ledger.spanAt(op.index, "serve.exec_s", float64(job.FinishedAt-job.StartedAt)/1e3)
	b.ledger.spanAt(op.index, "serve.notify_lag_s", float64(seen.UnixMilli()-job.FinishedAt)/1e3)

	t = time.Now()
	resp, err = c.Get(w.base + "/v1/jobs/" + sub.ID + "/result?format=csv")
	if err != nil {
		op.err = err
		return
	}
	csv, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	b.ledger.span(op.index, "serve.result_s", t)
	if err != nil {
		op.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		op.err = fmt.Errorf("GET result: %s: %s", resp.Status, csv)
		return
	}
	pl.csv = string(csv)
	op.runs = csvRuns(pl.csv)
}

// checkJobDone requires the job to end in state done.
func checkJobDone(op *opRecord, job serve.Job) bool {
	if job.State != serve.StateDone {
		op.fail("job %s ended %s: %s", job.ID, job.State, job.Error)
		return false
	}
	return true
}

// decodeJSON reads a JSON response body, requiring the given status.
func decodeJSON(resp *http.Response, status int, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != status {
		return fmt.Errorf("%s %s: %s: %s", resp.Request.Method, resp.Request.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// csvRuns counts the simulation runs behind a sweep CSV: each row's reps
// column, times two algorithms.
func csvRuns(csv string) int {
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 2 {
		return 0
	}
	col := -1
	for i, h := range strings.Split(lines[0], ",") {
		if h == "reps" {
			col = i
		}
	}
	runs := 0
	for _, l := range lines[1:] {
		f := strings.Split(l, ",")
		if col < 0 || col >= len(f) {
			return 0
		}
		n, _ := strconv.Atoi(f[col])
		runs += 2 * n
	}
	return runs
}

// verify recomputes every job's CSV through the sweep layer, outside
// timing, on serveClients goroutines; each must match byte for byte.
func (w *serveWorkload) verify(b *bench, phases []*phase) {
	var todo []*opRecord
	for _, p := range phases {
		for _, op := range p.ops {
			if !op.failed() {
				todo = append(todo, op)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < serveClients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(todo); i += serveClients {
				op := todo[i]
				pl := op.payload.(*servePayload)
				want, err := expectedCSV(pl.spec)
				switch {
				case err != nil:
					op.fail("direct sweep: %v", err)
				case want != pl.csv:
					op.fail("job %s CSV differs from the direct sweep", pl.id)
				}
			}
		}()
	}
	wg.Wait()
}

// layerValues reads the service counters from GET /metrics and the state
// directory's per-job file sizes for the traced phase's first job.
func (w *serveWorkload) layerValues(b *bench, traced *phase) map[string]float64 {
	out := map[string]float64{}
	prom, err := w.scrape()
	if err != nil {
		fmt.Fprintln(b.log, "addcbench: scrape /metrics:", err)
		return out
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits, misses := prom["addc_topo_cache_hits_total"], prom["addc_topo_cache_misses_total"]
	out["serve.topo_cache_hit_ratio"] = ratio(hits, hits+misses)
	out["serve.workspace_reuse_ratio"] = ratio(prom["addc_workspace_pool_reuses_total"], prom["addc_workspace_pool_gets_total"])
	if len(traced.ops) > 0 {
		if pl, ok := traced.ops[0].payload.(*servePayload); ok && pl.id != "" {
			out["serve.journal_bytes"] = fileSize(w.srv.JournalPath(pl.id))
			out["serve.span_bytes"] = fileSize(w.srv.SpanPath(pl.id))
		}
	}
	return out
}

// scrape fetches GET /metrics and returns every unlabeled sample.
func (w *serveWorkload) scrape() (map[string]float64, error) {
	resp, err := w.client(0).Get(w.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

func fileSize(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size())
}

func (w *serveWorkload) notes([]*phase) map[string]any {
	return map[string]any{
		"clients":         serveClients,
		"connections":     serveClients,
		"server_workers":  "default (2)",
		"poll_interval_s": servePoll.Seconds(),
		"job":             "figures 6a-6f, n=60, area=45, N=3, reps=3, share_topology",
	}
}
