package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"addcrn/internal/metrics"
)

// eventsPollInterval is how often the /events stream re-reads a growing
// journal while its job is still live.
const eventsPollInterval = 150 * time.Millisecond

// maxSpecBytes bounds a submitted spec body; admission control starts at
// the socket.
const maxSpecBytes = 1 << 20

// Handler returns the server's HTTP API:
//
//	POST /v1/jobs             submit a JobSpec, get {"id": ...} (202)
//	GET  /v1/jobs             list job records
//	GET  /v1/jobs/{id}        one job record
//	GET  /v1/jobs/{id}/result stored result (?format=csv for the raw CSV)
//	GET  /v1/jobs/{id}/events stream the repetition journal interleaved
//	                          with lifecycle spans as JSONL, following
//	                          live jobs until they settle (span lines
//	                          carry "record":"span"; journal lines do not)
//	GET  /healthz             process liveness (always 200)
//	GET  /readyz              admission readiness (503 while draining)
//	GET  /metrics             Prometheus text-format exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

// handleMetrics serves the Prometheus text-format exposition of one
// Telemetry snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.PromContentType)
	writeProm(w, s.Telemetry())
}

// clientKey identifies the submitter for rate limiting: the X-ADDC-Client
// header when present, else the remote host.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-ADDC-Client"); k != "" {
		return k
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, errors.New("spec exceeds 1 MiB"))
		return
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parse spec: %w", err))
		return
	}

	j, err := s.Submit(spec, clientKey(r))
	var rated *RateLimitedError
	switch {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.As(err, &rated):
		w.Header().Set("Retry-After", retryAfterSeconds(rated.RetryAfter))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrQueueFull):
		// The queue drains at simulation speed; a second is a reasonable
		// floor for "come back later".
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case err != nil && j == nil:
		writeError(w, http.StatusBadRequest, err)
	case err != nil:
		// Admitted but the record didn't persist; the job still runs.
		writeJSON(w, http.StatusAccepted, map[string]string{"id": j.ID, "warning": err.Error()})
	default:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": j.ID})
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	res, err := s.Result(id)
	if errors.Is(err, os.ErrNotExist) {
		writeError(w, http.StatusConflict, fmt.Errorf("job is %s, no result yet", j.State))
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if r.URL.Query().Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		io.WriteString(w, res.CSV)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleEvents streams the job's timeline as JSONL: the repetition journal
// interleaved with the job's lifecycle spans — everything recorded so far
// immediately, then appended lines as the job progresses, until it leaves
// the running/queued states (or the client goes away). Journal lines are
// CheckpointEntry objects; span lines carry "record":"span", so a client
// splits the two record types apart to reconstruct the timeline. The two
// files are polled independently, so interleaving order across a poll
// window is by file, not strictly by time — each record type stays in its
// own order, and spans carry t_ms for exact reassembly.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	flusher, _ := w.(http.Flusher)

	journal, spans := s.JournalPath(id), s.SpanPath(id)
	var jOff, sOff int64
	ticker := time.NewTicker(eventsPollInterval)
	defer ticker.Stop()
	for {
		ns, err := streamFile(w, spans, sOff)
		sOff += ns
		if err != nil {
			return // client gone or file unreadable; nothing to report
		}
		nj, err := streamFile(w, journal, jOff)
		jOff += nj
		if err != nil {
			return
		}
		if ns+nj > 0 && flusher != nil {
			flusher.Flush()
		}
		j, ok := s.Job(id)
		if !ok || terminalState(j.State) || j.State == StateInterrupted {
			// One final read catches records flushed during the last poll;
			// the terminal span is already on disk when the state persists.
			streamFile(w, journal, jOff)
			streamFile(w, spans, sOff)
			return
		}
		select {
		case <-ticker.C:
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			return
		}
	}
}

// streamFile copies complete JSONL lines starting at offset to w, returning
// how many bytes were consumed. It never emits a torn final line: a partial
// append is left for the next poll.
func streamFile(w io.Writer, path string, offset int64) (int64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil // the file appears on the job's first flush
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return 0, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, err
	}
	// Trim back to the last newline so only whole lines ship.
	end := len(data)
	for end > 0 && data[end-1] != '\n' {
		end--
	}
	if end == 0 {
		return 0, nil
	}
	if _, err := w.Write(data[:end]); err != nil {
		return 0, err
	}
	return int64(end), nil
}

func retryAfterSeconds(d time.Duration) string {
	secs := int64(d / time.Second)
	if d%time.Second != 0 || secs == 0 {
		secs++
	}
	return strconv.FormatInt(secs, 10)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
