// Command addc-serve runs the simulation engine as a resilient HTTP/JSON
// daemon: submit figure sweeps as jobs, poll their status, stream their
// repetition journals and lifecycle spans, and fetch results that are
// byte-identical to the addc-experiments CLI's CSV output.
//
// Usage:
//
//	addc-serve -state /var/lib/addc          # listen on :8314
//	addc-serve -addr :9000 -workers 4        # bigger worker pool
//	addc-serve -rate 2 -burst 5              # per-client submission limits
//	addc-serve -log-format json              # machine-readable logs
//	addc-serve -debug-addr localhost:6060    # pprof on a private listener
//
//	curl -s localhost:8314/v1/jobs -d '{"figure":"6c"}'      # -> {"id":"j000000"}
//	curl -s localhost:8314/v1/jobs/j000000                   # status
//	curl -s localhost:8314/v1/jobs/j000000/events            # live JSONL feed
//	curl -s 'localhost:8314/v1/jobs/j000000/result?format=csv'
//	curl -s localhost:8314/metrics                           # Prometheus scrape
//
// The daemon is bounded everywhere: a fixed worker pool, a bounded queue
// (overflow gets 429 + Retry-After), a topology cache and simulation
// workspaces per job attempt, freed when the attempt ends, and optional
// per-client token buckets. SIGTERM/SIGINT
// drain gracefully — admission stops, in-flight sweeps get -drain-grace to
// finish before being interrupted at event-loop granularity, everything
// persists — and a restarted daemon resumes unfinished jobs from their
// journals, reproducing the uninterrupted results byte for byte.
//
// Observability: logs are structured (log/slog) on stderr, text by default
// and JSONL with -log-format json; every job-scoped line carries job_id,
// client and state. /metrics serves the Prometheus text exposition.
// -debug-addr starts a
// second listener serving net/http/pprof under /debug/pprof/ — keep it off
// public interfaces; it is opt-in precisely because profiles expose
// internals.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"addcrn/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "addc-serve:", err)
		os.Exit(1)
	}
}

// newLogger builds the daemon's stderr logger in the requested format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

// debugHandler is the pprof mux served on the opt-in -debug-addr listener.
// Handlers are registered explicitly instead of importing net/http/pprof
// for its DefaultServeMux side effect, so the main API listener never
// exposes profiles.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run(args []string) error {
	fs := flag.NewFlagSet("addc-serve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8314", "HTTP listen address")
		state      = fs.String("state", "", "state directory for job records, journals and results (required)")
		workers    = fs.Int("workers", 2, "job workers, each owning one reusable simulation workspace")
		queue      = fs.Int("queue", 16, "queued-job bound; submissions beyond it get 429 + Retry-After")
		rate       = fs.Float64("rate", 0, "per-client submissions per second (0: unlimited)")
		burst      = fs.Float64("burst", 0, "per-client burst size (default max(rate, 1))")
		drainGrace = fs.Duration("drain-grace", 5*time.Second, "how long a drain lets in-flight jobs finish before interrupting them")
		jobWorkers = fs.Int("job-workers", 1, "max sweep parallelism within one job")
		logFormat  = fs.String("log-format", "text", "structured log format on stderr: text or json")
		debugAddr  = fs.String("debug-addr", "", "optional second listener serving /debug/pprof/ (keep private)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *state == "" {
		return errors.New("-state is required")
	}
	logger, err := newLogger(*logFormat)
	if err != nil {
		return err
	}

	srv, err := serve.New(serve.Config{
		Addr:          *addr,
		Workers:       *workers,
		QueueDepth:    *queue,
		StateDir:      *state,
		RatePerSec:    *rate,
		RateBurst:     *burst,
		DrainGrace:    *drainGrace,
		MaxJobWorkers: *jobWorkers,
		Logger:        logger,
	})
	if err != nil {
		return err
	}
	srv.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			httpErr <- err
		}
	}()
	logger.Info("listening", "addr", *addr, "state_dir", *state,
		"workers", *workers, "queue", *queue, "log_format", *logFormat)

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{Addr: *debugAddr, Handler: debugHandler()}
		go func() {
			if err := debugSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				// Diagnostics are optional: losing pprof must not take
				// down the service, but it must be loud in the logs.
				logger.Error("debug listener failed", "addr", *debugAddr, "error", err)
			}
		}()
		logger.Info("pprof enabled", "addr", *debugAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-httpErr:
		return err
	case got := <-sig:
		logger.Info("signal received, draining", "signal", got.String(), "grace", drainGrace.String())
	}

	// Drain order: stop admission and finish/checkpoint jobs first, then
	// close the listener — status polls keep working through the drain.
	srv.Drain(*drainGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		httpSrv.Close()
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	logger.Info("drained cleanly")
	return nil
}
