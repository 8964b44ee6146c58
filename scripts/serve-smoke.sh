#!/usr/bin/env bash
# Smoke test for the addc-serve daemon: boot it on a temp state dir, submit
# a small figure job over HTTP, wait for completion, and require the CSV
# result to match the addc-experiments CLI byte for byte — the service is a
# deployment of the same deterministic engine, not a different code path.
# Along the way, exercise the observability surface: scrape /metrics
# mid-job and after, require the Prometheus families the dashboards depend
# on to be present and the job counters to advance monotonically, require
# lifecycle spans on the events feed, and require pprof on the opt-in debug
# listener. Finally SIGTERM the daemon and require a clean (exit 0)
# graceful drain.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${PORT:-8377}"
DEBUG_PORT="${DEBUG_PORT:-8378}"
FIG=6a
REPS=2
SEED=3

workdir=$(mktemp -d)
pid=""
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$workdir"' EXIT

go build -o "$workdir/addc-serve" ./cmd/addc-serve
"$workdir/addc-serve" -addr "127.0.0.1:$PORT" -state "$workdir/state" \
    -log-format json -debug-addr "127.0.0.1:$DEBUG_PORT" \
    2>"$workdir/daemon.log" &
pid=$!

base="http://127.0.0.1:$PORT"
up=""
for _ in $(seq 1 50); do
    if curl -fsS "$base/healthz" >/dev/null 2>&1; then up=1; break; fi
    sleep 0.2
done
[ -n "$up" ] || { echo "daemon never became healthy"; cat "$workdir/daemon.log"; exit 1; }
curl -fsS "$base/readyz" >/dev/null

# counter_value <file> <family>: the value of an unlabeled counter sample.
counter_value() {
    awk -v m="$2" '$1 == m { print $2 }' "$1"
}

# require_families <file>: every family a dashboard joins on must be
# declared with a TYPE line; absent families break scrapes silently.
require_families() {
    for fam in \
        addc_build_info \
        addc_jobs_submitted_total addc_jobs_completed_total \
        addc_jobs_failed_total addc_jobs_interrupted_total \
        addc_jobs_deadline_total addc_job_retries_total \
        addc_shards_spawned_total addc_shards_completed_total \
        addc_shards_failed_total addc_shard_reexecutions_total \
        addc_jobs_rejected_total addc_jobs_state \
        addc_queue_depth addc_queue_capacity \
        addc_workers addc_workers_busy addc_worker_utilization \
        addc_topo_cache_hits_total addc_topo_cache_misses_total \
        addc_job_queue_wait_seconds addc_job_execution_seconds \
        addc_job_duration_seconds; do
        grep -q "^# TYPE $fam " "$1" ||
            { echo "scrape $1 is missing family $fam"; exit 1; }
    done
}

curl -fsS "$base/metrics" >"$workdir/scrape0.txt"
require_families "$workdir/scrape0.txt"
submitted0=$(counter_value "$workdir/scrape0.txt" addc_jobs_submitted_total)
echo "/metrics exposes all required families on a fresh daemon"

id=$(curl -fsS "$base/v1/jobs" \
        -d "{\"figure\":\"$FIG\",\"reps\":$REPS,\"seed\":$SEED}" |
    sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "submission returned no job id"; exit 1; }
echo "submitted $id (fig $FIG, reps $REPS, seed $SEED)"

# Mid-job scrape: families still present, the submission already counted.
curl -fsS "$base/metrics" >"$workdir/scrape1.txt"
require_families "$workdir/scrape1.txt"
submitted1=$(counter_value "$workdir/scrape1.txt" addc_jobs_submitted_total)
[ "$submitted1" -eq $((submitted0 + 1)) ] ||
    { echo "submitted counter $submitted0 -> $submitted1, want +1"; exit 1; }

state=""
for _ in $(seq 1 300); do
    state=$(curl -fsS "$base/v1/jobs/$id" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
    case "$state" in
    done) break ;;
    failed | deadline)
        echo "job settled in '$state':"
        curl -fsS "$base/v1/jobs/$id"
        exit 1
        ;;
    esac
    sleep 1
done
[ "$state" = done ] || { echo "job stuck in '$state'"; exit 1; }

# Final scrape: counters only ever go up, and the completion was observed
# in the counter and all three latency histograms.
curl -fsS "$base/metrics" >"$workdir/scrape2.txt"
require_families "$workdir/scrape2.txt"
submitted2=$(counter_value "$workdir/scrape2.txt" addc_jobs_submitted_total)
completed2=$(counter_value "$workdir/scrape2.txt" addc_jobs_completed_total)
[ "$submitted2" -ge "$submitted1" ] ||
    { echo "submitted counter went backwards: $submitted1 -> $submitted2"; exit 1; }
[ "$completed2" -ge 1 ] || { echo "completed counter is $completed2 after a done job"; exit 1; }
for hist in addc_job_queue_wait_seconds addc_job_execution_seconds addc_job_duration_seconds; do
    n=$(counter_value "$workdir/scrape2.txt" "${hist}_count")
    [ "${n%%.*}" -ge 1 ] || { echo "${hist}_count is $n after a done job"; exit 1; }
done
echo "/metrics job counters advanced monotonically and latencies were observed"

# The events feed carries the lifecycle span timeline alongside the journal.
curl -fsS "$base/v1/jobs/$id/events" >"$workdir/events.jsonl"
grep -q '"record":"span"' "$workdir/events.jsonl" ||
    { echo "events feed carries no lifecycle spans"; exit 1; }
grep -q '"event":"done"' "$workdir/events.jsonl" ||
    { echo "events feed is missing the terminal span"; exit 1; }
echo "events feed interleaves lifecycle spans with the journal"

# pprof answers on the debug listener only.
curl -fsS "http://127.0.0.1:$DEBUG_PORT/debug/pprof/" >/dev/null ||
    { echo "pprof not serving on the debug listener"; exit 1; }
if curl -fsS "$base/debug/pprof/" >/dev/null 2>&1; then
    echo "pprof leaked onto the public API listener"
    exit 1
fi
echo "pprof is confined to the debug listener"

curl -fsS "$base/v1/jobs/$id/result?format=csv" >"$workdir/serve.csv"
# The CLI prefixes its CSV with a "# fig <id>" banner line; strip it.
go run ./cmd/addc-experiments -fig "$FIG" -reps "$REPS" -seed "$SEED" -csv |
    tail -n +2 >"$workdir/cli.csv"
cmp "$workdir/serve.csv" "$workdir/cli.csv"
echo "service CSV matches the CLI byte for byte"

# Worker-pool parallelism: with two jobs in flight the busy-workers gauge
# must reach 2 — the daemon boots with two workers by default, and a
# regression that serializes the pool (a stray lock, a single-worker
# fallback) would show exactly here while every single-job check above
# still passes.
idp1=$(curl -fsS "$base/v1/jobs" -d "{\"figure\":\"$FIG\",\"reps\":6,\"seed\":41}" |
    sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
idp2=$(curl -fsS "$base/v1/jobs" -d "{\"figure\":\"$FIG\",\"reps\":6,\"seed\":42}" |
    sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$idp1" ] && [ -n "$idp2" ] || { echo "concurrent submissions returned no ids"; exit 1; }
peak_busy=0
for _ in $(seq 1 200); do
    busy=$(curl -fsS "$base/metrics" | awk '$1 == "addc_workers_busy" { print int($2) }')
    [ -n "$busy" ] && [ "$busy" -gt "$peak_busy" ] && peak_busy=$busy
    [ "$peak_busy" -ge 2 ] && break
    sleep 0.05
done
[ "$peak_busy" -ge 2 ] ||
    { echo "addc_workers_busy peaked at $peak_busy with two concurrent jobs; worker pool is serialized"; exit 1; }
echo "worker pool ran both concurrent jobs in parallel (busy peak $peak_busy)"
for jid in "$idp1" "$idp2"; do
    state=""
    for _ in $(seq 1 300); do
        state=$(curl -fsS "$base/v1/jobs/$jid" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
        case "$state" in done | failed | deadline) break ;; esac
        sleep 1
    done
    [ "$state" = done ] || { echo "concurrent job $jid settled in '$state'"; exit 1; }
done

kill -TERM "$pid"
wait "$pid"
pid=""
# Structured logging: every line the daemon wrote is JSON (we booted with
# -log-format json), and the job's lifecycle made it into the log.
if command -v jq >/dev/null 2>&1; then
    jq -e . >/dev/null 2>&1 <"$workdir/daemon.log" ||
        { echo "daemon log is not clean JSONL:"; cat "$workdir/daemon.log"; exit 1; }
fi
grep -q '"msg":"job admitted"' "$workdir/daemon.log" ||
    { echo "daemon log is missing the admission line"; cat "$workdir/daemon.log"; exit 1; }
grep -q "\"job_id\":\"$id\"" "$workdir/daemon.log" ||
    { echo "daemon log lines do not carry job_id"; cat "$workdir/daemon.log"; exit 1; }
echo "daemon logs are structured JSON with job_id attribution"
echo "daemon drained cleanly on SIGTERM"
