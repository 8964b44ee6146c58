#!/usr/bin/env bash
# Kill-resume chaos harness for sharded sweeps: run a small fig-6c sweep
# unsharded to get the reference journal and CSV, then run the same sweep
# as K shard worker processes while SIGKILLing each worker mid-sweep (a
# real, uncooperative process death — no flush, no unwind), resuming every
# killed worker from its journal until the shard completes, merging, and
# requiring the merged journal AND the merged CSV to be byte-identical to
# the uninterrupted unsharded run. Shard workers run with -flush-batch 1 so
# a kill can lose at most the repetition in flight.
#
# The whole gauntlet runs twice: once with fresh per-point deployments and
# once with -share-topology (placement seeded per repetition only, one
# memoized deployment shared across grid points; its journals carry their
# own grid hash — each round compares against a reference produced with the
# same flags). Both seed derivations therefore meet real SIGKILLs.
#
# The Go test suite pins the same contract in-process
# (internal/experiment's equivalence tests, cmd/addc-experiments'
# TestKillResumeMergeMatchesUnsharded); this script is the end-to-end
# variant against the installed binary, with repeated kill rounds.
set -euo pipefail
cd "$(dirname "$0")/.."

SHARDS="${SHARDS:-3}"
KILL_ROUNDS="${KILL_ROUNDS:-3}"   # kill+resume cycles per shard before letting it finish
FIG=6c
XS=0.1,0.2
REPS=6
SEED=7
COMMON=(-fig "$FIG" -xs "$XS" -reps "$REPS" -seed "$SEED"
        -num-su 80 -area 55 -num-pu 3 -max-virtual 30m
        -workers 1 -flush-batch 1)

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/addc-experiments" ./cmd/addc-experiments
bin="$workdir/addc-experiments"

# run_shard_with_kills <mode> <i> <extra flags...>: run shard i/K of the
# given mode, SIGKILLing it mid-sweep KILL_ROUNDS times (each next round
# resumes from the journal), then let a final resume run to completion.
run_shard_with_kills() {
    local mode=$1 i=$2; shift 2
    local extra=("$@") round pid journal
    journal="$workdir/$mode.shard-$i-of-$SHARDS.jsonl"
    for round in $(seq 1 "$KILL_ROUNDS"); do
        local args=("${COMMON[@]}" "${extra[@]}" -checkpoint "$workdir/$mode.jsonl" -shard "$i/$SHARDS")
        [ "$round" -gt 1 ] && args+=(-resume)
        "$bin" "${args[@]}" >/dev/null 2>>"$workdir/$mode-shard-$i.log" &
        pid=$!
        # Kill as soon as the journal holds one more line than it started
        # with; if the worker finishes first, that is a legal outcome too.
        local want=2
        [ -f "$journal" ] && want=$(($(wc -l <"$journal") + 1))
        for _ in $(seq 1 200); do
            if ! kill -0 "$pid" 2>/dev/null; then break; fi
            if [ -f "$journal" ] && [ "$(wc -l <"$journal")" -ge "$want" ]; then
                if kill -9 "$pid" 2>/dev/null; then
                    echo "round $round: SIGKILL" >>"$workdir/kills-$mode-$i.log"
                fi
                break
            fi
            sleep 0.01
        done
        wait "$pid" 2>/dev/null || true
    done
    # Final resume: must complete cleanly.
    "$bin" "${COMMON[@]}" "${extra[@]}" -checkpoint "$workdir/$mode.jsonl" -shard "$i/$SHARDS" -resume \
        >/dev/null 2>>"$workdir/$mode-shard-$i.log" \
        || { echo "$mode: shard $i/$SHARDS failed to resume to completion"; cat "$workdir/$mode-shard-$i.log"; exit 1; }
}

# chaos_round <mode> <extra flags...>: reference run, sharded chaos, merge,
# byte-compare — all under the given extra sweep flags.
chaos_round() {
    local mode=$1; shift
    local extra=("$@")

    echo "== $mode: reference (uninterrupted unsharded run)"
    "$bin" "${COMMON[@]}" "${extra[@]}" -checkpoint "$workdir/$mode-reference.jsonl" -csv \
        >"$workdir/$mode-reference.csv"
    [ -s "$workdir/$mode-reference.jsonl" ] || { echo "$mode: reference journaled nothing"; exit 1; }

    echo "== $mode: chaos ($SHARDS shard workers, $KILL_ROUNDS SIGKILL rounds each)"
    local i
    for i in $(seq 1 "$SHARDS"); do
        run_shard_with_kills "$mode" "$i" "${extra[@]}" &
    done
    wait

    echo "== $mode: merge"
    "$bin" "${COMMON[@]}" "${extra[@]}" -checkpoint "$workdir/$mode.jsonl" -merge -csv \
        >"$workdir/$mode-merged.csv" 2>"$workdir/$mode-merge.log" \
        || { echo "$mode: merge failed"; cat "$workdir/$mode-merge.log"; exit 1; }

    cmp "$workdir/$mode.jsonl" "$workdir/$mode-reference.jsonl" \
        || { echo "FAIL ($mode): merged journal differs from uninterrupted unsharded journal"; exit 1; }
    cmp "$workdir/$mode-merged.csv" "$workdir/$mode-reference.csv" \
        || { echo "FAIL ($mode): merged CSV differs from uninterrupted unsharded CSV"; exit 1; }
}

chaos_round scalar
chaos_round share -share-topology

kills=$(cat "$workdir"/kills-*.log 2>/dev/null | wc -l)
echo "shard-chaos: $kills SIGKILLs landed mid-sweep; merged output byte-identical to the uninterrupted run in both modes"
if [ "$kills" -eq 0 ]; then
    echo "shard-chaos: WARNING: every worker finished before its kill; rerun or raise REPS for real chaos"
fi
echo "shard-chaos: OK"
