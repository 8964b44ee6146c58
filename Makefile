# Verification tiers. `make check` is the fast pre-merge gate; `make race`
# runs the full suite under the race detector (the worker-pool sweeps in
# internal/experiment are the concurrent code it guards). `make guard` runs
# the suite with runtime invariant guards force-enabled (ADDC_GUARD=1):
# every simulation in every test then asserts concurrent-set separation,
# tree integrity and packet conservation. `make vuln` audits dependencies
# with govulncheck when it is installed (skipped gracefully otherwise —
# the module is stdlib-only). `make bench` runs the paper-shaped benchmark
# suite and records it as BENCH_addc.json (benchmark name → ns/op, B/op,
# allocs/op, delay-slots, ... metrics); three reps per benchmark, keeping
# the fastest, so transient machine load cannot inflate the record. `make
# bench-diff` re-runs the suite the same way and diffs it against the
# committed BENCH_addc.json, failing on a >20% ns/op or >30% allocs/op
# regression in any benchmark — the local perf gate. `make
# profile` captures cpu.prof + mem.prof for BenchmarkCollectBare along with
# the test binary; inspect with `go tool pprof addcrn.test cpu.prof`.

GO ?= go

.PHONY: check build vet test race guard vuln bench bench-diff bench-parallel profile serve-smoke obs-smoke shard-chaos repro-ext1 repro-ext2

check: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

guard:
	ADDC_GUARD=1 $(GO) test -count=1 ./...

# serve-smoke boots the addc-serve daemon, drives it over HTTP, requires
# its CSV result to match the addc-experiments CLI byte for byte, scrapes
# /metrics mid-job (required families present, job counters monotone),
# checks lifecycle spans on the events feed, structured JSON logs, and
# pprof on the debug listener, and requires a clean graceful drain on
# SIGTERM. obs-smoke is the observability-focused alias CI uses.
serve-smoke:
	./scripts/serve-smoke.sh

obs-smoke: serve-smoke

# shard-chaos runs the kill-resume chaos harness: shard worker processes
# are SIGKILLed mid-sweep, resumed from their journals, and the merged
# sharded output must be byte-identical to an uninterrupted unsharded run.
shard-chaos:
	./scripts/shard-chaos.sh

# repro-ext1 re-runs the multichannel extension sweep and requires its
# table to match results/ext1.txt byte for byte, ignoring only the
# "(wall clock ...)" trailer.
repro-ext1:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp" "$$tmp.want"' EXIT && \
	$(GO) run ./cmd/addc-experiments -fig ext1 >"$$tmp" && \
	grep -v '^(wall clock ' results/ext1.txt >"$$tmp.want" && \
	grep -v '^(wall clock ' "$$tmp" | diff "$$tmp.want" - && \
	echo "ext1 reproduces results/ext1.txt"

# repro-ext2 is repro-ext1 for the fault-tolerance sweep: re-run -fig ext2
# and require its table to match results/ext2.txt, ignoring only the
# "(wall clock ...)" trailer.
repro-ext2:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp" "$$tmp.want"' EXIT && \
	$(GO) run ./cmd/addc-experiments -fig ext2 >"$$tmp" && \
	grep -v '^(wall clock ' results/ext2.txt >"$$tmp.want" && \
	grep -v '^(wall clock ' "$$tmp" | diff "$$tmp.want" - && \
	echo "ext2 reproduces results/ext2.txt"

vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem -short -count=3 ./... | $(GO) run ./cmd/addc-benchjson -out BENCH_addc.json

bench-diff:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem -short -count=3 ./... | $(GO) run ./cmd/addc-benchjson -out '' -baseline BENCH_addc.json

# bench-parallel runs only the multi-core scaling family (the small-grid
# sweep at 1/2/4/8 cores) and prints the scaling-efficiency table without
# touching BENCH_addc.json.
bench-parallel:
	$(GO) test -run '^$$' -bench 'BenchmarkSweepParallel' -benchtime 1x -benchmem -count=3 . | $(GO) run ./cmd/addc-benchjson -out ''

# profile captures cpu+mem profiles of the single-run fast path, and
# mutex+block profiles of the parallel sweep at 4 workers — the contention
# evidence DESIGN.md §9.3 is written from. Inspect with:
#   go tool pprof addcrn.test cpu.prof
#   go tool pprof addcrn.test mutex.prof   (or block.prof)
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkCollectBare$$' -benchtime 100x -cpuprofile cpu.prof -memprofile mem.prof -o addcrn.test .
	$(GO) test -run '^$$' -bench 'BenchmarkSweepParallel/scalar-c4$$' -benchtime 10x -mutexprofile mutex.prof -blockprofile block.prof -o addcrn.test .
	@echo "wrote cpu.prof, mem.prof, mutex.prof, block.prof, addcrn.test; inspect with: go tool pprof addcrn.test cpu.prof"
