# Tier-1 verification plus the lint, race and benchmark-smoke lanes CI runs
# on every PR.

GO ?= go
STATICCHECK := $(shell command -v staticcheck 2>/dev/null)

.PHONY: all vet lint build test test-repeat race benchsmoke benchdiff benchdiff-parallel benchdiff-server server-smoke crash-smoke fuzz-smoke check bench-core bench-parallel bench-server bench-server-parallel clean

all: check

vet:
	$(GO) vet ./...

# Lint: go vet always; staticcheck when installed. Local boxes without it
# still get a meaningful `make lint`, but under CI (the runner sets CI=true)
# a missing staticcheck is a hard failure so the gate cannot silently vanish.
lint: vet
ifdef STATICCHECK
	$(STATICCHECK) ./...
else ifdef CI
	$(error lint: staticcheck required in CI but not installed)
else
	@echo "lint: staticcheck not installed; ran go vet only"
endif

build:
	$(GO) build ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# cannot hide.
test:
	$(GO) test -shuffle=on ./...

# Repeat the packages whose tests race real goroutines against each other
# (the LLX/SCX core, the template engine, the five LLX/SCX structures, the
# shard layer and the experiment harness) three times in one process.
# Interleaving-dependent failures — a late helper's update CAS landing on a
# recurring value, the finalized-spin guard misfiring, a test leaking an
# epoch announcement into the next repetition — show up here long before a
# single shuffled pass catches them.
test-repeat:
	$(GO) test -count=3 ./internal/core ./internal/template ./internal/queue \
		./internal/stack ./internal/trie ./internal/bst ./internal/multiset \
		./internal/shard ./internal/harness

# The step-semantics, helping and linearizability tests exercise real
# concurrency; run the core, template and multiset packages plus the
# container/shard layer (cross-shard counter aggregation), the epoch
# reclamation machinery (including the announcement-slot recycling hammer,
# which races claim/release/scavenge against concurrent epoch advances), and
# the queue/stack recycle hammers under the race detector: the epoch
# protocol's happens-before edges are exactly what the detector validates.
# internal/obs rides along for its concurrent record/scrape test — striped
# histogram folds and trace-ring snapshots racing recorders must be clean.
race:
	$(GO) test -race ./internal/core ./internal/template ./internal/multiset \
		./internal/container ./internal/shard ./internal/reclaim \
		./internal/queue ./internal/stack ./internal/bst ./internal/trie \
		./internal/hashmap ./internal/hashutil \
		./internal/proto ./internal/server ./internal/client \
		./internal/wal ./internal/snapshot ./internal/obs

# Compile and execute every benchmark once so benchmark code cannot rot
# without failing CI (-benchtime=1x keeps it to seconds), run the parallel
# comparison lane at GOMAXPROCS 1 and 2 (the amortized epoch protocol's
# multi-worker paths — announcement refresh, slot recycling, epoch advance
# racing — only execute with concurrent sessions), and smoke the sharded
# stress path end to end (reclamation is always on: the stress run churns
# node recycling under invariant checks).
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run '^$$' -bench BenchmarkParallel -benchtime 1x -cpu 1,2 .
	$(GO) run ./cmd/stress -dur 1s -threads 4 -keys 128 -shards 4 -checks 2
	$(GO) run ./cmd/stress -struct hashmap -dur 1s -threads 4 -keys 128 -checks 2
	$(GO) run ./cmd/stress -struct hashmap -resizehammer -dur 1s -threads 4 -checks 2

# Re-run the core fast-path suite and diff against the checked-in
# trajectory, failing if any row's allocs/op regressed. Timings are noisy
# on shared runners; allocation counts are deterministic, so that is the
# gate (see cmd/bench -compare).
benchdiff:
	$(GO) run ./cmd/bench -compare BENCH_core.json -maxallocregress

# Re-run the parallel comparison lane and diff against the checked-in
# trajectory. Gates: allocs/op must not regress on any shared cell, and
# every parallel_hashmap_* row must stay within 1.3x ns/op going from
# GOMAXPROCS=1 to 2 — the within-run scaling bound the amortized epoch
# protocol exists to hold. Absolute ns/op deltas are printed but not gated
# (host-dependent), which is also why this target is not part of `check`:
# run it locally when touching the reclamation or hash-map hot paths.
benchdiff-parallel:
	$(GO) run ./cmd/bench -compareparallel BENCH_parallel.json -parallelcpus 1,2

# Re-run the parallel server suite and diff against the checked-in
# trajectory. Gates: process-wide allocs/op must stay under the 0.5 ceiling
# on every cell (the batched hot path is allocation-free; a path that starts
# allocating blows past it immediately), and the read-heavy hashmap cell's
# ops/sec must not collapse going from GOMAXPROCS=1 to 2 (within-run ratio,
# re-measured max-of-N before failing). Like benchdiff-parallel, not part of
# `check` — absolute throughput is host-dependent; run it when touching the
# server, proto or WAL hot paths.
benchdiff-server:
	$(GO) run ./cmd/bench -compareserver BENCH_server.json -servercpus 1,2 -lgdur 1s

# End-to-end smoke of the serving stack: start cmd/server at GOMAXPROCS=2,
# drive it with the load generator for a second, scrape -metrics, SIGTERM,
# and assert a clean drain (see scripts/server_smoke.sh).
server-smoke:
	sh ./scripts/server_smoke.sh

# Durability smoke: kill -9 a loaded durable server mid-run, restart it over
# the same WAL directory, and verify per-key interval conservation over the
# wire (see scripts/crash_smoke.sh).
crash-smoke:
	sh ./scripts/crash_smoke.sh

# Short native-fuzz passes over the two wire-format parsers: the protocol
# frame reader and the WAL record scanner. Malformed input must error (or,
# for a torn WAL tail, truncate), never panic or over-read.
fuzz-smoke:
	$(GO) test ./internal/proto -run '^$$' -fuzz '^FuzzParseFrame$$' -fuzztime 10s
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime 10s

check: lint build test test-repeat race benchsmoke benchdiff server-smoke crash-smoke fuzz-smoke

# Regenerate the checked-in core fast-path microbenchmark dump.
bench-core:
	$(GO) run ./cmd/bench -corejson BENCH_core.json

# Regenerate the checked-in multi-core parallel comparison dump (the hash
# map vs sync.Map vs an RWMutex map vs the sharded multiset, at GOMAXPROCS
# 1, 2 and 4; see cmd/bench -parallel).
bench-parallel:
	$(GO) run ./cmd/bench -parallel -parallelcpus 1,2,4 -paralleljson BENCH_parallel.json

# Regenerate the checked-in server throughput/latency dump: the canonical
# self-hosted suite (read-heavy/mixed/Zipf over the hashmap and the sharded
# multiset) at GOMAXPROCS 1, 2 and 4, one row per (cell, procs).
bench-server:
	$(GO) run ./cmd/bench -serverbench -servercpus 1,2,4 -lgdur 2s \
		-serverout BENCH_server.json

# One-off parallel server measurement without rewriting the checked-in dump:
# the same suite at GOMAXPROCS 1 and 2 with a short window, for quick
# before/after looks while working on the server fast path.
bench-server-parallel:
	$(GO) run ./cmd/bench -serverbench -servercpus 1,2 -lgdur 1s

clean:
	$(GO) clean ./...
