#!/bin/sh
# Tier-1 verification gate (see README.md, "Testing"). Everything here must
# pass before a change lands: formatting, static checks, a full build, the
# complete test suite, the race detector over the packages that run
# concurrent code (the parallel execution layer, its consumers in the
# sampler, the estimator and the clusterer, the observability layer's
# shared Recorder, plus the serving layer's registry/cache/admission), and
# the observability
# overhead guard (OBS_GUARD gates the timing assertion; see
# obs_guard_test.go and BENCH_obs.json for the budget).
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test ./...
# The benchmark is its own module (perfbench/, with repro replaced by this
# checkout), so the root `go test ./...` skips it: vet and test it here so
# a library change that breaks the benchmark's build fails the gate.
(cd perfbench && go vet ./... && go test ./...)
go test -race ./internal/parallel/... ./internal/core/... ./internal/kde/... ./internal/obs/... ./internal/faults/... ./internal/server/... ./internal/dataset/... ./internal/trace/... ./internal/shard/... ./internal/loadgen/... ./internal/cure/...
# Chaos smoke: the seeded fault-injection suite in short mode (12 seeds) —
# goroutine leaks, admission slot leaks, cache accounting drift, and any
# fault-corrupted response fail this line fast; the full 60-seed sweep
# already ran under the -race line above.
go test -race -run Chaos -short ./internal/...
# Incremental-ingestion smoke: chaos plus the append/generation suite
# (stale-fingerprint regression, O(|delta|) pass accounting, tau=0
# bit-for-bit parity) under the race detector.
go test -race -run 'Chaos|Append' -short ./internal/server/
# Sharded-serving smoke: the cross-mode parity matrix (single-node vs
# in-process vs HTTP workers vs hedging vs dead-peer fallback, all
# byte-identical) and the shard-RPC chaos suite (injected error/delay/
# partial faults: exact bytes via replica fallback or a loud 503, never
# a silently wrong merge) under the race detector.
go test -race -run 'Chaos|Shard' -short ./internal/server/
# Streaming smoke: the sliding-window suite — window-evict determinism
# (windowed /v1/sample byte-identical to registering the window's rows
# fresh, workers 1 and 8), window-pinned cache keys across appends, the
# duration window's fake-clock aging, and the mmap window pin lifetime —
# under the race detector.
go test -race -run 'Stream|Window' -short ./internal/server/ ./internal/dataset/
# Multi-tenant admission smoke: the weighted-fair queue (starvation,
# weighted share, per-tenant caps, priority preemption), the degrade
# ladder, the disk artifact tier's restart survival, the Retry-After
# hint regression, access-log line atomicity, and the resident-hit path
# that answers cached samples before admission (byte identity with the
# slot held, drain and shed fall-through, nothing computed before
# admission, chaos accounting) — all under the race detector.
go test -race -run 'WFQ|Tenant|Degraded|DiskTier|RetryAfter|AccessLog|Hit' ./internal/server/
# Request-decoding fuzz: /v1/sample bodies through the capped JSON
# decode, normalize, and cache key — no panics, and accepted requests
# key the same after a JSON round trip.
go test -run '^$' -fuzz FuzzSampleRequest -fuzztime 10s ./internal/server
# Tenant-policy fuzz: the -tenants grammar — no panics, and every
# accepted policy has a finite positive weight and non-negative limits.
go test -run '^$' -fuzz '^FuzzParseTenantPolicies$' -fuzztime 5s ./internal/server
# Decoder fuzz: CSV, DBS1 (eager and lazily opened) and DBS2 (mapped and
# decoded) bytes — no panics, accepted CSV/DBS1 data is finite with one
# dimensionality and round-trips bit for bit, and a lazily opened file's
# full scan yields exactly Len() points or fails.
go test -run '^$' -fuzz '^FuzzReadCSV$' -fuzztime 5s ./internal/dataset
go test -run '^$' -fuzz '^FuzzReadBinary$' -fuzztime 5s ./internal/dataset
go test -run '^$' -fuzz '^FuzzOpenSegmented$' -fuzztime 5s ./internal/dataset
# Clusterer equivalence fuzz: the pruned nearest-neighbour searches must
# reproduce the brute-force reference clustering bit for bit on decoded
# point sets (1-4 dims, up to 64 points, many ties, overflowing
# coordinates).
go test -run '^$' -fuzz '^FuzzRunMatchesReference$' -fuzztime 5s ./internal/cure
# Sustained-load smoke: the three-tenant WFQ/degrade/chaos proof in
# quick mode. Fails loudly if any tenant sees a non-shed failure (a 5xx
# surprise or transport error); the committed BENCH_load.json holds the
# full-size numbers.
go run ./cmd/dbsload -quick > /dev/null
OBS_GUARD=1 go test -run TestObsOverheadGuard .
# Tracing-overhead guard: a request trace forwarding every span must stay
# within the same budget over the untraced draw (TRACE_GUARD gates the
# timing assertion; see trace_guard_test.go and BENCH_trace.json).
TRACE_GUARD=1 go test -run TestTraceOverheadGuard .
# Allocation-regression guard: steady-state Draw must perform zero
# per-block heap allocations (testing.AllocsPerRun over 512 blocks; see
# internal/core/core_test.go and DESIGN.md, "Memory layout & zero-copy
# scans").
go test -run TestDrawSteadyStateAllocs ./internal/core/
