#!/usr/bin/env sh
# Tier-1.5 gate: everything tier-1 runs (build + full tests) plus vet, the
# race detector over the concurrency-critical packages (the lock-free commit
# pipeline, the futures engine, and the conformance scheduler), coverage
# floors for the engine and its oracle, and the wtfconform smoke budget —
# which must find nothing on the real engine and must find a violation on
# the fault-injected build. Run before merging substrate changes.
set -e
cd "$(dirname "$0")/.."

echo "== tier-1: build + tests =="
go build ./...
go test ./...

echo "== tier-1.5: vet =="
go vet ./...

echo "== tier-1.5: race (mvstm + core + conform + tstruct + wtfd server/client/wire + wal/persist) =="
go test -race ./internal/mvstm/ ./internal/core/ ./internal/conform/ ./internal/tstruct/ ./internal/server/ ./internal/client/ ./internal/wire/ ./internal/wal/ ./internal/persist/

echo "== tier-1.5: engine discard/recording regressions under race (-count=20) =="
# A future merged into a chain that is later discarded must report
# ErrStaleFuture, and the recording contract must hold on every schedule;
# both once failed only on some interleavings, so they run repeatedly.
go test -race -count=20 -run 'TestRecordingContract$|TestCancelledChildOfUserAbortedFuture$|TestMerged(Grand)?[Cc]hildOfUserAbortedFuture$' ./internal/core/

echo "== tier-1.5: crash recovery under race (deterministic fault injection) =="
# The durability acceptance property: for every injected crash point, the
# recovered store equals a prefix of the acknowledged-op sequence — no acked
# write lost under -fsync group/always, MULTI batches atomic across the cut.
go test -race -run 'TestCrash|TestDrainFlushesWAL' -count=1 ./internal/server/

echo "== tier-1.5: coverage floors (core >= 80%, fsg >= 85%, wal >= 80%, persist >= 75%) =="
check_cover() {
	pkg=$1
	floor=$2
	pct=$(go test -cover "$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	if [ -z "$pct" ]; then
		echo "ci: no coverage reported for $pkg" >&2
		exit 1
	fi
	if [ "${pct%%.*}" -lt "$floor" ]; then
		echo "ci: coverage of $pkg is ${pct}%, floor is ${floor}%" >&2
		exit 1
	fi
	echo "   $pkg: ${pct}% (floor ${floor}%)"
}
check_cover ./internal/core/ 80
check_cover ./internal/fsg/ 85
check_cover ./internal/wal/ 80
check_cover ./internal/persist/ 75

echo "== tier-1.5: recovery smoke (real wtfd binary: serve, kill -9, recover) =="
go test -run TestRecoverySmoke -count=1 ./cmd/wtfd/

echo "== tier-1.5: chaos smoke under race (fixed seed, wall-clock budget) =="
# Fixed-seed slice of the chaos conformance sweep: fault-injected transports
# against a durable server, lost-ack oracle on the recovered state. The full
# sweep (8 seeds x 4 scenarios x 2 fsync policies, plus the kill -9 crash
# rows in cmd/wtfd) runs via go test ./...; this gate pins the reset and
# partition rows under the race detector with a hard wall-clock budget so a
# livelocked retry loop fails fast instead of hanging CI.
go test -race -run TestChaosSweepSmoke -count=1 -timeout 120s ./internal/chaos/

echo "== tier-1.5: wtfconform smoke (fixed seeds, clean engine: expect 0 violations) =="
go run ./cmd/wtfconform -mode dfs -seed 1 -seeds 8 -budget 300

echo "== tier-1.5: wtfconform deep-chain smoke (nesting depth 4: long ancestor paths) =="
# Deeply nested futures build the long pred chains the visible-write index,
# merge patches and validation summaries optimize; this sweep pins their
# conformance on the schedules where those caches are most stressed.
go run ./cmd/wtfconform -mode dfs -seed 1 -seeds 4 -budget 300 -futures 2 -depth 4 -ops 8

echo "== tier-1.5: guard benchmarks (smoke run: hot paths must still complete) =="
go test -run '^$' -bench 'ReadDepth|BeginFinish' -benchtime 200ms ./internal/bench/ ./internal/mvstm/

echo "== tier-1.5: server request-path allocation guard (<= 2 allocs/op) =="
# The serving hot loop (pooled decode -> execute -> append-encode -> recycle)
# must stay allocation-free in steady state; anything above the floor means a
# pooled object or buffer started leaking to the heap again.
ALLOCS=$(go test -run '^$' -bench 'BenchmarkServerEcho$' -benchtime 20000x -benchmem ./internal/server/ |
	awk '/^BenchmarkServerEcho/ { for (i = 2; i <= NF; i++) if ($(i) == "allocs/op") print $(i-1) }')
if [ -z "$ALLOCS" ]; then
	echo "ci: BenchmarkServerEcho reported no allocs/op" >&2
	exit 1
fi
if [ "$ALLOCS" -gt 2 ]; then
	echo "ci: server request path allocates ${ALLOCS} allocs/op, floor is 2" >&2
	exit 1
fi
echo "   BenchmarkServerEcho: ${ALLOCS} allocs/op (floor 2)"

echo "== tier-1.5: GET fast-path allocation guard (0 allocs/op, metrics enabled) =="
# The lock-free read path's entire point is an allocation-free read-heavy
# workload: a single alloc/op in the fast-serve loop is a regression. The
# benchmark server runs with the telemetry registry installed (it always is),
# so this also proves the latency sampler stays off the heap.
FALLOCS=$(go test -run '^$' -bench 'BenchmarkServerFastGet$' -benchtime 20000x -benchmem ./internal/server/ |
	awk '/^BenchmarkServerFastGet/ { for (i = 2; i <= NF; i++) if ($(i) == "allocs/op") print $(i-1) }')
if [ -z "$FALLOCS" ]; then
	echo "ci: BenchmarkServerFastGet reported no allocs/op" >&2
	exit 1
fi
if [ "$FALLOCS" -gt 0 ]; then
	echo "ci: GET fast path allocates ${FALLOCS} allocs/op, floor is 0" >&2
	exit 1
fi
echo "   BenchmarkServerFastGet: ${FALLOCS} allocs/op (floor 0)"

echo "== tier-1.5: engine per-MULTI allocation guard (<= 40 allocs/op) =="
# One top-level transaction submitting six single-write futures and
# evaluating them in order: the engine's share of a served MULTI. It measured
# 37 allocs/op with warm runners, compact vertices and lazy bookkeeping; a
# rise past the slack means a per-future allocation came back.
MALLOCS=$(go test -run '^$' -bench 'BenchmarkMultiShape$' -benchtime 20000x -benchmem ./internal/core/ |
	awk '/^BenchmarkMultiShape/ { for (i = 2; i <= NF; i++) if ($(i) == "allocs/op") print $(i-1) }')
if [ -z "$MALLOCS" ]; then
	echo "ci: BenchmarkMultiShape reported no allocs/op" >&2
	exit 1
fi
if [ "$MALLOCS" -gt 40 ]; then
	echo "ci: engine MULTI shape allocates ${MALLOCS} allocs/op, floor is 40" >&2
	exit 1
fi
echo "   BenchmarkMultiShape: ${MALLOCS} allocs/op (floor 40)"

echo "== tier-1.5: MULTI executor-path smoke (64k-key store, B/op, allocs/op, GC CPU ns/op) =="
# The multi8-skew request shape over a realistic keyspace. Reported, not
# gated: its gc-cpu-ns/op column is where the keyspace's pointer-bearing
# live heap shows up (the GC marks it on every cycle).
go test -run '^$' -bench 'BenchmarkServerMulti$' -benchtime 2000x -benchmem ./internal/server/ |
	grep '^BenchmarkServerMulti' || {
	echo "ci: BenchmarkServerMulti did not complete" >&2
	exit 1
}

echo "== tier-1.5: histogram record-path allocation guard (0 allocs/op) =="
# obs.Histogram.Observe sits inside every serving stage (including the 33ns
# fast-read sampler); it must never touch the heap.
HALLOCS=$(go test -run '^$' -bench 'BenchmarkHistogramRecord$' -benchtime 20000x -benchmem ./internal/obs/ |
	awk '/^BenchmarkHistogramRecord/ { for (i = 2; i <= NF; i++) if ($(i) == "allocs/op") print $(i-1) }')
if [ -z "$HALLOCS" ]; then
	echo "ci: BenchmarkHistogramRecord reported no allocs/op" >&2
	exit 1
fi
if [ "$HALLOCS" -gt 0 ]; then
	echo "ci: histogram record path allocates ${HALLOCS} allocs/op, floor is 0" >&2
	exit 1
fi
echo "   BenchmarkHistogramRecord: ${HALLOCS} allocs/op (floor 0)"

echo "== tier-1.5: observability endpoint smoke under race (/metrics + /debug/wtfd/slow on live traffic) =="
go test -race -count=1 -run 'TestMetricsEndpoint|TestStatsWireSections|TestFlightRecorder' ./internal/server/

echo "== tier-1.5: client GET round-trip allocation guard (<= 1 alloc/op) =="
# Full loopback round trip via GetBytes: the only permitted allocation is
# the server materializing the key string during request decode.
CALLOCS=$(go test -run '^$' -bench 'BenchmarkClientGetRoundTrip$' -benchtime 20000x -benchmem ./internal/client/ |
	awk '/^BenchmarkClientGetRoundTrip/ { for (i = 2; i <= NF; i++) if ($(i) == "allocs/op") print $(i-1) }')
if [ -z "$CALLOCS" ]; then
	echo "ci: BenchmarkClientGetRoundTrip reported no allocs/op" >&2
	exit 1
fi
if [ "$CALLOCS" -gt 1 ]; then
	echo "ci: client GET round trip allocates ${CALLOCS} allocs/op, floor is 1" >&2
	exit 1
fi
echo "   BenchmarkClientGetRoundTrip: ${CALLOCS} allocs/op (floor 1)"

echo "== tier-1.5: read fast-path smoke (clean fallback rate <= 1%, session order under race) =="
# The fallback-rate gate catches a broken watermark or retry budget (every
# fallback is a silent perf loss, not an error); the race slice pins
# ReadLatest against concurrent commits and trims, GetFast against
# transactional writers, and the served monotonic-reads story across paths.
go test -run TestFastReadCleanFallbackRate -count=1 ./internal/server/
go test -race -count=1 -run 'TestReadLatestStress' ./internal/mvstm/
go test -race -count=1 -run 'TestMapGetFastMatchesTransactionalGet|TestPackedMapFastReadStress' ./internal/tstruct/
go test -race -count=1 -run 'TestFastRead' ./internal/server/
go test -race -count=1 -run 'TestChaosFastReadConformance' ./internal/chaos/

echo "== tier-1.5: wtfconform smoke (conform_fault build: must catch the bug) =="
if go run -tags conform_fault ./cmd/wtfconform -mode dfs -ordering wo -atomicity lac -seed 1 -seeds 8 -budget 300; then
	echo "ci: fault-injected engine produced no violation — the oracle is blind" >&2
	exit 1
fi
go test -tags conform_fault -run TestFaultDetected ./internal/conform/

echo "ci: all gates passed"
