#!/bin/sh
# Tier-2 verification gate: static checks plus the race detector (the
# audit worker pool is the main concurrent code path it exercises).
set -eux
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# Format gate: any Go file gofmt would rewrite fails the check (the
# benchmark's build directory holds third-party module sources).
unformatted=$(find . -name '*.go' -not -path './.bench_build/*' -exec gofmt -l {} +)
test -z "$unformatted"
# Trace-golden gate: the fixed-seed E1 traces (DFS, BFS, random mode),
# the one-worker engine-signature golden and the cold minisip audit's
# corpus (every fn/ entry and the sorted solve log) must stay
# byte-identical (regenerate deliberately with
# `go test -run 'TestTraceGolden|TestEngineSignatureGolden|TestMinisipCorpusGolden' -update .`).
go test -run 'TestTraceGolden|TestEngineSignatureGolden|TestMinisipCorpusGolden' .
go test -run '^$' -fuzz '^FuzzCompile$' -fuzztime 15s .
go test -run '^$' -fuzz '^FuzzSolveLog$' -fuzztime 15s ./internal/corpus/
go test -run '^$' -fuzz '^FuzzCorpusEntry$' -fuzztime 15s ./internal/corpus/
go test -run '^$' -fuzz '^FuzzSolveOracle$' -fuzztime 15s ./internal/solver/
go test -race ./...
# The benchmark is a Go module of its own, so the root `go test ./...`
# does not reach its tests (the pk1 key round trip against
# solver.PortableKey, the comparer, BENCHMARK.json against the code).
(cd bench && go test ./...)
# Ops smoke: a real dart process with -serve answering on every live
# endpoint mid-audit, plus the in-process endpoint/counter checks.
go test -count=1 -run 'TestCLIServeEndpoints' .
go test -count=1 -run 'TestServerLiveAudit' ./internal/ops/
# Solver fast-path gate: slicing + caching must never change what a
# search finds — cache on/off/tiny report equality under both engines,
# jobs-independence with the cache on, and replayable random-mode bugs.
go test -count=1 -run 'TestSolveCache|TestSlicingOnClusters|TestRandomBugsReplay|TestLyingDiskSatVerified' ./internal/concolic/
go test -count=1 -run 'TestPathKeyMatchesOracle|TestSolveMatchesOracle|TestSolveIndependentOfMapOrder|TestSolveWideDomain' ./internal/solver/
go test -count=1 -run 'TestAuditCacheDeterministicAcrossJobs' ./internal/audit/
# Parallel search gate: worker-count determinism, pool invariants, the
# shared input registry and the shared solve cache (its shards and the
# LRU under them) under the race detector, then a real CLI audit
# driving the pool end to end (exit 1 = bugs found, the expected result).
go test -count=1 -race -run 'TestWorkers|TestParallel|TestFrontierDrop|TestNoPhantomFlips|TestRegistryConcurrentIntern' ./internal/concolic/
go test -count=1 -race -run '^Test(Cache(GetPut|ShardCount|LRUEviction|ShardEviction|UpdateInPlace|ModelIsCopied|Concurrent)|ShardedCacheOverwrite)$' ./internal/solver/
go test -count=1 -race ./internal/lru/
go test -count=1 -race -run 'TestAuditParallelWorkersFindSameBugs' ./internal/audit/
# Serve gate (audit as a service): flood POST /jobs past the queue
# depth of a race-instrumented `dart -serve` process, require honest
# 429s counted in /metrics as dart_jobs_rejected_total, then SIGTERM
# and a clean exit-0 drain with jobs still mid-flight.  The in-process
# half covers poisoned-job isolation, byte-identical cached reports,
# and the drain checkpoint under the race detector, plus the store-hit
# path: a hit skips the compile, every envelope carries the stored
# report bytes verbatim as its last field, and a spilled report that
# cannot be embedded reads as a miss, and the store's LRU bounds.
go test -count=1 -run 'TestCLIServeGate|TestCLIServeJobService|TestCLIServeBindError|TestCLIServeStartupSIGTERM' .
go test -count=1 -race -run 'TestPoisonedJobIsolation|TestCachedByteIdentical|TestDrainCheckpointsBacklog|TestHTTPQueueFull429|TestConcurrentSubmissions|TestSubmitHitSkipsCompile|TestEnvelopeEmbedsReportVerbatim|TestRestartRejectsNonJSONSpill|TestStoreLRUBounds' ./internal/serve/
# Profiler gate (search cost accounting): per-site solver attribution
# must be byte-identical at -workers 1/2/8 under the race detector (the
# counter plane is deterministic; only nanos are wall clock), profiling
# must stay off unless asked for, /profile + flame + per-job envelope
# profiles must serve real data, ring drops must be visible as seq gaps
# plus dart_events_dropped_total, the live event fan-out must stay exact
# under concurrent producers and allocate nothing per event once warm,
# and long-poll/SSE job completion must block, stream, and shed load
# honestly.
go test -count=1 -race -run 'TestProfileDeterministicAcrossWorkers|TestProfileOffByDefault|TestProfilePhases|TestProfileCacheAttribution' ./internal/concolic/
go test -count=1 -run 'TestProfile|TestLiveProfile|TestMetricsFold|TestTreeFlame|TestTreeInterleavedStreams' ./internal/obs/
go test -count=1 -race -run 'TestRingSeqGapsMatchDrops|TestEventsFollowTrailingDrops|TestServerProfileEndpoint|TestSinkConcurrent|TestRingConcurrentAccounting' ./internal/ops/
go test -count=1 -run 'TestSinkSteadyStateAllocs' ./internal/ops/
go test -count=1 -race -run 'TestJobWait|TestJobSSEStream|TestCachedJobHasNoProfile|TestJobProfileFeedsServerProfile' ./internal/serve/
# CLI end to end: -profile must print both cost tables and -json must
# carry the structured profile object.
go test -count=1 -run 'TestCLIProfile' .
# Explainer gate (coverage accounting): the resolved explanation — one
# terminal reason per uncovered direction — must be byte-identical at
# -workers 1/2/8 under the race detector (verdicts are the
# deterministic plane; the timeline is schedule texture), the stall
# detector must fire exactly per flat window and stay off when
# disabled, /explain + the per-job envelope explain must serve real
# data, idle SSE streams must heartbeat, /metrics must carry the
# dart_uncovered_total{reason} family and dart_build_info, and the
# HTML coverage report must escape hostile source.
go test -count=1 -race -run 'TestExplain' ./internal/concolic/
go test -count=1 -run 'TestExplain|TestTimeline' ./internal/obs/
go test -count=1 -race -run 'TestServerExplainEndpoint|TestServerEventsFollowHeartbeat' ./internal/ops/
go test -count=1 -race -run 'TestJobEnvelopeCarriesExplain|TestJobSSEHeartbeat' ./internal/serve/
go test -count=1 -run 'TestAnnotateHTML' ./internal/coverage/
go test -count=1 -run 'TestCLIExplain' .
tmp="$(mktemp -d)"
cat > "$tmp/gate.mc" <<'EOF'
int f(int x) { return 2 * x; }

int h(int x, int y) {
    if (x != y)
        if (f(x) == x + 10)
            abort();
    return 0;
}
EOF
go run -race ./cmd/dart -workers 4 -audit -seed 1 "$tmp/gate.mc" || [ "$?" -eq 1 ]
# CLI explain determinism: the "explain" object of -json must not move
# between the sequential engine (-workers 1) and the frontier pool
# (-workers 4) on a tree-exhausting fixture.
cat > "$tmp/explain.mc" <<'EOF'
int blend(int x, int y) {
    int r = 0;
    if (x > 3) {
        if (y == 7) {
            if (y > 10) { r = 1; }
        }
        if (x + y > 50) { r = r + 2; }
    }
    return r;
}
EOF
go run ./cmd/dart -top blend -explain -json -workers 1 "$tmp/explain.mc" \
    | sed -n '/^  "explain": {/,/^  },$/p' > "$tmp/explain-w1.json"
go run ./cmd/dart -top blend -explain -json -workers 4 "$tmp/explain.mc" \
    | sed -n '/^  "explain": {/,/^  },$/p' > "$tmp/explain-w4.json"
grep -q '"solver-unsat"' "$tmp/explain-w1.json"
diff "$tmp/explain-w1.json" "$tmp/explain-w4.json"
# Execution-engine gate (compiled vs reference interpreter): the
# differential signature must be byte-identical across engines over the
# progs corpus and the minisip audit at -workers 1/2/8 under the race
# detector; the pooled machine must not leak state between runs
# (poisoned-run reuse, step-counter reset, narrow-store sign
# extension), pooled reports must not alias machine state, the taint
# bitmap must skip the shadow on concrete runs without moving the
# explain ledger, and library black boxes must keep S right.
go test -count=1 -race -run 'TestCompiledMatchesInterp' .
go test -count=1 -race -run 'TestBugsSurvivePooledReuse|TestConcreteSearchZeroShadowPhase|TestTaintSpreadExplainParity|TestLibBlackBoxWitnesses' .
go test -count=1 -run 'TestNarrowStoreParity|TestResetClearsStepCounter|TestResetAfterPoisonedRun|TestBranchSnapshotDetachedFromPool|TestConcreteRunSkipsShadow|TestCompiledErrorMessagesMatchInterp|TestCompile' ./internal/machine/
# CLI: -xcheck runs both engines back to back and exits nonzero on any
# signature divergence.
go run ./cmd/dart -xcheck -top blend "$tmp/explain.mc"
rm -rf "$tmp"
# Incremental re-audit gate (PR 10): a warm audit answered from the
# corpus — distilled-suite replay plus bug-fixture validation — must
# reproduce the cold audit's verdict plane byte for byte (bug set,
# per-function status and run counts, coverage, completeness flags),
# staleness must re-search only the changed function, and corrupt
# corpus artifacts must degrade to a full re-search, never a wrong
# verdict.
go test -count=1 -race -run 'TestAuditWarmMatchesCold|TestAuditStaleHash|TestAuditCorruptEntryDegrades|TestAuditOptionsSigGatesReplay|TestPersistentSolveCache|TestWarmAuditSkipsSolveLog' ./internal/audit/
go test -count=1 -race ./internal/corpus/ ./internal/distill/
go test -count=1 -race -run 'TestRestartServesFromCorpusDisk|TestRestartCorpusFastPath' ./internal/serve/
go test -count=1 -race -run 'TestIncrementalSIPWarmMatchesCold|TestCLIWarmAuditWarnsCorruptSolveLog' .
# CLI warm-vs-cold plane equality: strip the timing and corpus
# provenance fields (the only legitimately different ones) and the two
# -json reports must be byte-identical; the warm run must actually be
# answered from the corpus, and both runs must agree on the exit code.
tmp="$(mktemp -d)"
cat > "$tmp/incr.mc" <<'EOF'
int f(int x) { return 2 * x; }

int h(int x, int y) {
    if (x != y)
        if (f(x) == x + 10)
            abort();
    return 0;
}
EOF
cold_rc=0; go run ./cmd/dart -audit -seed 1 -corpus "$tmp/corpus" -json "$tmp/incr.mc" > "$tmp/cold.json" || cold_rc=$?
warm_rc=0; go run ./cmd/dart -audit -seed 1 -corpus "$tmp/corpus" -json "$tmp/incr.mc" > "$tmp/warm.json" || warm_rc=$?
[ "$cold_rc" -eq 1 ] && [ "$warm_rc" -eq 1 ]
grep -q '"cached_by_corpus": true' "$tmp/warm.json"
grep -q '"corpus_stores": 2' "$tmp/cold.json"
grep -q '"corpus_hits": 2' "$tmp/warm.json"
# The metrics registry tallies work performed (solves, restarts, replay
# counts) — legitimately different warm vs cold — so it is excluded
# from the verdict plane along with timing and corpus provenance.
for side in cold warm; do
    sed '/^  "metrics": {$/,/^  },$/d' "$tmp/$side.json" \
        | grep -v 'elapsed_seconds\|cached_by_corpus\|corpus_hits\|corpus_stores' \
        > "$tmp/$side.plane"
done
diff "$tmp/cold.plane" "$tmp/warm.plane"
rm -rf "$tmp"
