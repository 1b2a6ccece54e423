#!/usr/bin/env sh
# Benchmark smoke guard: runs the perf-trajectory benchmarks
# (BenchmarkDPar2 end-to-end, BenchmarkDPar2Compress and
# BenchmarkDPar2Iterate for its per-phase split,
# BenchmarkDPar2IterationAllocs for the allocation budget, BenchmarkDPar2TallSlice for the sharded stage-1 path,
# BenchmarkAbsorb for the streaming absorb path, BenchmarkFactorBatch for
# the fused batched small-SVD sweep, BenchmarkEngineContendedQueue for
# the admission scheduler, BenchmarkServiceDecomposeRoundTrip for the
# HTTP front end's transport overhead, and BenchmarkServiceCacheHit for the
# HTTP cache-hit reply in its binary and JSON forms) and fails when
#   - any expected benchmark is missing from the output or its metrics do
#     not parse — a renamed benchmark or an empty result line is a hard
#     failure, never a vacuous pass;
#   - allocations per ALS iteration regress above the per-iteration budget
#     on either iteration bench (BENCH_1.json recorded ~104 allocs/iter
#     after the PR-1 arena work; the guard allows headroom to ~150);
#   - allocations per absorbed batch regress above the absorb budget on
#     either BenchmarkAbsorb variant (~950 measured when the lazy factored-Q
#     absorb landed; the budget allows headroom to 1500 — and because the
#     K=8 and K=64 variants absorb the identical batch, a K-dependent
#     allocation leak trips the same budget long before it ships);
#   - BenchmarkDPar2's reported fitness drops below 0.95 (BENCH_1.json
#     recorded 0.9559; a vanishing fitness means the workload silently
#     changed);
#   - steady-state BenchmarkFactorBatch allocations exceed the batch budget
#     on either K variant (a warmed BatchWorkspace makes the batched Jacobi
#     sweep allocation-free, so any reintroduced per-problem allocation
#     shows up as at least K allocs/op);
#   - the contended-queue bench shows a high-priority mean queue wait above
#     the queue-wait budget, or a priority inversion (high-priority jobs
#     waiting longer than the low-priority backlog they are meant to
#     overtake);
#   - BenchmarkTensorDigest (the one sha256 pass behind every cache key and
#     service tensor_id) is missing or reports no MB/s — a presence check
#     only, with no budget, because hashing throughput depends on the host;
#   - the per-phase benches BenchmarkDPar2Compress (compression only) and
#     BenchmarkDPar2Iterate (iteration only, on a precompressed tensor) are
#     missing or report no compressed-bytes / iter-ms — presence checks
#     only, with no time budget, for the same reason;
#   - BenchmarkServiceCacheHit (a loopback HTTP cache hit on a stock-sized
#     result, binary and JSON reply forms; the bench itself fails when the
#     two forms carry different bytes) is missing or reports no binary-ms /
#     json-ms — a presence check only, with no time budget, for the same
#     reason;
#   - a result-cache hit (BenchmarkCacheHit: key hash + cached-file read +
#     checksum verify + decode, never the method) regresses above its
#     allocation or latency budget (~105 allocs / ~0.9ms measured when the
#     cache landed; budgets allow headroom to 300 allocs / 25ms);
#   - the HTTP service's transport tax regresses: the loopback round trip of
#     BenchmarkServiceDecomposeRoundTrip (JSON request + admission queue +
#     DPF2 response, minus the in-process decomposition time) must stay
#     under the service-overhead budget (~5ms measured when the service
#     landed; the budget allows headroom to 250ms).
#
# Besides the human-readable log, every budget check emits one machine-
# readable JSON line on stdout of the form
#   {"gate":"benchsmoke","check":"...","bench":"...","value":V,"budget":B,"pass":true|false}
# so CI tooling can consume the gate results without scraping prose (the
# same convention cmd/reprolint -json uses). Presence checks for the
# guarded benchmark set emit value 1 (seen) or 0 (missing) against budget 1.
#
# Usage: scripts/benchsmoke.sh [max-allocs-per-iter] [max-allocs-per-absorb] [max-hi-qwait-ms] [max-allocs-per-batch] [max-allocs-per-cache-hit] [max-cache-hit-ms] [max-service-overhead-ms]
set -eu

budget="${1:-150}"
absorb_budget="${2:-1500}"
qwait_budget="${3:-250}"
batch_budget="${4:-8}"
cachehit_budget="${5:-300}"
cachems_budget="${6:-25}"
svc_budget="${7:-250}"
out="$(go test -run '^$' -bench '^(BenchmarkDPar2|BenchmarkDPar2Compress|BenchmarkDPar2Iterate|BenchmarkDPar2IterationAllocs|BenchmarkDPar2TallSlice|BenchmarkAbsorb|BenchmarkFactorBatch|BenchmarkEngineContendedQueue|BenchmarkCacheHit|BenchmarkTensorDigest)$' -benchtime 2x -benchmem .)
$(go test -run '^$' -bench '^(BenchmarkServiceDecomposeRoundTrip|BenchmarkServiceCacheHit)$' -benchtime 2x -benchmem ./internal/service/)"
echo "$out"

echo "$out" | awk -v budget="$budget" -v absorb_budget="$absorb_budget" -v qwait_budget="$qwait_budget" -v batch_budget="$batch_budget" -v cachehit_budget="$cachehit_budget" -v cachems_budget="$cachems_budget" -v svc_budget="$svc_budget" '
function metric(name,   i) {
    # value of a named benchmark metric on the current line, or "" if absent
    for (i = 2; i <= NF; i++) if ($i == name) return $(i - 1)
    return ""
}
function gatejson(check, bench, value, budgetv, ok) {
    # one machine-readable JSON line per budget check (see header comment)
    printf "{\"gate\":\"benchsmoke\",\"check\":\"%s\",\"bench\":\"%s\",\"value\":%.4f,\"budget\":%.4f,\"pass\":%s}\n", \
        check, bench, value, budgetv, (ok ? "true" : "false")
}
function require(val, name) {
    if (val == "") {
        printf "benchsmoke: could not parse %s from %s\n", name, $1 > "/dev/stderr"
        exit 2
    }
    return val
}
$1 ~ /^BenchmarkDPar2(-[0-9]+)?$/ {
    seen["BenchmarkDPar2"] = 1
    fit = require(metric("fitness"), "fitness")
    printf "benchsmoke: %s fitness %.4f (floor 0.95)\n", $1, fit
    gatejson("fitness-floor", "BenchmarkDPar2", fit, 0.95, fit >= 0.95)
    if (fit < 0.95) {
        printf "benchsmoke: FAIL — %s fitness %.4f below 0.95\n", $1, fit > "/dev/stderr"
        bad = 1
    }
}
$1 ~ /^BenchmarkDPar2(IterationAllocs|TallSlice)(-[0-9]+)?$/ {
    sub(/-[0-9]+$/, "", $1); seen[$1] = 1
    iters  = require(metric("als-iters"), "als-iters")
    allocs = require(metric("allocs/op"), "allocs/op")
    if (iters <= 0) {
        printf "benchsmoke: %s reported zero als-iters\n", $1 > "/dev/stderr"
        exit 2
    }
    per = allocs / iters
    printf "benchsmoke: %s %.1f allocs per ALS iteration (budget %d)\n", $1, per, budget
    gatejson("allocs-per-iter", $1, per, budget, per <= budget)
    if (per > budget) {
        printf "benchsmoke: FAIL — %s regressed above %d allocs per ALS iteration\n", $1, budget > "/dev/stderr"
        bad = 1
    }
}
$1 ~ /^BenchmarkAbsorb\// {
    name = $1; sub(/-[0-9]+$/, "", name); sub(/^BenchmarkAbsorb\//, "", name)
    seen["BenchmarkAbsorb/" name] = 1
    allocs = require(metric("allocs/op"), "allocs/op")
    printf "benchsmoke: %s %.0f allocs per absorbed batch (budget %d)\n", $1, allocs, absorb_budget
    gatejson("allocs-per-absorb", "BenchmarkAbsorb/" name, allocs, absorb_budget, allocs <= absorb_budget)
    if (allocs > absorb_budget) {
        printf "benchsmoke: FAIL — %s regressed above %d allocs per absorbed batch\n", $1, absorb_budget > "/dev/stderr"
        bad = 1
    }
}
$1 ~ /^BenchmarkFactorBatch\// {
    name = $1; sub(/-[0-9]+$/, "", name); sub(/^BenchmarkFactorBatch\//, "", name)
    seen["BenchmarkFactorBatch/" name] = 1
    allocs = require(metric("allocs/op"), "allocs/op")
    printf "benchsmoke: %s %.0f allocs per batched SVD sweep (budget %d)\n", $1, allocs, batch_budget
    gatejson("allocs-per-batch", "BenchmarkFactorBatch/" name, allocs, batch_budget, allocs <= batch_budget)
    if (allocs > batch_budget) {
        printf "benchsmoke: FAIL — %s regressed above %d allocs per batched SVD sweep\n", $1, batch_budget > "/dev/stderr"
        bad = 1
    }
}
$1 ~ /^BenchmarkCacheHit(-[0-9]+)?$/ {
    seen["BenchmarkCacheHit"] = 1
    allocs = require(metric("allocs/op"), "allocs/op")
    ms = require(metric("ns/op"), "ns/op") / 1e6
    printf "benchsmoke: %s %.0f allocs, %.2fms per cache hit (budgets %d allocs, %dms)\n", $1, allocs, ms, cachehit_budget, cachems_budget
    gatejson("allocs-per-cache-hit", "BenchmarkCacheHit", allocs, cachehit_budget, allocs <= cachehit_budget)
    gatejson("cache-hit-latency-ms", "BenchmarkCacheHit", ms, cachems_budget, ms <= cachems_budget)
    if (allocs > cachehit_budget) {
        printf "benchsmoke: FAIL — cache hit regressed above %d allocs\n", cachehit_budget > "/dev/stderr"
        bad = 1
    }
    if (ms > cachems_budget) {
        printf "benchsmoke: FAIL — cache hit latency %.2fms above %dms budget\n", ms, cachems_budget > "/dev/stderr"
        bad = 1
    }
}
$1 ~ /^BenchmarkDPar2Compress(-[0-9]+)?$/ {
    seen["BenchmarkDPar2Compress"] = 1
    cb = require(metric("compressed-bytes"), "compressed-bytes")
    printf "benchsmoke: %s %.0f compressed bytes (presence only, no budget)\n", $1, cb
}
$1 ~ /^BenchmarkDPar2Iterate(-[0-9]+)?$/ {
    seen["BenchmarkDPar2Iterate"] = 1
    ims = require(metric("iter-ms"), "iter-ms")
    printf "benchsmoke: %s %.3fms per ALS iteration (presence only, no budget)\n", $1, ims
}
$1 ~ /^BenchmarkTensorDigest(-[0-9]+)?$/ {
    seen["BenchmarkTensorDigest"] = 1
    mbs = require(metric("MB/s"), "MB/s")
    printf "benchsmoke: %s %.0f MB/s (presence only, no budget)\n", $1, mbs
}
$1 ~ /^BenchmarkServiceDecomposeRoundTrip(-[0-9]+)?$/ {
    seen["BenchmarkServiceDecomposeRoundTrip"] = 1
    overhead = require(metric("overhead-ms"), "overhead-ms")
    httpms   = require(metric("http-ms"), "http-ms")
    printf "benchsmoke: %s %.2fms round trip, %.2fms transport overhead (budget %dms)\n", $1, httpms, overhead, svc_budget
    gatejson("service-overhead-ms", "BenchmarkServiceDecomposeRoundTrip", overhead, svc_budget, overhead <= svc_budget)
    if (overhead > svc_budget) {
        printf "benchsmoke: FAIL — HTTP service overhead %.2fms above %dms budget\n", overhead, svc_budget > "/dev/stderr"
        bad = 1
    }
}
$1 ~ /^BenchmarkServiceCacheHit(-[0-9]+)?$/ {
    seen["BenchmarkServiceCacheHit"] = 1
    bms = require(metric("binary-ms"), "binary-ms")
    jms = require(metric("json-ms"), "json-ms")
    printf "benchsmoke: %s %.2fms binary, %.2fms JSON per HTTP cache hit (presence only, no budget)\n", $1, bms, jms
}
$1 ~ /^BenchmarkEngineContendedQueue(-[0-9]+)?$/ {
    seen["BenchmarkEngineContendedQueue"] = 1
    hi = require(metric("hi-qwait-ms"), "hi-qwait-ms")
    lo = require(metric("lo-qwait-ms"), "lo-qwait-ms")
    printf "benchsmoke: %s hi-qwait %.2fms lo-qwait %.2fms (hi budget %dms)\n", $1, hi, lo, qwait_budget
    gatejson("hi-qwait", "BenchmarkEngineContendedQueue", hi, qwait_budget, hi <= qwait_budget)
    gatejson("priority-inversion", "BenchmarkEngineContendedQueue", hi, lo, hi <= lo)
    if (hi > qwait_budget) {
        printf "benchsmoke: FAIL — high-priority queue wait %.2fms above %dms budget\n", hi, qwait_budget > "/dev/stderr"
        bad = 1
    }
    if (hi > lo) {
        printf "benchsmoke: FAIL — priority inversion: hi-qwait %.2fms > lo-qwait %.2fms\n", hi, lo > "/dev/stderr"
        bad = 1
    }
}
END {
    # Every guarded benchmark must have produced a parseable result line:
    # a rename or an empty run is a hard failure, not a silent skip.
    n = split("BenchmarkDPar2 BenchmarkDPar2Compress BenchmarkDPar2Iterate BenchmarkDPar2IterationAllocs BenchmarkDPar2TallSlice BenchmarkAbsorb/K8 BenchmarkAbsorb/K64 BenchmarkFactorBatch/K8 BenchmarkFactorBatch/K64 BenchmarkEngineContendedQueue BenchmarkCacheHit BenchmarkTensorDigest BenchmarkServiceDecomposeRoundTrip BenchmarkServiceCacheHit", want, " ")
    for (i = 1; i <= n; i++) {
        present = (want[i] in seen)
        gatejson("present", want[i], present ? 1 : 0, 1, present)
        if (!present) {
            printf "benchsmoke: expected benchmark %s missing from output\n", want[i] > "/dev/stderr"
            missing = 1
        }
    }
    if (missing) exit 2
    if (bad) exit 1
}'
