#!/usr/bin/env bash
# Regenerates BENCH_runtime.json from the BenchmarkRuntime suite so the
# perf trajectory is reproducible instead of hand-edited.
#
# Every kernel runs in the two engine configurations the suite defines
# (tiered / -notier) with a FIXED iteration count per run (-benchtime=Nx)
# and COUNT repetitions, all in one `go test` invocation; the recorded
# number is the per-configuration median. The headline ratio,
# tier_speedup, is tiered vs -notier (plain decoded dispatch) from that
# same invocation — shared-container wall-clock drifts far too much for
# absolute steps/sec to be comparable across invocations, let alone
# across BENCH_runtime.json entries.
#
# Usage: scripts/bench-runtime.sh [-o out.json]
#   ITERS=300 COUNT=5 scripts/bench-runtime.sh   # the defaults
set -euo pipefail
cd "$(dirname "$0")/.."

ITERS=${ITERS:-300}
COUNT=${COUNT:-5}
OUT=BENCH_runtime.json
if [ "${1:-}" = "-o" ]; then OUT=$2; fi

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

echo ";; running BenchmarkRuntime: ${COUNT}x runs of ${ITERS} fixed iterations per kernel/config" >&2
go test -run xxx -bench BenchmarkRuntime -benchtime="${ITERS}x" -count="$COUNT" \
  ./internal/s1/ | tee "$RAW" >&2

CPU=$(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)
CORES=$(nproc 2>/dev/null || echo 1)
GOMAX=${GOMAXPROCS:-$CORES}
GOOS=$(go env GOOS)
GOARCH=$(go env GOARCH)
DATE=$(date +%F)

{
cat <<HEADER
{
  "date": "$DATE",
  "benchmark": "scripts/bench-runtime.sh: go test -run xxx -bench BenchmarkRuntime -benchtime=${ITERS}x -count=$COUNT ./internal/s1/",
  "metric": "steps/sec = simulator instructions retired per wall-clock second; per-configuration median of $COUNT fixed-iteration runs from one invocation",
  "environment": {
    "cpu": "$CPU",
    "cores": $CORES,
    "gomaxprocs": $GOMAX,
    "goos": "$GOOS",
    "goarch": "$GOARCH",
    "note": "all configurations re-measured in this invocation; absolute steps/sec depend on shared-container load and are NOT comparable to earlier BENCH_runtime.json entries, only the within-invocation ratios are"
  },
  "configurations": {
    "notier": "plain pre-decoded dispatch, tier disabled (-notier); the baseline tier_speedup divides by",
    "tiered": "the default engine: plain dispatch plus hot-function promotion to trace re-fusion and lowered blocks"
  },
HEADER

awk '
/^BenchmarkRuntime\// {
  name = $1; sub(/-[0-9]+$/, "", name)
  split(name, parts, "/")
  kernel = parts[2]; cfg = parts[3]
  v = 0
  for (i = 2; i <= NF; i++) if ($i == "steps/sec") v = $(i-1) + 0
  if (v <= 0) next
  key = kernel SUBSEP cfg
  cnt[key]++
  vals[key, cnt[key]] = v
  if (!(kernel in seen)) { seen[kernel] = 1; order[++nk] = kernel }
}
function median(kernel, cfg,   key, m, i, j, t, a) {
  key = kernel SUBSEP cfg
  m = cnt[key]
  if (m == 0) return 0
  for (i = 1; i <= m; i++) a[i] = vals[key, i]
  for (i = 1; i < m; i++)
    for (j = i + 1; j <= m; j++)
      if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t }
  if (m % 2) return a[(m + 1) / 2]
  return (a[m / 2] + a[m / 2 + 1]) / 2
}
END {
  desc["exptl"] = "tail-recursive exponentiation driver, fixnum fast path"
  desc["quadratic"] = "flonum quadratic solver, list results, GC threshold 8192"
  desc["testfn"] = "the §7 testfn with &optional dispatch and pdl floats, GC threshold 8192"
  desc["matrix-subscript"] = "§6.1 triple loop over 16x16 float arrays, Table-4 subscript code"
  desc["gc-cons"] = "list churn over a 20k-cons resident set, GC threshold 4096 (not a paper kernel; BENCH_gc.json isolates its collector cost)"
  desc["poly-call"] = "polymorphic + late-bound calls with a post-warm-up rebind; stresses call inline caches"
  printf "  \"kernels\": {\n"
  logsum = 0; n = 0
  for (k = 1; k <= nk; k++) {
    kernel = order[k]
    notier = median(kernel, "notier")
    tiered = median(kernel, "tiered")
    sp = notier > 0 ? tiered / notier : 0
    if (sp > 0) { logsum += log(sp); n++ }
    printf "    \"%s\": {\n", kernel
    printf "      \"description\": \"%s\",\n", (kernel in desc ? desc[kernel] : kernel)
    printf "      \"notier_steps_per_sec\": %d,\n", notier
    printf "      \"tiered_steps_per_sec\": %d,\n", tiered
    printf "      \"tier_speedup\": %.2f\n", sp
    printf "    }%s\n", (k < nk ? "," : "")
  }
  printf "  },\n"
  printf "  \"geomean_tier_speedup\": %.2f,\n", (n ? exp(logsum / n) : 0)
}' "$RAW"

cat <<'FOOTER'
  "acceptance_threshold": 1.5,
  "what_changed": [
    "tiered execution (DESIGN.md §12): always-on per-function invocation counters promote hot functions, re-fusing the whole function into one lowered-op trace (internal/s1/tier.go); -notier disables, -hot-threshold tunes",
    "trace re-fusion: blocks split only at real jump targets plus profile-observed landing PCs, and jumps whose target lies inside the function continue in the executor without returning to the dispatch loop",
    "the static up-to-4 superinstruction fuser and -nofuse are deleted: the tier's install is the only writer of the dispatch stream, so tier_speedup is measured against plain decoded dispatch",
    "block lowering keeps step/cycle/MOV meters in Go locals, spilling to Machine state only at trace exits, calls, allocation sites and error paths, with exact -max-steps accounting and bounded interrupt latency (blockChunk)",
    "SQ inline lowering binds hot CALLSQ routines (arith fastNum, CONS, CAR/CDR, special read/write) directly into the trace; hot CALL/TCALL sites get invalidation-checked inline caches for their resolved entry PC"
  ]
}
FOOTER
} > "$OUT"

echo ";; wrote $OUT" >&2

# ---------------------------------------------------------------------
# BENCH_gc.json: the generational-collector metrics (DESIGN.md §15).
# BenchmarkGC runs the gc-cons kernel with generations on (gen) and off
# (nogen) in one invocation; gen_speedup is the same-invocation
# steps/sec ratio, and the pause percentiles compare minor collections
# against the full collections they replace. Medians over $COUNT runs,
# like the runtime suite above.

OUT_GC=BENCH_gc.json
RAW_GC=$(mktemp)
trap 'rm -f "$RAW" "$RAW_GC"' EXIT

echo ";; running BenchmarkGC: ${COUNT}x runs of ${ITERS} fixed iterations, gen vs nogen" >&2
go test -run xxx -bench BenchmarkGC -benchtime="${ITERS}x" -count="$COUNT" \
  ./internal/s1/ | tee "$RAW_GC" >&2

{
cat <<HEADER
{
  "date": "$DATE",
  "benchmark": "scripts/bench-runtime.sh: go test -run xxx -bench BenchmarkGC -benchtime=${ITERS}x -count=$COUNT ./internal/s1/",
  "metric": "gc-cons kernel (20k-cons resident set + per-call churn, GC threshold 4096); per-configuration median of $COUNT fixed-iteration runs from one invocation",
  "environment": {
    "cpu": "$CPU",
    "cores": $CORES,
    "goos": "$GOOS",
    "goarch": "$GOARCH",
    "note": "gen and nogen are measured in the same invocation; only the within-invocation ratio is meaningful across BENCH_gc.json entries"
  },
  "configurations": {
    "gen": "generational default: threshold collections are minor (nursery + remembered set), escalating on promotion pressure",
    "nogen": "-gc-nogen: every threshold collection is a full mark-sweep (the pre-generational collector)"
  },
HEADER

awk '
/^BenchmarkGC\// {
  name = $1; sub(/-[0-9]+$/, "", name)
  split(name, parts, "/")
  cfg = parts[2]
  for (i = 3; i <= NF; i++) {
    v = $(i-1) + 0
    key = cfg SUBSEP $i
    if ($i ~ /^(steps\/sec|minors|fulls|promoted-words|minor-p50-us|minor-p99-us|full-p50-us|full-p99-us)$/) {
      cnt[key]++
      vals[key, cnt[key]] = v
    }
  }
}
function median(cfg, met,   key, m, i, j, t, a) {
  key = cfg SUBSEP met
  m = cnt[key]
  if (m == 0) return 0
  for (i = 1; i <= m; i++) a[i] = vals[key, i]
  for (i = 1; i < m; i++)
    for (j = i + 1; j <= m; j++)
      if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t }
  if (m % 2) return a[(m + 1) / 2]
  return (a[m / 2] + a[m / 2 + 1]) / 2
}
function emit(cfg, last) {
  printf "    \"%s\": {\n", cfg
  printf "      \"steps_per_sec\": %d,\n", median(cfg, "steps/sec")
  printf "      \"minor_collections\": %d,\n", median(cfg, "minors")
  printf "      \"full_collections\": %d,\n", median(cfg, "fulls")
  printf "      \"promoted_words\": %d,\n", median(cfg, "promoted-words")
  printf "      \"minor_pause_p50_us\": %.2f,\n", median(cfg, "minor-p50-us")
  printf "      \"minor_pause_p99_us\": %.2f,\n", median(cfg, "minor-p99-us")
  printf "      \"full_pause_p50_us\": %.2f,\n", median(cfg, "full-p50-us")
  printf "      \"full_pause_p99_us\": %.2f\n", median(cfg, "full-p99-us")
  printf "    }%s\n", (last ? "" : ",")
}
END {
  printf "  \"gc_cons\": {\n"
  emit("gen", 0)
  emit("nogen", 1)
  printf "  },\n"
  base = median("nogen", "steps/sec")
  sp = 0; if (base > 0) sp = median("gen", "steps/sec") / base
  printf "  \"gen_speedup\": %.2f,\n", sp
  fp = median("nogen", "full-p50-us")
  pr = 0; if (fp > 0) pr = median("gen", "minor-p50-us") / fp
  printf "  \"minor_p50_over_full_p50\": %.3f,\n", pr
}' "$RAW_GC"

cat <<'FOOTER'
  "acceptance_threshold": 1.2,
  "what_changed": [
    "generational GC (DESIGN.md §15): blocks are born young; threshold collections mark from roots plus the card-table remembered set, sweep only the nursery, and promote survivors in place by their sticky mark",
    "collections escalate to full on -gc-nogen or on promotion pressure (8x threshold tenured since the last full)",
    "the mark phase is an explicit worklist (no Go recursion), and emptied big-block free-list size classes are pruned",
    "machine-arena reuse in slcd: request machines recycle heap/record/stack/card storage through a sync.Pool of arenas (slcd_arena_recycles_total)"
  ]
}
FOOTER
} > "$OUT_GC"

echo ";; wrote $OUT_GC" >&2

# ---------------------------------------------------------------------
# BENCH_sched.json: the M:N scheduler and resident-session metrics
# (DESIGN.md §16). BenchmarkScheduler measures (a) resident sessions —
# creation rate and the marginal heap bytes a parked session pins — and
# (b) end-to-end /run throughput through the scheduler, normally and
# with a forced yield at every safepoint; the recorded ratio is
# stress/on (the park/resume worst case). Medians over $COUNT runs,
# same as the suites above.

OUT_SCHED=BENCH_sched.json
RAW_SCHED=$(mktemp)
trap 'rm -f "$RAW" "$RAW_GC" "$RAW_SCHED"' EXIT

echo ";; running BenchmarkScheduler: ${COUNT}x runs of ${ITERS} fixed iterations per sub-benchmark" >&2
go test -run xxx -bench BenchmarkScheduler -benchtime="${ITERS}x" -count="$COUNT" \
  ./internal/daemon/ | tee "$RAW_SCHED" >&2

{
cat <<HEADER
{
  "date": "$DATE",
  "benchmark": "scripts/bench-runtime.sh: go test -run xxx -bench BenchmarkScheduler -benchtime=${ITERS}x -count=$COUNT ./internal/daemon/",
  "metric": "resident-session cost and /run throughput with and without forced yields; per-configuration median of $COUNT fixed-iteration runs from one invocation",
  "environment": {
    "cpu": "$CPU",
    "cores": $CORES,
    "goos": "$GOOS",
    "goarch": "$GOARCH",
    "note": "all configurations re-measured in this invocation; only the within-invocation ratios are comparable across BENCH_sched.json entries"
  },
  "configurations": {
    "on": "M:N scheduler, the daemon's only execution path: safepoint preemption, DRR fair queuing, per-tenant gas",
    "stress": "scheduler with a forced yield at every safepoint (park/resume worst case)"
  },
HEADER

awk '
/^BenchmarkScheduler\// {
  name = $1; sub(/-[0-9]+$/, "", name)
  split(name, parts, "/")
  cfg = (parts[2] == "requests") ? parts[3] : parts[2]
  for (i = 3; i <= NF; i++) {
    if ($i ~ /^(sessions\/sec|bytes\/session|req\/sec)$/) {
      v = $(i-1) + 0
      key = cfg SUBSEP $i
      cnt[key]++
      vals[key, cnt[key]] = v
    }
  }
}
function median(cfg, met,   key, m, i, j, t, a) {
  key = cfg SUBSEP met
  m = cnt[key]
  if (m == 0) return 0
  for (i = 1; i <= m; i++) a[i] = vals[key, i]
  for (i = 1; i < m; i++)
    for (j = i + 1; j <= m; j++)
      if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t }
  if (m % 2) return a[(m + 1) / 2]
  return (a[m / 2] + a[m / 2 + 1]) / 2
}
END {
  printf "  \"resident_sessions\": {\n"
  printf "    \"sessions_per_sec\": %d,\n", median("resident-sessions", "sessions/sec")
  printf "    \"marginal_bytes_per_session\": %d\n", median("resident-sessions", "bytes/session")
  printf "  },\n"
  printf "  \"requests\": {\n"
  printf "    \"on_req_per_sec\": %d,\n", median("on", "req/sec")
  printf "    \"stress_req_per_sec\": %d\n", median("stress", "req/sec")
  printf "  },\n"
  on = median("on", "req/sec")
  st = 0
  if (on > 0) st = median("stress", "req/sec") / on
  printf "  \"sched_stress_over_on\": %.3f,\n", st
}' "$RAW_SCHED"

cat <<'FOOTER'
  "what_changed": [
    "the scheduler is the only execution path: the semaphore path (the old off mode) and the on/off ratio are gone; stress is a test hook",
    "M:N machine scheduler (DESIGN.md §16): goroutine-per-request multiplexed over SchedWorkers execution slots, preempting at the simulator safepoints already present (interruptEvery polls, GC-check sites, lowered-block exits) via Machine.OnSafepoint",
    "deficit-round-robin fair queuing over tenants with the quantum settled against actual S-1 cycles, so a hot tenant cannot starve a light one",
    "per-tenant gas buckets denominated in S-1 cycles (refill rate + burst); exhaustion is a typed 429 with Retry-After, distinct from deadline 504s and load-shed 429s",
    "resident sessions: POST /session keeps a core.System live across requests with its 16 MB machine stack parked in a shared pool; drain checkpoints sessions into the snapshot store and boot restores or reports them lost (degraded /readyz)"
  ]
}
FOOTER
} > "$OUT_SCHED"

echo ";; wrote $OUT_SCHED" >&2
