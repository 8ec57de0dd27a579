#!/usr/bin/env bash
# Regenerates BENCH_runtime.json from the BenchmarkRuntime suite so the
# perf trajectory is reproducible instead of hand-edited.
#
# Every kernel runs with a FIXED iteration count per run
# (-benchtime=Nx), COUNT runs in one invocation; the recorded numbers
# are per-kernel medians, and ns/op also gets its interquartile spread
# (the 2nd and 4th of 5 runs: nearest-rank quartiles). With -base DIR,
# a checkout of an earlier commit is measured in the same invocation,
# its runs alternating with this checkout's, from test binaries built
# once per side: shared-container wall-clock drifts far too much for
# absolute steps/sec to be comparable across invocations, let alone
# across BENCH_runtime.json entries. A base whose suite still has
# engine configurations contributes its default one (/tiered).
#
# Usage: scripts/bench-runtime.sh [-o out.json] [-base DIR]
#   ITERS=300 COUNT=5 scripts/bench-runtime.sh   # the defaults
set -euo pipefail
cd "$(dirname "$0")/.."

ITERS=${ITERS:-300}
COUNT=${COUNT:-5}
OUT=BENCH_runtime.json
BASE=
while [ $# -gt 0 ]; do
  case $1 in
    -o) OUT=$2; shift 2 ;;
    -base) BASE=$(cd "$2" && pwd); shift 2 ;;
    *) echo "usage: $0 [-o out.json] [-base DIR]" >&2; exit 2 ;;
  esac
done

RAW=$(mktemp)
BIN=$(mktemp -d)
trap 'rm -rf "$RAW" "$BIN"' EXIT

go test -c -o "$BIN/change.test" ./internal/s1/
if [ -n "$BASE" ]; then
  (cd "$BASE" && go test -c -o "$BIN/base.test" ./internal/s1/)
fi
pattern_change=BenchmarkRuntime
pattern_base=BenchmarkRuntime
if [ -n "$BASE" ] && grep -q '"/tiered"' "$BASE/internal/s1/bench_runtime_test.go"; then
  pattern_base='BenchmarkRuntime/.*/tiered$'
fi
echo ";; running BenchmarkRuntime: ${COUNT}x runs of ${ITERS} fixed iterations per kernel${BASE:+, alternating with $BASE}" >&2
for i in $(seq "$COUNT"); do
  for side in ${BASE:+base} change; do
    pattern=pattern_$side
    (cd internal/s1 && "$BIN/$side.test" -test.run xxx -test.bench "${!pattern}" \
      -test.benchtime "${ITERS}x") | awk -v side="$side" '/^BenchmarkRuntime\// {print side, $0}' | tee -a "$RAW" >&2
  done
done

CPU=$(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)
CORES=$(nproc 2>/dev/null || echo 1)
GOMAX=${GOMAXPROCS:-$CORES}
GOOS=$(go env GOOS)
GOARCH=$(go env GOARCH)
GOVER=$(go env GOVERSION)
DATE=$(date +%F)
BASEREV=
if [ -n "$BASE" ]; then
  BASEREV=$(git -C "$BASE" rev-parse --short HEAD 2>/dev/null || echo "$BASE")
fi

{
cat <<HEADER
{
  "date": "$DATE",
  "benchmark": "scripts/bench-runtime.sh${BASE:+ -base <checkout of $BASEREV>}: go test -run xxx -bench BenchmarkRuntime -benchtime=${ITERS}x, $COUNT runs per side alternating, ./internal/s1/",
  "metric": "steps/sec = simulator instructions retired per wall-clock second, and ns/op (one call of the kernel's entry function); per-kernel median of $COUNT fixed-iteration runs from one invocation, ns/op with its interquartile spread",
  "environment": {
    "cpu": "$CPU",
    "cores": $CORES,
    "gomaxprocs": $GOMAX,
    "go": "$GOVER",
    "goos": "$GOOS",
    "goarch": "$GOARCH",
    "note": "absolute numbers depend on shared-container load and are NOT comparable to earlier BENCH_runtime.json entries; only this invocation's base/change comparison is"
  },
  "configurations": {
HEADER
if [ -n "$BASE" ]; then
  if [ "$pattern_base" != BenchmarkRuntime ]; then
    echo "    \"base\": \"commit $BASEREV, its default engine (tiered: decoded closures plus hot-function promotion to lowered blocks)\","
  else
    echo "    \"base\": \"commit $BASEREV, its default engine\","
  fi
fi
cat <<'HEADER'
    "change": "this checkout: the same engine, with boxed objects collected and charged by the allocators"
  },
HEADER

awk '
{
  side = $1
  name = $2; sub(/-[0-9]+$/, "", name)
  split(name, parts, "/")
  kernel = parts[2]
  sps = 0
  for (i = 3; i <= NF; i++) if ($i == "steps/sec") sps = $(i-1) + 0
  ns = $4 + 0
  key = kernel SUBSEP side
  cnt[key]++
  sv[key, cnt[key]] = sps
  nv[key, cnt[key]] = ns
  if (!(kernel in seen)) { seen[kernel] = 1; order[++nk] = kernel }
  if (side == "base") hasbase = 1
}
function sorted(arr, key, a,   m, i, j, t) {
  m = cnt[key]
  for (i = 1; i <= m; i++) a[i] = arr[key, i]
  for (i = 1; i < m; i++)
    for (j = i + 1; j <= m; j++)
      if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t }
  return m
}
function median(arr, key,   a, m) {
  m = sorted(arr, key, a)
  if (m == 0) return 0
  if (m % 2) return a[(m + 1) / 2]
  return (a[m / 2] + a[m / 2 + 1]) / 2
}
function rank(m, q,   r) { r = int(m * q); if (r < m * q) r++; return r < 1 ? 1 : r }
function iqr(arr, key,   a, m) {
  m = sorted(arr, key, a)
  if (m == 0) return 0
  return a[rank(m, 0.75)] - a[rank(m, 0.25)]
}
function emit(kernel, side, last) {
  key = kernel SUBSEP side
  printf "      \"%s\": {\"steps_per_sec\": %d, \"ns_per_op\": %d, \"ns_per_op_iqr\": %d}%s\n", side, median(sv, key), median(nv, key), iqr(nv, key), (last ? "" : ",")
}
END {
  desc["exptl"] = "tail-recursive exponentiation driver, fixnum fast path"
  desc["quadratic"] = "flonum quadratic solver, list results, GC threshold 8192"
  desc["testfn"] = "the §7 testfn with &optional dispatch and pdl floats, GC threshold 8192"
  desc["matrix-subscript"] = "§6.1 triple loop over 16x16 float arrays, Table-4 subscript code"
  desc["gc-cons"] = "list churn over a 20k-cons resident set, GC threshold 4096 (not a paper kernel; BENCH_gc.json isolates its collector cost)"
  desc["poly-call"] = "polymorphic + late-bound calls with a post-warm-up rebind; stresses call inline caches"
  printf "  \"kernels\": {\n"
  for (k = 1; k <= nk; k++) {
    kernel = order[k]
    printf "    \"%s\": {\n", kernel
    printf "      \"description\": \"%s\",\n", (kernel in desc ? desc[kernel] : kernel)
    if (hasbase) emit(kernel, "base", 0)
    emit(kernel, "change", 1)
    printf "    }%s\n", (k < nk ? "," : "")
  }
  printf "  },\n"
}' "$RAW"

cat <<'FOOTER'
  "what_changed": [
    "boxed objects (bignums, ratios, strings, characters) are collected (DESIGN.md §15): markPush marks box words (still inlined), both collections sweep unreachable boxes, Box refills the lowest free slot and charges the box's words against the threshold and HeapLimit",
    "the allocators test collectDue inline and call collectFor only when a collection is due",
    "PrepareTask no longer re-runs analysis.Analyze after Optimize (compile path only; no kernel's code changes)"
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
  "metric": "gc-cons kernel (20k-cons resident set + per-call churn, GC threshold 4096) and box-churn kernel (exptl driver, one dropped bignum per exptl call, GC threshold 8192; box_slots is the box table's length after the run); per-configuration median of $COUNT fixed-iteration runs from one invocation",
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
    if ($i ~ /^(steps\/sec|minors|fulls|promoted-words|minor-p50-us|minor-p99-us|full-p50-us|full-p99-us|box-slots|B\/op)$/) {
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
function emitBox(cfg, name, last) {
  printf "    \"%s\": {\n", name
  printf "      \"steps_per_sec\": %d,\n", median(cfg, "steps/sec")
  printf "      \"minor_collections\": %d,\n", median(cfg, "minors")
  printf "      \"full_collections\": %d,\n", median(cfg, "fulls")
  printf "      \"box_slots\": %d,\n", median(cfg, "box-slots")
  printf "      \"bytes_per_op\": %d\n", median(cfg, "B/op")
  printf "    }%s\n", (last ? "" : ",")
}
END {
  printf "  \"gc_cons\": {\n"
  emit("gen", 0)
  emit("nogen", 1)
  printf "  },\n"
  printf "  \"box_churn\": {\n"
  emitBox("box-gen", "gen", 0)
  emitBox("box-nogen", "nogen", 1)
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
    "machine-arena reuse in slcd: request machines recycle heap/record/stack/card storage through a sync.Pool of arenas (slcd_arena_recycles_total)",
    "boxed objects (bignums, ratios, strings, characters) are collected: both collections mark box words, sweep unreachable boxes and Box refills the lowest free slot; a box is charged its payload's words against the threshold and -max-heap"
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
