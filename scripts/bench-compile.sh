#!/usr/bin/env bash
# Regenerates BENCH_compile.json from the compile-pipeline benchmarks
# (BenchmarkCompileThroughput, BenchmarkCompileCached in bench_test.go)
# so the compile path's perf ledger is reproducible instead of
# hand-edited. BenchmarkCompileCached/cached reloads into one system
# whose compile cache is a DiskCache on a temporary directory: the
# warm-up load stores every defun, the timed reloads rebind them to the
# bodies the system already installed.
#
# Every sub-benchmark runs with -benchmem, a FIXED iteration count per
# run (-benchtime=Nx) and COUNT repetitions, all in one `go test`
# invocation; each recorded figure is the per-benchmark median. ns/op and
# forms/sec depend on the host's load and are comparable only within one
# invocation; B/op and allocs/op are nearly deterministic and are the
# figures to compare across entries.
#
# Usage: scripts/bench-compile.sh [-o out.json]
#   ITERS=40 COUNT=5 scripts/bench-compile.sh   # the defaults
set -euo pipefail
cd "$(dirname "$0")/.."

ITERS=${ITERS:-40}
COUNT=${COUNT:-5}
OUT=BENCH_compile.json
if [ "${1:-}" = "-o" ]; then OUT=$2; fi

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

echo ";; running BenchmarkCompileThroughput + BenchmarkCompileCached: ${COUNT}x runs of ${ITERS} fixed iterations" >&2
go test -run xxx -bench 'BenchmarkCompile(Throughput|Cached)' -benchmem \
  -benchtime="${ITERS}x" -count="$COUNT" . | tee "$RAW" >&2

CPU=$(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)
CORES=$(nproc 2>/dev/null || echo 1)
GOMAX=${GOMAXPROCS:-$CORES}
GOVERSION=$(go env GOVERSION)
GOOS=$(go env GOOS)
GOARCH=$(go env GOARCH)
DATE=$(date +%F)

{
cat <<HEADER
{
  "date": "$DATE",
  "benchmark": "scripts/bench-compile.sh: go test -run xxx -bench 'BenchmarkCompile(Throughput|Cached)' -benchmem -benchtime=${ITERS}x -count=$COUNT .",
  "metric": "per-load cost of compiling the 64-defun corpus: ns/op, B/op and allocs/op from -benchmem, forms/sec = defuns compiled per wall-clock second; per-benchmark median of $COUNT fixed-iteration runs from one invocation",
  "environment": {
    "cpu": "$CPU",
    "cores": $CORES,
    "gomaxprocs": $GOMAX,
    "go": "$GOVERSION",
    "goos": "$GOOS",
    "goarch": "$GOARCH",
    "note": "ns/op and forms/sec depend on shared-host load and compare only within one invocation; B/op and allocs/op compare across entries. The parallel sub-benchmarks skip themselves at GOMAXPROCS=1"
  },
  "corpus": "64 distinct defuns (genCompileCorpus: arithmetic/let/if, float quadratic, prog loop, float kernel, caseq templates with index-varying constants)",
HEADER

awk '
/^BenchmarkCompile(Throughput|Cached)\// {
  name = $1; sub(/^Benchmark/, "", name); sub(/-[0-9]+$/, "", name)
  if (!(name in seen)) { seen[name] = 1; order[++nb] = name }
  for (i = 3; i <= NF; i++) {
    if ($i ~ /^(ns\/op|B\/op|allocs\/op|forms\/sec|hit-rate)$/) {
      key = name SUBSEP $i
      cnt[key]++
      vals[key, cnt[key]] = $(i-1) + 0
    }
  }
}
function median(name, met,   key, m, i, j, t, a) {
  key = name SUBSEP met
  m = cnt[key]
  if (m == 0) return -1
  for (i = 1; i <= m; i++) a[i] = vals[key, i]
  for (i = 1; i < m; i++)
    for (j = i + 1; j <= m; j++)
      if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t }
  if (m % 2) return a[(m + 1) / 2]
  return (a[m / 2] + a[m / 2 + 1]) / 2
}
END {
  printf "  \"results\": {\n"
  for (k = 1; k <= nb; k++) {
    name = order[k]
    printf "    \"%s\": {\n", name
    printf "      \"ns_per_op\": %d,\n", median(name, "ns/op")
    printf "      \"bytes_per_op\": %d,\n", median(name, "B/op")
    printf "      \"allocs_per_op\": %d,\n", median(name, "allocs/op")
    hr = median(name, "hit-rate")
    if (hr >= 0) printf "      \"hit_rate\": %.4f,\n", hr
    printf "      \"forms_per_sec\": %d\n", median(name, "forms/sec")
    printf "    }%s\n", (k < nb ? "," : "")
  }
  printf "  },\n"
  cold = median("CompileCached/cold", "ns/op")
  cached = median("CompileCached/cached", "ns/op")
  printf "  \"cached_speedup_vs_cold\": %.2f,\n", (cold > 0 && cached > 0 ? cold / cached : 0)
}' "$RAW"

cat <<'FOOTER'
  "what_changed": [
    "the per-system in-memory compile cache (compilecache.Cache) is gone: a system caches compiled units only when it has a durable cache, and reuses its own installed bodies through a plain key-to-index table",
    "CompileCached/cached therefore runs a system with a DiskCache on a temporary directory; its warm-up load compiles and stores every defun, and the timed reloads hit the resident table without reading or writing an entry",
    "at the parent commit the same sub-benchmark used the in-memory cache and cached_speedup_vs_cold was 3.72; B/op and allocs/op of both CompileCached sub-benchmarks are the figures to compare"
  ]
}
FOOTER
} > "$OUT"

echo ";; wrote $OUT" >&2
