// GC benchmark behind BENCH_gc.json: the cons-heavy kernel and a
// bignum-churning one under the generational default and under
// -gc-nogen, with every collection pause captured through the machine's
// event hook. The metrics this reports — steps/sec for the speedup
// ratio, minor/full pause percentiles for the bounded-pause claim, the
// box table's length and B/op for boxed-object reclamation — are exactly
// what scripts/bench-runtime.sh records.
//
//	go test -bench BenchmarkGC -benchtime=1x ./internal/s1/
package s1_test

import (
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sexp"
)

// pctile returns the p-th percentile of ds (nearest-rank), or 0 when
// empty.
func pctile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

func benchGCConfig(b *testing.B, k runtimeKernel, opts core.Options) {
	b.Helper()
	b.ReportAllocs()
	sys := core.NewSystem(opts)
	sys.Machine.SetGCThreshold(k.gcAt)
	if err := sys.LoadString(k.src); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < warmupCalls; i++ {
		if _, err := sys.Call(k.fn, k.args...); err != nil {
			b.Fatal(err)
		}
	}
	sys.ResetStats()
	// Capture every collection pause in the timed region. The hook fires
	// only on collections, so its cost is invisible next to the
	// collections themselves.
	var minors, fulls []time.Duration
	sys.Machine.OnEvent = func(kind, unit string, d time.Duration) {
		switch kind {
		case "gc-pause":
			fulls = append(fulls, d)
		case "gc-minor-pause":
			minors = append(minors, d)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Call(k.fn, k.args...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := sys.Stats()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(st.Instrs)/secs, "steps/sec")
	}
	gm := sys.Machine.GCMeters
	b.ReportMetric(float64(gm.Collections), "fulls")
	b.ReportMetric(float64(gm.MinorCollections), "minors")
	b.ReportMetric(float64(gm.WordsPromoted), "promoted-words")
	b.ReportMetric(float64(pctile(minors, 0.50))/1e3, "minor-p50-us")
	b.ReportMetric(float64(pctile(minors, 0.99))/1e3, "minor-p99-us")
	b.ReportMetric(float64(pctile(fulls, 0.50))/1e3, "full-p50-us")
	b.ReportMetric(float64(pctile(fulls, 0.99))/1e3, "full-p99-us")
	b.ReportMetric(float64(len(sys.Machine.Boxes)), "box-slots")
}

// BenchmarkGC runs the gc-cons kernel with generational collection on
// (gen) and off (nogen). Within one invocation the two sub-benchmarks
// share everything but the collector mode, so the steps/sec ratio is the
// generational speedup and the pause percentiles compare minor against
// full pauses directly. box-gen and box-nogen run the exptl driver,
// whose every exptl call boxes a bignum (x⁶⁴) and drops it, under the
// run workload's GC threshold: the box table's length shows the
// collector refilling freed slots instead of growing the table.
func BenchmarkGC(b *testing.B) {
	var cons runtimeKernel
	for _, cand := range runtimeKernels() {
		if cand.name == "gc-cons" {
			cons = cand
		}
	}
	box := runtimeKernel{name: "box-churn", src: exptlSrc, fn: "exptl-driver",
		args: []sexp.Value{sexp.Fixnum(50)}, gcAt: 8192}
	b.Run("gen", func(b *testing.B) { benchGCConfig(b, cons, core.Options{}) })
	b.Run("nogen", func(b *testing.B) { benchGCConfig(b, cons, core.Options{GCNoGen: true}) })
	b.Run("box-gen", func(b *testing.B) { benchGCConfig(b, box, core.Options{}) })
	b.Run("box-nogen", func(b *testing.B) { benchGCConfig(b, box, core.Options{GCNoGen: true}) })
}
