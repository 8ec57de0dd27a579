// Generational-GC differentials at the Lisp level: the bench kernels
// must produce identical results, machine meters, and profiles whether
// collections are generational (the default), forced full (-gc-nogen),
// or forced minor before every allocation (-gc-stress-minor). CI runs
// the whole differential file set under S1_GC_MODE=nogen and
// S1_GC_MODE=stress legs (DESIGN.md §15).
package s1_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sexp"
)

// applyGCModeEnv maps the S1_GC_MODE CI environment knob onto system
// options: "nogen" makes every collection full, "stress" forces a minor
// collection before every allocation. Empty means the generational
// default.
func applyGCModeEnv(t *testing.T, opts *core.Options) {
	t.Helper()
	switch mode := os.Getenv("S1_GC_MODE"); mode {
	case "":
	case "nogen":
		opts.GCNoGen = true
	case "stress":
		opts.GCStressMinor = true
	default:
		t.Fatalf("unknown S1_GC_MODE %q", mode)
	}
}

// stripGCLines drops the ";; gc:" profile lines — the only ones carrying
// wall-clock pause durations and collection counts, which legitimately
// differ across GC configurations.
func stripGCLines(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, ";; gc:") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// gcDiffSystem builds a kernel system with explicit GC options,
// deliberately ignoring S1_GC_MODE: this file *is* the gen-vs-nogen
// comparison, so both sides must be pinned regardless of the CI leg.
func gcDiffSystem(t *testing.T, k runtimeKernel, opt func(*core.Options), profile bool) *core.System {
	t.Helper()
	opts := core.Options{Constants: k.consts}
	opt(&opts)
	sys := core.NewSystem(opts)
	if profile {
		sys.EnableProfile()
	}
	if k.gcAt > 0 {
		sys.Machine.SetGCThreshold(k.gcAt)
	}
	if err := sys.LoadString(k.src); err != nil {
		t.Fatal(err)
	}
	sys.ResetStats()
	return sys
}

// TestLispDifferentialGenVsNoGen is the tentpole's correctness proof:
// each kernel runs once under generational collection and once with
// -gc-nogen, and the two runs must agree on printed result, machine
// meters (HeapWords excluded — fresh-heap growth differs by design when
// old garbage is reclaimed lazily), and GC-stripped profile output.
// Kernels that collect at all must actually have run minor collections
// on the generational side, or the test proves nothing.
func TestLispDifferentialGenVsNoGen(t *testing.T) {
	for _, k := range runtimeKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			gen := gcDiffSystem(t, k, func(o *core.Options) {}, true)
			nogen := gcDiffSystem(t, k, func(o *core.Options) { o.GCNoGen = true }, true)
			gv, gerr := gen.Call(k.fn, k.args...)
			nv, nerr := nogen.Call(k.fn, k.args...)
			if gerr != nil || nerr != nil {
				t.Fatalf("gen err=%v nogen err=%v", gerr, nerr)
			}
			if sexp.Print(gv) != sexp.Print(nv) {
				t.Errorf("result divergence: gen=%s nogen=%s",
					sexp.Print(gv), sexp.Print(nv))
			}
			gs, ns := *gen.Stats(), *nogen.Stats()
			gs.HeapWords, ns.HeapWords = 0, 0
			if gs != ns {
				t.Errorf("stats divergence (HeapWords excluded):\n  gen:   %+v\n  nogen: %+v",
					gs, ns)
			}
			var bufs [2]strings.Builder
			gen.Machine.WriteProfile(&bufs[0])
			nogen.Machine.WriteProfile(&bufs[1])
			if gp, np := stripGCLines(bufs[0].String()), stripGCLines(bufs[1].String()); gp != np {
				t.Errorf("profile diverges across -gc-nogen:\n--- gen ---\n%s\n--- nogen ---\n%s",
					gp, np)
			}
			for name, sys := range map[string]*core.System{"gen": gen, "nogen": nogen} {
				if err := sys.Machine.CheckHeapInvariants(); err != nil {
					t.Errorf("%s heap invariants: %v", name, err)
				}
			}
			checkStackRegs(t, map[string]*core.System{"gen": gen, "nogen": nogen})
			// Only gc-cons allocates enough in a single call to cross its
			// threshold (the other kernels collect only across the bench
			// loop's many iterations), so it alone anchors the requirement
			// that the generational side really ran minor collections.
			if k.name == "gc-cons" && gen.Machine.GCMeters.MinorCollections == 0 {
				t.Errorf("generational side ran no minor collections (meters %+v)",
					gen.Machine.GCMeters)
			}
			if nogen.Machine.GCMeters.MinorCollections != 0 {
				t.Errorf("nogen side ran minor collections: %+v", nogen.Machine.GCMeters)
			}
		})
	}
}

// TestLispDifferentialMinorStress forces a minor collection before every
// allocation: the harshest schedule for the write barrier and the
// young-list bookkeeping, since every block is promoted almost
// immediately and every subsequent heap store crosses the old/young
// boundary. Results must match the unstressed run and the allocator's
// records must stay consistent.
func TestLispDifferentialMinorStress(t *testing.T) {
	for _, k := range runtimeKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			plain := gcDiffSystem(t, k, func(o *core.Options) {}, false)
			stressed := gcDiffSystem(t, k, func(o *core.Options) { o.GCStressMinor = true }, false)
			pv, perr := plain.Call(k.fn, k.args...)
			sv, serr := stressed.Call(k.fn, k.args...)
			if perr != nil || serr != nil {
				t.Fatalf("plain err=%v stressed err=%v", perr, serr)
			}
			if sexp.Print(pv) != sexp.Print(sv) {
				t.Errorf("result divergence under minor stress: plain=%s stressed=%s",
					sexp.Print(pv), sexp.Print(sv))
			}
			// Kernels that never touch the heap (all-register arithmetic)
			// legitimately trigger no collections even under stress; the
			// cons-heavy kernel must.
			if k.name == "gc-cons" && stressed.Machine.GCMeters.MinorCollections == 0 {
				t.Error("stress-minor run recorded no minor collections")
			}
			if err := stressed.Machine.CheckHeapInvariants(); err != nil {
				t.Errorf("heap invariants after minor-stressed run: %v", err)
			}
			checkStackRegs(t, map[string]*core.System{"plain": plain, "stressed": stressed})
		})
	}
}
