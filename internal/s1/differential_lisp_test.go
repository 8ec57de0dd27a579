// Lisp-level differentials: the bench kernels compiled by the full
// pipeline must behave identically under every tier mode — same printed
// results, same machine meters, same GC activity, and byte-identical
// -profile output, since lowered blocks attribute cycles to their
// constituent original opcodes.
package s1_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sexp"
)

// lispDiffSystem compiles k's source into a fresh system in the tier
// mode S1_TIER_MODE selects. CI runs this whole file in several
// tiered-execution configurations (DESIGN.md §12): S1_TIER_MODE=notier
// disables the tier entirely, S1_TIER_MODE=forcehot promotes every
// function to lowered blocks at load time. Either way all the
// equalities below must keep holding.
func lispDiffSystem(t *testing.T, k runtimeKernel, profile bool) *core.System {
	t.Helper()
	return lispTierSystem(t, k, os.Getenv("S1_TIER_MODE"), profile)
}

// lispTierSystem compiles k's source into a fresh system in the given
// tier mode: "" or "tiered" (the default engine), "notier" (plain
// decoded dispatch), or "forcehot" (every function promoted at load).
func lispTierSystem(t *testing.T, k runtimeKernel, mode string, profile bool) *core.System {
	t.Helper()
	opts := core.Options{Constants: k.consts}
	switch mode {
	case "", "tiered":
	case "notier":
		opts.NoTier = true
	case "forcehot":
		opts.HotThreshold = -1
	default:
		t.Fatalf("unknown tier mode %q", mode)
	}
	applyGCModeEnv(t, &opts)
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

// checkStackMarks fails the test when any system's stack holds a nonzero
// word at or above its dirty mark: a stack write site that forgot to
// raise the mark, which would leak that word to the segment's next
// tenant. Run after every differential run, so each engine mode
// (tier, GC) exercises its own write paths against the mark.
func checkStackMarks(t *testing.T, systems map[string]*core.System) {
	t.Helper()
	for name, sys := range systems {
		if err := sys.Machine.CheckStackInvariant(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestLispDifferentialFusedVsUnfused runs each kernel fused — every
// function lowered into block superinstructions at load — and unfused
// (plain decoded dispatch), and requires the same printed result, machine
// meters and GC activity. The fused leg must actually have lowered
// blocks, or the comparison proves nothing.
func TestLispDifferentialFusedVsUnfused(t *testing.T) {
	for _, k := range runtimeKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			fused := lispTierSystem(t, k, "forcehot", false)
			unfused := lispTierSystem(t, k, "notier", false)
			fv, ferr := fused.Call(k.fn, k.args...)
			uv, uerr := unfused.Call(k.fn, k.args...)
			if ferr != nil || uerr != nil {
				t.Fatalf("fused err=%v unfused err=%v", ferr, uerr)
			}
			if sexp.Print(fv) != sexp.Print(uv) {
				t.Errorf("result divergence: fused=%s unfused=%s",
					sexp.Print(fv), sexp.Print(uv))
			}
			if *fused.Stats() != *unfused.Stats() {
				t.Errorf("stats divergence:\n  fused:   %+v\n  unfused: %+v",
					*fused.Stats(), *unfused.Stats())
			}
			if fused.Machine.GCMeters != unfused.Machine.GCMeters {
				t.Errorf("GC divergence:\n  fused:   %+v\n  unfused: %+v",
					fused.Machine.GCMeters, unfused.Machine.GCMeters)
			}
			if fused.Machine.TierStats().LoweredBlocks == 0 {
				t.Errorf("%s lowered no blocks", k.name)
			}
			checkStackMarks(t, map[string]*core.System{"fused": fused, "unfused": unfused})
		})
	}
}

// tierModes are the engine configurations the Lisp-level differentials
// compare; notier (plain decoded dispatch) is the reference.
var tierModes = []string{"tiered", "forcehot", "notier"}

// TestLispDifferentialTierModes pins tiered execution at the Lisp level:
// each compiled kernel runs under the default tier, with every function
// forced hot at load, and with the tier disabled — and the three runs
// must agree on printed result, machine meters, and GC activity. The
// forced-hot leg must actually have promoted something, or the mode
// proves nothing.
func TestLispDifferentialTierModes(t *testing.T) {
	for _, k := range runtimeKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			type outcome struct {
				sys *core.System
				val string
			}
			runs := map[string]outcome{}
			for _, mode := range tierModes {
				sys := lispTierSystem(t, k, mode, false)
				v, err := sys.Call(k.fn, k.args...)
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				runs[mode] = outcome{sys: sys, val: sexp.Print(v)}
				checkStackMarks(t, map[string]*core.System{mode: sys})
			}
			ref := runs["notier"]
			for _, name := range []string{"tiered", "forcehot"} {
				got := runs[name]
				if got.val != ref.val {
					t.Errorf("%s result divergence: %s vs %s", name, got.val, ref.val)
				}
				if *got.sys.Stats() != *ref.sys.Stats() {
					t.Errorf("%s stats divergence:\n  %s: %+v\n  notier: %+v",
						name, name, *got.sys.Stats(), *ref.sys.Stats())
				}
				if got.sys.Machine.GCMeters != ref.sys.Machine.GCMeters {
					t.Errorf("%s GC divergence:\n  %s: %+v\n  notier: %+v",
						name, name, got.sys.Machine.GCMeters, ref.sys.Machine.GCMeters)
				}
			}
			if ts := runs["forcehot"].sys.Machine.TierStats(); ts.Promotions == 0 {
				t.Error("forced-hot leg promoted nothing")
			}
		})
	}
}

// TestLispDifferentialGCStress re-runs each kernel with a collection
// forced before every allocation. Results must match the unstressed run
// — any divergence or crash means some mid-construction structure was
// reachable only from host locals — and the allocator's block records
// must stay consistent at every step's end.
func TestLispDifferentialGCStress(t *testing.T) {
	for _, k := range runtimeKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			plain := lispDiffSystem(t, k, false)
			stressed := lispDiffSystem(t, k, false)
			stressed.Machine.SetGCStress(true)
			pv, perr := plain.Call(k.fn, k.args...)
			sv, serr := stressed.Call(k.fn, k.args...)
			if perr != nil || serr != nil {
				t.Fatalf("plain err=%v stressed err=%v", perr, serr)
			}
			if sexp.Print(pv) != sexp.Print(sv) {
				t.Errorf("result divergence under gc-stress: plain=%s stressed=%s",
					sexp.Print(pv), sexp.Print(sv))
			}
			if err := stressed.Machine.CheckHeapInvariants(); err != nil {
				t.Errorf("heap invariants after stressed run: %v", err)
			}
			checkStackMarks(t, map[string]*core.System{"plain": plain, "stressed": stressed})
		})
	}
}

// TestProfileStableAcrossFusion runs each kernel under -profile in every
// tier mode — blocks fused at the default threshold, at load, or never —
// and requires identical profile tables: opcode execs and
// cycles, function attribution, and high-water marks. Only the GC-pause
// line carries wall-clock durations, so it is excluded.
func TestProfileStableAcrossFusion(t *testing.T) {
	stripWallClock := func(s string) string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, ";; gc:") {
				continue
			}
			out = append(out, line)
		}
		return strings.Join(out, "\n")
	}
	for _, k := range runtimeKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			profiles := map[string]string{}
			for _, mode := range tierModes {
				sys := lispTierSystem(t, k, mode, true)
				if _, err := sys.Call(k.fn, k.args...); err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				checkStackMarks(t, map[string]*core.System{mode: sys})
				var buf strings.Builder
				sys.Machine.WriteProfile(&buf)
				profiles[mode] = stripWallClock(buf.String())
			}
			ref := profiles["notier"]
			for _, mode := range []string{"tiered", "forcehot"} {
				if profiles[mode] != ref {
					t.Errorf("profile diverges under %s:\n--- %s ---\n%s\n--- notier ---\n%s",
						mode, mode, profiles[mode], ref)
				}
			}
		})
	}
}

// kernelStatsGolden holds each runtime kernel's exact simulated counts
// for one call of its entry function.
const kernelStatsGolden = "testdata/kernel_stats.golden"

// TestLispDifferentialGoldenStats pins the absolute simulated counts —
// instructions retired, cycles, and dynamic MOVs — of every runtime
// kernel against a checked-in golden file. The other differentials only
// compare engine configurations with each other; this one catches a
// change that moves every configuration the same way. The counts are
// engine-independent, so the file holds in every S1_TIER_MODE and
// S1_GC_MODE leg. After an intended codegen change, replace the file's
// data lines with the "got" lines of the failure message.
func TestLispDifferentialGoldenStats(t *testing.T) {
	var got []string
	for _, k := range runtimeKernels() {
		sys := lispDiffSystem(t, k, false)
		if _, err := sys.Call(k.fn, k.args...); err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		st := sys.Stats()
		got = append(got, fmt.Sprintf("%s instrs=%d cycles=%d movs=%d", k.name, st.Instrs, st.Cycles, st.Movs))
	}
	raw, err := os.ReadFile(kernelStatsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("kernel counts differ from %s:\n--- got ---\n%s\n--- want ---\n%s", kernelStatsGolden, g, w)
	}
}
