// Lisp-level differential: the bench kernels compiled by the full
// pipeline must behave identically under fused and -nofuse dispatch —
// same printed results, same machine meters, same GC activity, and
// (satellite of the decoded-engine work) byte-identical -profile output,
// since fused superinstructions attribute cycles to their constituent
// original opcodes.
package s1_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sexp"
)

// lispDiffSystem compiles k's source into a fresh system. CI runs this
// whole file in several tiered-execution configurations (DESIGN.md §12):
// S1_TIER_MODE=notier disables the tier entirely, S1_TIER_MODE=forcehot
// promotes every function to lowered blocks at load time. Either way all
// the equalities below must keep holding.
func lispDiffSystem(t *testing.T, k runtimeKernel, nofuse, profile bool) *core.System {
	t.Helper()
	opts := core.Options{Constants: k.consts, NoFuse: nofuse}
	switch mode := os.Getenv("S1_TIER_MODE"); mode {
	case "":
	case "notier":
		opts.NoTier = true
	case "forcehot":
		opts.HotThreshold = -1
	default:
		t.Fatalf("unknown S1_TIER_MODE %q", mode)
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
// (tier, fusion, GC) exercises its own write paths against the mark.
func checkStackMarks(t *testing.T, systems map[string]*core.System) {
	t.Helper()
	for name, sys := range systems {
		if err := sys.Machine.CheckStackInvariant(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestLispDifferentialFusedVsUnfused(t *testing.T) {
	for _, k := range runtimeKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			fused := lispDiffSystem(t, k, false, false)
			unfused := lispDiffSystem(t, k, true, false)
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
			if fused.Machine.FusedGroupCount() == 0 {
				t.Errorf("%s compiled to no superinstruction groups", k.name)
			}
			checkStackMarks(t, map[string]*core.System{"fused": fused, "unfused": unfused})
		})
	}
}

// TestLispDifferentialTierModes pins tiered execution at the Lisp level:
// each compiled kernel runs under the default tier, with every function
// forced hot at load, and with the tier disabled — and the three runs
// must agree on printed result, machine meters, and GC activity. The
// forced-hot leg must actually have promoted something, or the mode
// proves nothing.
func TestLispDifferentialTierModes(t *testing.T) {
	modes := []struct {
		name string
		opts func(o *core.Options)
	}{
		{"tiered", func(o *core.Options) {}},
		{"forcehot", func(o *core.Options) { o.HotThreshold = -1 }},
		{"notier", func(o *core.Options) { o.NoTier = true }},
	}
	for _, k := range runtimeKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			type outcome struct {
				sys *core.System
				val string
			}
			runs := map[string]outcome{}
			for _, mode := range modes {
				opts := core.Options{Constants: k.consts}
				mode.opts(&opts)
				applyGCModeEnv(t, &opts)
				sys := core.NewSystem(opts)
				if k.gcAt > 0 {
					sys.Machine.SetGCThreshold(k.gcAt)
				}
				if err := sys.LoadString(k.src); err != nil {
					t.Fatal(err)
				}
				sys.ResetStats()
				v, err := sys.Call(k.fn, k.args...)
				if err != nil {
					t.Fatalf("%s: %v", mode.name, err)
				}
				runs[mode.name] = outcome{sys: sys, val: sexp.Print(v)}
				checkStackMarks(t, map[string]*core.System{mode.name: sys})
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
			plain := lispDiffSystem(t, k, false, false)
			stressed := lispDiffSystem(t, k, false, false)
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

// TestProfileStableAcrossFusion runs each kernel under -profile with and
// without fusion and requires identical profile tables: opcode execs and
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
			var bufs [2]strings.Builder
			for i, nofuse := range []bool{false, true} {
				sys := lispDiffSystem(t, k, nofuse, true)
				if _, err := sys.Call(k.fn, k.args...); err != nil {
					t.Fatal(err)
				}
				checkStackMarks(t, map[string]*core.System{"profiled": sys})
				sys.Machine.WriteProfile(&bufs[i])
			}
			fusedP, unfusedP := stripWallClock(bufs[0].String()), stripWallClock(bufs[1].String())
			if fusedP != unfusedP {
				t.Errorf("profile diverges across -nofuse:\n--- fused ---\n%s\n--- unfused ---\n%s",
					fusedP, unfusedP)
			}
		})
	}
}
