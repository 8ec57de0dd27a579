// Lisp-level differentials: the bench kernels compiled by the full
// pipeline must give the interpreter's answers and pin their exact
// simulated counts (testdata/kernel_stats.golden), in every
// configuration the differential harness (internal/difftest) draws:
// under forced collection, with generations off, profiled, and
// restored from a snapshot.
package s1_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/sexp"
)

// kernelProg is kernel k as a harness program: its source, constants
// and GC threshold, and one call of its entry function.
func kernelProg(k runtimeKernel) *difftest.Prog {
	args := make([]string, len(k.args))
	for i, a := range k.args {
		args[i] = sexp.Print(a)
	}
	return &difftest.Prog{Name: k.name, Src: k.src, Constants: k.consts, GCThreshold: k.gcAt, Small: true,
		Calls: []difftest.Call{{Fn: k.fn, Args: strings.Join(args, " ")}}}
}

// runKernels runs every kernel in the reference configuration and in
// c, one subtest each, then hands check (when non-nil) both reports.
func runKernels(t *testing.T, c difftest.Config, check func(t *testing.T, k runtimeKernel, r, ref *difftest.Report)) {
	for _, k := range runtimeKernels() {
		t.Run(k.name, func(t *testing.T) {
			p := kernelProg(k)
			ref, err := difftest.Run(p, difftest.Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			r, err := difftest.Run(p, c, ref)
			if err != nil {
				t.Fatal(err)
			}
			if check != nil {
				check(t, k, r, ref)
			}
		})
	}
}

// TestLispDifferentialGCStress runs each kernel with a full collection
// forced before every allocation: any divergence or crash means some
// mid-construction structure was reachable only from host locals.
func TestLispDifferentialGCStress(t *testing.T) {
	runKernels(t, difftest.Config{GC: difftest.Full}, nil)
}

// TestLispDifferentialFusedVsUnfused runs each kernel under -profile,
// which sends every instruction with a fast form through step's generic
// operand path instead: the same result, meters and GC activity.
func TestLispDifferentialFusedVsUnfused(t *testing.T) {
	runKernels(t, difftest.Config{Profile: true}, nil)
}

// TestLispDifferentialTierModes runs each kernel on machines that got
// their lowered stream from an image (the rehydrated template's
// LoadImage) and from a template machine (each restore's LoadFrom)
// rather than as the load installed each body.
func TestLispDifferentialTierModes(t *testing.T) {
	runKernels(t, difftest.Config{Snapshot: difftest.AfterLoad}, nil)
}

// TestProfileStableAcrossFusion runs each kernel profiled, parked at
// every safepoint: the profile's per-opcode executions and cycles must
// sum exactly to the run's meters.
func TestProfileStableAcrossFusion(t *testing.T) {
	runKernels(t, difftest.Config{Profile: true, Yield: true}, nil)
}

// TestLispDifferentialGenVsNoGen runs each kernel with -gc-nogen. gc-cons
// alone allocates enough in one call to cross its threshold, so it
// anchors the comparison: the generational side ran minor collections
// and the nogen side none.
func TestLispDifferentialGenVsNoGen(t *testing.T) {
	runKernels(t, difftest.Config{GC: difftest.NoGen, Profile: true}, func(t *testing.T, k runtimeKernel, r, ref *difftest.Report) {
		if k.name == "gc-cons" && ref.GC.MinorCollections == 0 {
			t.Errorf("generational side ran no minor collections (meters %+v)", ref.GC)
		}
		if r.GC.MinorCollections != 0 {
			t.Errorf("nogen side ran minor collections: %+v", r.GC)
		}
	})
}

// TestLispDifferentialMinorStress forces a minor collection before every
// allocation: the harshest schedule for the write barrier and the
// young-list bookkeeping. The cons-heavy kernel must have collected.
func TestLispDifferentialMinorStress(t *testing.T) {
	runKernels(t, difftest.Config{GC: difftest.Minor}, func(t *testing.T, k runtimeKernel, r, _ *difftest.Report) {
		if k.name == "gc-cons" && r.GC.MinorCollections == 0 {
			t.Error("stress-minor run recorded no minor collections")
		}
	})
}

// runProg runs a hand-written harness program in the reference
// configuration; TestDifferential runs it in every other.
func runProg(t *testing.T, p *difftest.Prog) *difftest.Report {
	t.Helper()
	r, err := difftest.Run(p, difftest.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestLispDifferentialListIdentity: eq on what cadr, member, assoc,
// nthcdr, last or list* return, and rplaca through it, answer as
// interpreted.
func TestLispDifferentialListIdentity(t *testing.T) { runProg(t, difftest.ListIdentity()) }

// TestLispDifferentialSymbolCells: symbol-value, set, boundp and apply
// answer as interpreted, natively until the first error.
func TestLispDifferentialSymbolCells(t *testing.T) {
	p := difftest.SymbolCells()
	r := runProg(t, p)
	for i, c := range p.Calls {
		if c.Fn == "sv-unbound" {
			// Everything before reads and writes cells natively; from
			// here on errors and #' stubs marshal.
			break
		}
		if n := r.Stats[i].MarshaledPrims; n != 0 {
			t.Errorf("(%s %s) made %d marshaled prim calls, want 0", c.Fn, c.Args, n)
		}
	}
}

// TestLispDifferentialShadowedPrim: a value live across the gateway's
// call to a redefined primitive keeps its register.
func TestLispDifferentialShadowedPrim(t *testing.T) { runProg(t, difftest.ShadowedPrim()) }

// TestLispDifferentialPdlEscape: pdl numbers stored into heap objects or
// specials keep their values after their frames are gone.
func TestLispDifferentialPdlEscape(t *testing.T) { runProg(t, difftest.PdlEscape()) }

// kernelStatsGolden holds each runtime kernel's exact simulated counts
// for one call of its entry function.
const kernelStatsGolden = "testdata/kernel_stats.golden"

// TestLispDifferentialGoldenStats pins the absolute simulated counts —
// instructions retired, cycles, and dynamic MOVs — of every runtime
// kernel against a checked-in golden file. The harness requires every
// configuration to reproduce these counts, so the file holds in all of
// them. After an intended codegen change, replace the file's data lines
// with the "got" lines of the failure message.
func TestLispDifferentialGoldenStats(t *testing.T) {
	var got []string
	for _, k := range runtimeKernels() {
		st := runProg(t, kernelProg(k)).Stats[0]
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
