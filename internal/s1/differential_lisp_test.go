// Lisp-level differentials: the bench kernels compiled by the full
// pipeline must give the interpreter's answers, pin their exact
// simulated counts (testdata/kernel_stats.golden), behave identically
// under forced collection, run alike fused and unfused and however the
// machine got its lowered stream, and profile to the exact meters.
package s1_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/s1"
	"repro/internal/sexp"
)

// lispDiffOptions is the system configuration for kernel k in the GC
// mode S1_GC_MODE selects.
func lispDiffOptions(t *testing.T, k runtimeKernel) core.Options {
	t.Helper()
	opts := core.Options{Constants: k.consts}
	applyGCModeEnv(t, &opts)
	return opts
}

// lispDiffSystem compiles k's source into a fresh system in the GC
// mode S1_GC_MODE selects.
func lispDiffSystem(t *testing.T, k runtimeKernel, profile bool) *core.System {
	t.Helper()
	sys := core.NewSystem(lispDiffOptions(t, k))
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

// checkStackRegs fails the test when any system's SP or FP has left the
// stack segment or its stack is not a doubling of the initial size. Run
// after every differential run, so each GC mode checks its own frame
// paths.
func checkStackRegs(t *testing.T, systems map[string]*core.System) {
	t.Helper()
	for name, sys := range systems {
		if err := sys.Machine.CheckStackRegs(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
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
			checkStackRegs(t, map[string]*core.System{"plain": plain, "stressed": stressed})
		})
	}
}

// TestLispDifferentialFusedVsUnfused runs each kernel fused — every
// instruction in the fast form its lowering selected — and unfused,
// under -profile, which sends every instruction with a fast form through
// step's generic operand path instead, and requires the same printed
// result, machine meters and GC activity.
func TestLispDifferentialFusedVsUnfused(t *testing.T) {
	for _, k := range runtimeKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			fused := lispDiffSystem(t, k, false)
			unfused := lispDiffSystem(t, k, true)
			fv, ferr := fused.Call(k.fn, k.args...)
			uv, uerr := unfused.Call(k.fn, k.args...)
			if ferr != nil || uerr != nil {
				t.Fatalf("fused err=%v unfused err=%v", ferr, uerr)
			}
			if sexp.Print(fv) != sexp.Print(uv) {
				t.Errorf("result divergence: fused=%s unfused=%s", sexp.Print(fv), sexp.Print(uv))
			}
			if *fused.Stats() != *unfused.Stats() {
				t.Errorf("stats divergence:\n  fused:   %+v\n  unfused: %+v", *fused.Stats(), *unfused.Stats())
			}
			if fused.Machine.GCMeters != unfused.Machine.GCMeters {
				t.Errorf("GC divergence:\n  fused:   %+v\n  unfused: %+v",
					fused.Machine.GCMeters, unfused.Machine.GCMeters)
			}
			checkStackRegs(t, map[string]*core.System{"fused": fused, "unfused": unfused})
		})
	}
}

// TestLispDifferentialTierModes runs each kernel on machines that got
// their lowered stream each way a machine can: lowered as the load
// installed each body, lowered from an exported image (LoadImage), and
// copied from a template machine (LoadFrom). The image and the template
// come from a twin of the first system that never ran the kernel, and
// the three runs must agree on printed result, machine meters and GC
// activity. An image holds no nursery, so the twin and the first system
// are collected before, leaving every machine's heap all old.
func TestLispDifferentialTierModes(t *testing.T) {
	for _, k := range runtimeKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			collected := func() *core.System {
				sys := lispDiffSystem(t, k, false)
				sys.Machine.GC()
				return sys
			}
			twin := collected()
			img, err := twin.Machine.ExportImage()
			if err != nil {
				t.Fatal(err)
			}
			restored := func(load func(m *s1.Machine) error) *core.System {
				sys := core.NewSystem(lispDiffOptions(t, k))
				if err := load(sys.Machine); err != nil {
					t.Fatal(err)
				}
				return sys
			}
			modes := []struct {
				name string
				sys  *core.System
			}{
				{"installed", collected()},
				{"image", restored(func(m *s1.Machine) error { return m.LoadImage(img) })},
				{"template", restored(func(m *s1.Machine) error { return m.LoadFrom(twin.Machine) })},
			}
			var ref string
			var refStats s1.Stats
			for i, mode := range modes {
				mode.sys.Machine.GCMeters = s1.GCStats{}
				v, err := mode.sys.Call(k.fn, k.args...)
				if err != nil {
					t.Fatalf("%s: %v", mode.name, err)
				}
				checkStackRegs(t, map[string]*core.System{mode.name: mode.sys})
				got := fmt.Sprintf("%s %+v", sexp.Print(v), mode.sys.Machine.GCMeters)
				if i == 0 {
					ref, refStats = got, *mode.sys.Stats()
					continue
				}
				if got != ref {
					t.Errorf("%s result or GC divergence:\n  %s: %s\n  installed: %s", mode.name, mode.name, got, ref)
				}
				if *mode.sys.Stats() != refStats {
					t.Errorf("%s stats divergence:\n  %s: %+v\n  installed: %+v",
						mode.name, mode.name, *mode.sys.Stats(), refStats)
				}
			}
		})
	}
}

// TestProfileStableAcrossFusion runs each kernel fused and, under
// -profile, unfused: the profile's per-opcode executions and cycles
// must sum exactly to the fused run's meters.
func TestProfileStableAcrossFusion(t *testing.T) {
	for _, k := range runtimeKernels() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			fused := lispDiffSystem(t, k, false)
			profiled := lispDiffSystem(t, k, true)
			p := profiled.Machine.Profile()
			sums := func() (execs, cycles int64) {
				for op := range p.OpCount {
					execs += p.OpCount[op]
					cycles += p.OpCycles[op]
				}
				return execs, cycles
			}
			loadExecs, loadCycles := sums() // the load's top-level forms
			for _, sys := range []*core.System{fused, profiled} {
				if _, err := sys.Call(k.fn, k.args...); err != nil {
					t.Fatal(err)
				}
			}
			checkStackRegs(t, map[string]*core.System{"fused": fused, "profiled": profiled})
			execs, cycles := sums()
			execs, cycles = execs-loadExecs, cycles-loadCycles
			// specFind's probe cycles land on Stats only.
			st := fused.Stats()
			if execs != st.Instrs || cycles+2*st.SpecialSearchSteps != st.Cycles {
				t.Errorf("profile sums %d instrs / %d cycles, fused meters %d / %d (%d probe steps)",
					execs, cycles, st.Instrs, st.Cycles, st.SpecialSearchSteps)
			}
		})
	}
}

// listIdentitySrc calls the fallback primitives whose results share
// structure with their arguments, then tests that identity or mutates
// through it.
const listIdentitySrc = `
(defun id-cadr (x) (eq (cadr x) (cadr x)))
(defun id-eql (x) (eql (cadr x) (cadr x)))
(defun id-member (x) (eq (member '(2) x) (cdr x)))
(defun id-memq (x) (eq (memq (cadr x) x) (cdr x)))
(defun id-assoc (x) (eq (assoc 'b x) (cadr x)))
(defun id-assq (x) (eq (assq 'b x) (cadr x)))
(defun id-nthcdr (x) (eq (nthcdr 1 x) (cdr x)))
(defun id-nth (x) (eq (nth 1 x) (cadr x)))
(defun id-last (x) (eq (last x) (cddr x)))
(defun id-list* (x) (eq (cdr (list* 1 x)) x))
(defun id-list*1 (x) (eq (list* x) x))
(defun mut-caddr (x) (rplaca (caddr x) 99) x)
(defun mut-member (x) (rplaca (member 2 x) 20) x)
(defun mut-last (x) (rplacd (last x) (list 4)) x)
(defun mut-assq (x) (rplacd (assq 'a x) 10) x)
`

// TestLispDifferentialListIdentity compiles calls whose answer depends
// on a primitive returning the argument's own structure — eq on what
// cadr, member, assoc, nthcdr, last or list* return, rplaca through
// it — and requires the interpreter's answer (in the GC mode S1_GC_MODE
// selects). (append copies all but its last
// argument in both engines, but its result's tail is a marshaled copy
// in compiled code; DESIGN.md §10 lists it as a known difference.)
func TestLispDifferentialListIdentity(t *testing.T) {
	cases := []struct{ fn, arg string }{
		{"id-cadr", "(1 (2) 3)"},
		{"id-eql", "(1 (2) 3)"},
		{"id-member", "(1 (2) 3)"},
		{"id-memq", "(1 (2) 3)"},
		{"id-assoc", "((a . 1) (b . 2))"},
		{"id-assq", "((a . 1) (b . 2))"},
		{"id-nthcdr", "(1 2 3)"},
		{"id-nth", "((1) (2) (3))"},
		{"id-last", "(1 2 3)"},
		{"id-list*", "(2 3)"}, {"id-list*1", "(2 3)"},
		{"mut-caddr", "((1) 2 (3))"},
		{"mut-member", "(1 2 3)"},
		{"mut-last", "(1 2 3)"},
		{"mut-assq", "((a . 1) (b . 2))"},
	}
	sys := lispDiffSystem(t, runtimeKernel{src: listIdentitySrc}, false)
	for _, c := range cases {
		// Fresh arguments per engine: the mut- cases modify theirs.
		got, err := sys.Call(c.fn, mustReadValue(c.arg))
		if err != nil {
			t.Fatalf("compiled (%s '%s'): %v", c.fn, c.arg, err)
		}
		want, err := sys.Interpret(c.fn, mustReadValue(c.arg))
		if err != nil {
			t.Fatalf("interpreted (%s '%s'): %v", c.fn, c.arg, err)
		}
		if sexp.Print(got) != sexp.Print(want) {
			t.Errorf("(%s '%s') = %s compiled, %s interpreted",
				c.fn, c.arg, sexp.Print(got), sexp.Print(want))
		}
	}
	checkStackRegs(t, map[string]*core.System{"compiled": sys})
}

// symbolCellSrc reads and writes special variables through the
// symbol-value, set and boundp primitives, and spreads arguments with
// apply: compiled code must answer from the machine's own value cells
// and dynamic bindings, and spread (apply f a … lst) on the machine.
const symbolCellSrc = `
(defvar *x* 5)
(defun add3 (a b c) (+ a b c))
(defun sv () (symbol-value '*x*))
(defun bp () (list (boundp '*x*) (boundp '*nope*)))
(defun st () (progn (set '*x* 7) *x*))
(defun dyn () (let ((*x* 9)) (list (symbol-value '*x*) (progn (set '*x* 10) *x*) (boundp '*x*))))
(defun after-dyn () (list (dyn) *x* (symbol-value '*x*)))
(defun sv-unbound () (symbol-value '*nope*))
(defun ap-fn (x) (apply #'add3 1 x '(3)))
(defun ap-prim (x) (apply #'+ 1 2 x))
(defun ap-list (x) (apply #'list 'a 'b x))
(defun ap-lambda () (apply (lambda (a b c) (list c b a)) 1 2 '(3)))
(defun ap-flo (x) (apply #'list (*$f x 2.0) (+$f x 1.0) nil))
`

// TestLispDifferentialSymbolCells runs symbolCellSrc's functions
// compiled and interpreted (in the GC mode S1_GC_MODE selects), in one
// order, and requires the same printed answer or an error from both.
func TestLispDifferentialSymbolCells(t *testing.T) {
	diffCalls(t, symbolCellSrc, []diffCall{
		{"sv", ""}, {"bp", ""}, {"st", ""}, {"sv", ""},
		{"after-dyn", ""}, {"sv-unbound", ""},
		{"ap-fn", "2"}, {"ap-prim", "(3 4)"}, {"ap-list", "(c)"},
		{"ap-lambda", ""}, {"ap-flo", "1.5"},
	}, func(t *testing.T, sys *core.System, i int, c diffCall) {
		if c.fn == "sv-unbound" {
			// Everything before reads and writes cells natively; from
			// here on errors and #' stubs marshal.
			if n := sys.Stats().MarshaledPrims; n != 0 {
				t.Errorf("%d marshaled prims in the first %d cases, want 0", n, i)
			}
		}
	})
}

// shadowedPrimSrc redefines the fallback primitive reverse and calls it
// through the primitive's inline gateway while values sit in registers:
// the code generator treats the gateway as a system routine, which
// preserves the general registers, and the definition's own code
// allocates from the same ones.
const shadowedPrimSrc = `
(defun reverse (x)
  (let ((a (car x)) (b (cadr x)))
    (list (+ a b) (* a b) (- a b) (+ a 1) (+ b 1))))
(defun keep (x)
  (let ((y (* (car x) 3)) (z (+ (cadr x) 7)))
    (list y z (reverse x) y z)))
(defun keep-loop (x n acc)
  (if (= n 0) acc (keep-loop x (- n 1) (+ acc n (car (reverse x))))))
(defun keep-flo (x f)
  (let ((g (*$f f 2.0)))
    (reverse x)
    (+$f g 1.0)))
`

// TestLispDifferentialShadowedPrim runs shadowedPrimSrc compiled and
// interpreted: a value live across the gateway's
// call to the definition keeps its register.
func TestLispDifferentialShadowedPrim(t *testing.T) {
	diffCalls(t, shadowedPrimSrc, []diffCall{
		{"keep", "(2 5)"}, {"keep-loop", "(2 5) 50 0"}, {"keep-flo", "(2 5) 1.5"}, {"keep", "(4 6)"},
	}, nil)
}

// pdlEscapeSrc stores pdl numbers (§6.3: flonums stack-allocated in the
// caller's frame) into new heap objects — a cons, a list, an &rest list,
// a list* — or a special variable, or return them, each outliving the
// frame, so each number must be copied into the heap first. q and tl
// pass theirs by tail calls, which rebuild the frame over the caller's
// pdl slots; identity and (list* x) return their argument itself.
const pdlEscapeSrc = `
(defun c (f) (let ((g (*$f f 2.0))) (cons g (+$f g 1.0))))
(defun a (f) (let ((g (*$f f 2.0))) (list g (+$f g 1.0))))
(defun r (&rest xs) xs)
(defun q (f) (let ((g (*$f f 2.0))) (r g (+$f g 1.0))))
(defun qq (f) (let ((g (*$f f 2.0))) (car (r g (+$f g 1.0)))))
(defun opt (a &optional (b 0.0)) (list a b))
(defun tl (f) (let ((g (*$f f 2.0))) (opt g)))
(defun ls (f) (let ((g (*$f f 2.0))) (list* g)))
(defun ls2 (f) (let ((g (*$f f 2.0))) (list* g (+$f g 1.0) nil)))
(defun lsk (f) (let ((k (list 0))) (rplaca k (ls f)) (ls (+$f f 1.0)) k))
(defun lsr (f) (let ((g (*$f f 2.0)) (k (list 0))) (rplaca k (list* g)) k))
(defvar *esc* nil)
(defun sp (f) (let ((g (*$f f 2.0))) (setq *esc* (list* g)) nil))
(defun si (f) (let ((g (*$f f 2.0))) (setq *esc* (identity g)) nil))
(defun clob (a b c d e) (list a b c d e))
(defun spk (f)
  (sp f) (clob 1 2 3 4 5)
  (let ((x *esc*)) (si f) (clob 6 7 8 9 10) (list x *esc*)))
`

// TestLispDifferentialPdlEscape runs pdlEscapeSrc compiled and
// interpreted: the stored numbers keep their values
// after their frames are gone.
func TestLispDifferentialPdlEscape(t *testing.T) {
	diffCalls(t, pdlEscapeSrc, []diffCall{
		{"c", "1.5"}, {"a", "1.5"}, {"q", "1.5"}, {"qq", "1.5"}, {"tl", "1.5"}, {"c", "-0.25"},
		{"ls", "1.5"}, {"ls2", "1.5"}, {"lsk", "1.5"}, {"lsr", "1.5"}, {"spk", "1.5"},
	}, nil)
}

// diffCall is one call of a differential: a function and its argument
// forms, read as one list.
type diffCall struct{ fn, args string }

// diffCalls loads src into one system (in the GC mode S1_GC_MODE
// selects) and makes calls there in order, each compiled and
// interpreted, requiring the same printed answer or an error from both;
// check, when non-nil, runs before each call.
func diffCalls(t *testing.T, src string, calls []diffCall,
	check func(t *testing.T, sys *core.System, i int, c diffCall)) {
	t.Helper()
	sys := lispDiffSystem(t, runtimeKernel{src: src}, false)
	for i, c := range calls {
		if check != nil {
			check(t, sys, i, c)
		}
		args, err := sexp.ListToSlice(mustReadValue("(" + c.args + ")"))
		if err != nil {
			t.Fatal(err)
		}
		want, werr := sys.Interpret(c.fn, args...)
		got, err := sys.Call(c.fn, args...)
		switch {
		case (err == nil) != (werr == nil):
			t.Errorf("(%s %s): compiled err %v, interpreted err %v", c.fn, c.args, err, werr)
		case err == nil && sexp.Print(got) != sexp.Print(want):
			t.Errorf("(%s %s) = %s compiled, %s interpreted",
				c.fn, c.args, sexp.Print(got), sexp.Print(want))
		}
	}
	checkStackRegs(t, map[string]*core.System{"compiled": sys})
}

// kernelStatsGolden holds each runtime kernel's exact simulated counts
// for one call of its entry function.
const kernelStatsGolden = "testdata/kernel_stats.golden"

// TestLispDifferentialGoldenStats pins the absolute simulated counts —
// instructions retired, cycles, and dynamic MOVs — of every runtime
// kernel against a checked-in golden file. The counts are
// collector-independent, so the file holds in every S1_GC_MODE leg.
// After an intended codegen change, replace the file's
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
