package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/sexp"
)

// faultySrc interleaves three broken units among good ones that exercise
// the gensym-bearing macro expansions (do loops, or-thunks): the image
// the survivors produce must not depend on the wrecks between them.
// bad-panic is only broken under a fault plan targeting it; without one
// it compiles fine (the filtered compile never mentions it, so the plan
// is inert there).
const faultySrc = `
(defun good-a (x) (+ x 1))
(defun bad-dotted (x) (car . x))
(defun good-b (x) (* x (good-a x)))
(defun bad-panic (x) (+ x 2))
(defun good-c (x)
  (do ((i 0 (+ i 1)) (acc 0 (+ acc (or (and (oddp i) 1) i))))
      ((> i x) acc)))
(defun good-d (l)
  (let ((n 0))
    (dolist (e l n) (setq n (+ n 1)))))
(defun bad-unreadable (x) (oops
`

// filteredSrc is faultySrc with the three broken defuns deleted — the
// reference image every recovering load must reproduce byte for byte.
const filteredSrc = `
(defun good-a (x) (+ x 1))
(defun good-b (x) (* x (good-a x)))
(defun good-c (x)
  (do ((i 0 (+ i 1)) (acc 0 (+ acc (or (and (oddp i) 1) i))))
      ((> i x) acc)))
(defun good-d (l)
  (let ((n 0))
    (dolist (e l n) (setq n (+ n 1)))))
`

// requireSameImage asserts two systems built byte-identical machine
// images: same definitions at the same indices, identical listings, and
// an identical full code image.
func requireSameImage(t *testing.T, want, got *System) {
	t.Helper()
	if len(want.Defs) != len(got.Defs) {
		t.Fatalf("def count %d, want %d", len(got.Defs), len(want.Defs))
	}
	for name, idx := range want.Defs {
		gidx, ok := got.Defs[name]
		if !ok {
			t.Fatalf("missing definition %s", name)
		}
		if gidx != idx {
			t.Errorf("%s: function index %d, want %d", name, gidx, idx)
		}
		wl, err := want.Listing(name)
		if err != nil {
			t.Fatal(err)
		}
		gl, err := got.Listing(name)
		if err != nil {
			t.Fatal(err)
		}
		if wl != gl {
			t.Errorf("%s: listings differ\n--- want ---\n%s\n--- got ---\n%s", name, wl, gl)
		}
	}
	if len(want.Machine.Code) != len(got.Machine.Code) {
		t.Fatalf("code image length %d, want %d", len(got.Machine.Code), len(want.Machine.Code))
	}
	for i := range want.Machine.Code {
		if want.Machine.Code[i] != got.Machine.Code[i] {
			t.Fatalf("code image differs at instruction %d", i)
		}
	}
}

// TestBadUnitsYieldDiagnosticsAndFilteredImage is the acceptance
// contract of error recovery: k broken defuns among good ones produce
// exactly k error diagnostics (each positioned), and the machine image
// is byte-identical to compiling the source with the broken forms
// deleted — at Jobs 1 and Jobs 8 alike.
func TestBadUnitsYieldDiagnosticsAndFilteredImage(t *testing.T) {
	plan, err := diag.ParsePlan("optimize:defun=bad-panic:panic")
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 8} {
		ref := NewSystem(Options{Jobs: jobs, Fault: plan})
		if err := ref.LoadString(filteredSrc); err != nil {
			t.Fatalf("jobs=%d: filtered load: %v", jobs, err)
		}
		sys := NewSystem(Options{Jobs: jobs, Fault: plan})
		list := sys.LoadStringDiag(faultySrc)
		if got := list.Errors(); got != 3 {
			t.Fatalf("jobs=%d: %d error diagnostics, want 3:\n%v", jobs, got, list)
		}
		units := map[string]bool{}
		for _, d := range list.All() {
			if d.Line <= 0 || d.Col <= 0 {
				t.Errorf("jobs=%d: diagnostic lacks a position: %v", jobs, d)
			}
			units[d.Unit] = true
		}
		if !units["bad-dotted"] || !units["bad-panic"] {
			t.Errorf("jobs=%d: diagnostics name units %v", jobs, units)
		}
		requireSameImage(t, ref, sys)
		// The survivors run.
		v, err := sys.Call("good-c", sexp.Fixnum(6))
		if err != nil {
			t.Fatalf("jobs=%d: good-c: %v", jobs, err)
		}
		if sexp.Print(v) != "15" {
			t.Errorf("jobs=%d: good-c = %s", jobs, sexp.Print(v))
		}
	}
}

// TestInjectedPanicCarriesPhaseAndWorker: under a parallel load, a unit
// panicking in the optimizer must surface as a diagnostic naming the
// phase, the unit, a pool worker, and the unit's tree — and must not
// take any other unit down.
func TestInjectedPanicCarriesPhaseAndWorker(t *testing.T) {
	plan, err := diag.ParsePlan("optimize:defun=sq:panic")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(Options{Jobs: 8, Fault: plan})
	list := sys.LoadStringDiag(corpusSrc)
	if list.Errors() != 1 {
		t.Fatalf("errors = %d, want 1:\n%v", list.Errors(), list)
	}
	var d *diag.Diagnostic
	for _, e := range list.All() {
		if e.Severity == diag.Error {
			d = e
		}
	}
	if d.Unit != "sq" || d.Phase != "optimize" {
		t.Errorf("diagnostic unit/phase = %s/%s", d.Unit, d.Phase)
	}
	if d.Worker < 1 {
		t.Errorf("worker = %d, want a pool id >= 1", d.Worker)
	}
	if !strings.Contains(d.Msg, "injected panic") || !strings.Contains(d.Msg, "in (lambda") {
		t.Errorf("message lacks panic text or tree context: %q", d.Msg)
	}
	// Everything else compiled and runs.
	if _, ok := sys.Defs["sq"]; ok {
		t.Error("failed unit was installed")
	}
	checkCall(t, sys, "tak", "7", sexp.Fixnum(14), sexp.Fixnum(7), sexp.Fixnum(0))
}

// TestInjectedErrorFault: the error kind fails the unit without a panic.
func TestInjectedErrorFault(t *testing.T) {
	plan, err := diag.ParsePlan("binding:defun=f:error")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(Options{Fault: plan})
	list := sys.LoadStringDiag("(defun f (x) x)\n(defun g (x) (* x x))")
	if list.Errors() != 1 {
		t.Fatalf("errors = %d, want 1:\n%v", list.Errors(), list)
	}
	d := list.All()[0]
	if d.Unit != "f" || d.Phase != "binding" {
		t.Errorf("unit/phase = %s/%s", d.Unit, d.Phase)
	}
	checkCall(t, sys, "g", "49", sexp.Fixnum(7))
}

// TestMaxErrorsCapCountsButStopsStoring: failures past the cap are
// counted (and fail the load) without being stored.
func TestMaxErrorsCapCountsButStopsStoring(t *testing.T) {
	sys := NewSystem(Options{MaxErrors: 2})
	list := sys.LoadStringDiag(`
(defun b1 (x) (car . x))
(defun b2 (x) (car . x))
(defun b3 (x) (car . x))
(defun b4 (x) (car . x))
(defun ok (x) x)`)
	if list.Errors() != 4 {
		t.Fatalf("errors = %d, want 4", list.Errors())
	}
	if list.Len() != 2 {
		t.Errorf("stored = %d, want 2", list.Len())
	}
	if list.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", list.Dropped())
	}
	if _, ok := sys.Defs["ok"]; !ok {
		t.Error("units past the cap must still compile")
	}
	if !strings.Contains(list.Error(), "past -max-errors") {
		t.Errorf("summary lacks drop note: %q", list.Error())
	}
}

// TestRuntimeErrorInToplevelIsDiagnosed: a top-level form that fails at
// run time yields a positioned "run" diagnostic, later forms still
// execute, and the system remains usable — the REPL contract.
func TestRuntimeErrorInToplevelIsDiagnosed(t *testing.T) {
	sys := NewSystem(Options{})
	v, list := sys.EvalStringDiag(`
(defun id (x) x)
(car (id 5))
(+ 20 22)`)
	if list.Errors() != 1 {
		t.Fatalf("errors = %d, want 1:\n%v", list.Errors(), list)
	}
	d := list.All()[0]
	if d.Phase != "run" || d.Line != 3 {
		t.Errorf("phase/line = %s/%d, want run/3", d.Phase, d.Line)
	}
	if sexp.Print(v) != "42" {
		t.Errorf("later form's value = %s, want 42", sexp.Print(v))
	}
	if w, err := sys.EvalString("(+ 1 2)"); err != nil || sexp.Print(w) != "3" {
		t.Errorf("system unusable after runtime error: %v %v", w, err)
	}
}

// TestStepLimitGuard: -max-steps turns a runaway program into a
// RuntimeError instead of a hang.
func TestStepLimitGuard(t *testing.T) {
	sys := NewSystem(Options{MaxSteps: 20_000})
	if err := sys.LoadString("(defun spin (x) (spin x))"); err != nil {
		t.Fatal(err)
	}
	_, err := sys.Call("spin", sexp.Fixnum(1))
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v, want step limit", err)
	}
}

// TestHeapLimitGuard: under -max-heap, unbounded retained allocation
// fails with a heap-exhausted RuntimeError after a forced GC — while a
// workload whose garbage collects back under the limit keeps running.
func TestHeapLimitGuard(t *testing.T) {
	sys := NewSystem(Options{MaxHeapWords: 4_000})
	if err := sys.LoadString(`
(defun retain (n acc) (if (zerop n) acc (retain (- n 1) (cons n acc))))
(defun churn (n) (if (zerop n) 'done (progn (cons 1 2) (churn (- n 1)))))`); err != nil {
		t.Fatal(err)
	}
	// Garbage-heavy but low-residency: must survive far more allocation
	// than the limit, by collecting.
	if _, err := sys.Call("churn", sexp.Fixnum(5_000)); err != nil {
		t.Fatalf("churn under limit: %v", err)
	}
	_, err := sys.Call("retain", sexp.Fixnum(5_000), sexp.Nil)
	if err == nil || !strings.Contains(err.Error(), "heap exhausted") {
		t.Fatalf("err = %v, want heap exhausted", err)
	}
	// The machine recovered: it still runs.
	if _, err := sys.Call("churn", sexp.Fixnum(10)); err != nil {
		t.Fatalf("machine unusable after heap fault: %v", err)
	}
}

// TestOptimizerWatchdog: an absurdly small budget trips on every unit,
// failing it with a watchdog diagnostic instead of hanging the load.
func TestOptimizerWatchdog(t *testing.T) {
	sys := NewSystem(Options{OptWatchdog: time.Nanosecond})
	list := sys.LoadStringDiag("(defun w (x) (+ x 1))")
	if list.Errors() != 1 {
		t.Fatalf("errors = %d, want 1:\n%v", list.Errors(), list)
	}
	if !strings.Contains(list.All()[0].Msg, "watchdog") {
		t.Errorf("message = %q, want watchdog", list.All()[0].Msg)
	}
}

// TestMacroExpansionFailuresAreDiagnostics: every way an expansion can
// go wrong costs its unit one diagnostic and leaves the rest of the load
// compiled — an expander error, a result that contains itself through
// its car (which converting back to a host value must refuse, not
// recurse on), and a macro that expands to a call of itself.
func TestMacroExpansionFailuresAreDiagnostics(t *testing.T) {
	sys := NewSystem(Options{})
	list := sys.LoadStringDiag(`
(defmacro bad () (car 5))
(defmacro loopy () (let ((x (list 1))) (rplaca x x) x))
(defmacro again () '(again))
(defun a () (bad))
(defun b () (loopy))
(defun c () (again))
(defun ok () 7)`)
	want := map[string]string{"a": "expand", "b": "expand", "c": "convert"}
	for _, d := range list.All() {
		if phase, ok := want[d.Unit]; ok && d.Phase == phase {
			delete(want, d.Unit)
		} else {
			t.Errorf("unexpected diagnostic %v", d)
		}
	}
	if len(want) != 0 {
		t.Errorf("no diagnostic for %v in %v", want, list)
	}
	if v, err := sys.Call("ok"); err != nil || sexp.Print(v) != "7" {
		t.Errorf("(ok) = %v, %v", v, err)
	}
}

// TestMacroExpanderUnreachable: an expander lives in the machine's name
// table under a name the reader cannot produce, with no symbol cell, so
// a defun spelled like it is a different function and the macro still
// expands.
func TestMacroExpanderUnreachable(t *testing.T) {
	sys := NewSystem(Options{})
	if err := sys.LoadString(`(defmacro m () 1) (defun |macro m 0| () 2) (defun g () (m))`); err != nil {
		t.Fatal(err)
	}
	name := expanderName(sexp.Intern("m"), 0)
	if idx := sys.Machine.FuncNamed(name); idx < 0 || idx == sys.Defs["macro m 0"] {
		t.Fatalf("expander %q at %d, defun at %d", name, idx, sys.Defs["macro m 0"])
	}
	for _, c := range sys.Machine.Syms {
		if c.Name == name {
			t.Errorf("expander %q has a symbol cell", name)
		}
	}
	for _, src := range []string{name, "|" + name + "|", strings.Trim(name, "|")} {
		if v, err := sexp.ReadOne(src); err == nil {
			if sym, ok := v.(*sexp.Symbol); ok && sym.Name == name {
				t.Errorf("%q reads as the expander's name", src)
			}
		}
	}
	if v, err := sys.Call("g"); err != nil || sexp.Print(v) != "1" {
		t.Errorf("(g) = %v, %v", v, err)
	}
}

// TestMacroGensymHygiene: a symbol an expander makes with gensym goes
// through the machine and comes back as that same uninterned symbol, so
// the swap idiom cannot capture a user variable spelled like its
// temporary, and two expansions' gensyms stay distinct, also on a
// system restored from a snapshot.
func TestMacroGensymHygiene(t *testing.T) {
	sys := NewSystem(Options{})
	if err := sys.LoadString(`
(defmacro swap (a b)
  (let ((tmp (gensym)))
    (list 'let (list (list tmp a)) (list 'setq a b) (list 'setq b tmp))))
(defmacro fresh () (let ((g (gensym))) (list 'list (list 'quote g) (list 'quote g))))
(defun twice () (list (fresh) (fresh)))`); err != nil {
		t.Fatal(err)
	}
	// The next gensym is swap's temporary: give the user's variable its
	// name.
	n, err := strconv.Atoi(strings.TrimPrefix(sexp.Gensym("g").Name, "g"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadString(fmt.Sprintf(`(defun sw (g%[1]d y) (swap g%[1]d y) (list g%[1]d y))`, n+1)); err != nil {
		t.Fatal(err)
	}
	if v, err := sys.Call("sw", sexp.Fixnum(1), sexp.Fixnum(2)); err != nil || sexp.Print(v) != "(2 1)" {
		t.Errorf("(sw 1 2) = %s, %v; want (2 1)", sexp.Print(v), err)
	}
	check := func(what string, sys *System) {
		t.Helper()
		v, err := sys.Call("twice")
		if err != nil {
			t.Fatal(err)
		}
		syms, _ := sexp.ListToSlice(v)
		var got [4]*sexp.Symbol
		for i, s := range syms {
			pair, _ := sexp.ListToSlice(s)
			for j, g := range pair {
				got[2*i+j], _ = g.(*sexp.Symbol)
			}
		}
		if got[0] == nil || got[2] == nil || got[0] != got[1] || got[2] != got[3] || got[0] == got[2] ||
			got[0].Interned() || got[2].Interned() {
			t.Errorf("%s: (twice) = %s: want two distinct uninterned symbols, each twice", what, sexp.Print(v))
		}
	}
	check("cold", sys)
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSystem(Options{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	check("restored", restored)
}

// TestImageHashIgnoresGensymHistory: a load whose expansions quote
// gensyms gets the same image fingerprint and allocator context however
// many symbols the process gensym'd before, and so does its restore.
func TestImageHashIgnoresGensymHistory(t *testing.T) {
	const src = `(defmacro fresh () (list 'quote (gensym))) (defun f () (list (fresh) (fresh)))`
	load := func() (*System, string) {
		sys := NewSystem(Options{})
		if err := sys.LoadString(src); err != nil {
			t.Fatal(err)
		}
		v, err := sys.Call("f")
		if err != nil {
			t.Fatal(err)
		}
		return sys, sexp.Print(v)
	}
	a, aNames := load()
	b, bNames := load()
	if aNames == bNames {
		t.Fatalf("both loads quote %s: the gensym counter did not advance", aNames)
	}
	if fa, fb := a.Machine.ImageFingerprint(), b.Machine.ImageFingerprint(); fa != fb {
		t.Errorf("image fingerprint depends on gensym history: %s (%s) vs %s (%s)", fa, aNames, fb, bNames)
	}
	if ca, cb := a.Machine.AllocContext(), b.Machine.AllocContext(); ca != cb {
		t.Errorf("allocator context depends on gensym history: %s vs %s", ca, cb)
	}
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSystem(Options{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fr := a.Machine.ImageFingerprint(), restored.Machine.ImageFingerprint(); fa != fr {
		t.Errorf("restored fingerprint %s, cold %s", fr, fa)
	}
	if ca, cr := a.Machine.AllocContext(), restored.Machine.AllocContext(); ca != cr {
		t.Errorf("restored allocator context %s, cold %s", cr, ca)
	}
}
