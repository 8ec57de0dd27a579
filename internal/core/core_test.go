package core

import (
	"strings"
	"testing"

	"repro/internal/sexp"
)

// loadSys builds a system and loads src, failing the test on error.
func loadSys(t *testing.T, src string) *System {
	t.Helper()
	sys := NewSystem(Options{})
	if err := sys.LoadString(src); err != nil {
		t.Fatalf("load: %v", err)
	}
	return sys
}

// checkCall compares the compiled result against an expected printout.
func checkCall(t *testing.T, sys *System, fn string, want string, args ...sexp.Value) {
	t.Helper()
	v, err := sys.Call(fn, args...)
	if err != nil {
		t.Fatalf("call %s: %v", fn, err)
	}
	if got := sexp.Print(v); got != want {
		t.Errorf("(%s ...) = %s, want %s", fn, got, want)
	}
}

func TestCompiledArithmetic(t *testing.T) {
	sys := loadSys(t, `
(defun sq (x) (* x x))
(defun fsum (a b c) (+$f a (+$f b c)))
(defun isum (a b c) (+& a (+& b c)))
(defun mixed (a b) (+ (* a 2) (/ b 2.0)))`)
	checkCall(t, sys, "sq", "49", sexp.Fixnum(7))
	checkCall(t, sys, "sq", "6.25", sexp.Flonum(2.5))
	checkCall(t, sys, "fsum", "6.0", sexp.Flonum(1), sexp.Flonum(2), sexp.Flonum(3))
	checkCall(t, sys, "isum", "6", sexp.Fixnum(1), sexp.Fixnum(2), sexp.Fixnum(3))
	checkCall(t, sys, "mixed", "7.5", sexp.Fixnum(3), sexp.Fixnum(3))
}

func TestCompiledConditionals(t *testing.T) {
	sys := loadSys(t, `
(defun sign (x) (cond ((< x 0) 'neg) ((> x 0) 'pos) (t 'zero)))
(defun boolop (a b c) (if (and a (or b c)) 'one 'two))`)
	checkCall(t, sys, "sign", "neg", sexp.Fixnum(-3))
	checkCall(t, sys, "sign", "pos", sexp.Fixnum(3))
	checkCall(t, sys, "sign", "zero", sexp.Fixnum(0))
	for _, c := range []struct {
		a, b, c sexp.Value
		want    string
	}{
		{sexp.T, sexp.T, sexp.Nil, "one"},
		{sexp.T, sexp.Nil, sexp.T, "one"},
		{sexp.T, sexp.Nil, sexp.Nil, "two"},
		{sexp.Nil, sexp.T, sexp.T, "two"},
	} {
		checkCall(t, sys, "boolop", c.want, c.a, c.b, c.c)
	}
}

func TestCompiledLists(t *testing.T) {
	sys := loadSys(t, `
(defun swap (p) (cons (cdr p) (car p)))
(defun len (l) (if (null l) 0 (+ 1 (len (cdr l)))))
(defun build (n) (if (zerop n) nil (cons n (build (- n 1)))))
(defun smash (p) (rplaca p 99) p)`)
	checkCall(t, sys, "swap", "(2 . 1)", mustRead("(1 . 2)"))
	checkCall(t, sys, "len", "3", mustRead("(a b c)"))
	checkCall(t, sys, "build", "(3 2 1)", sexp.Fixnum(3))
	checkCall(t, sys, "smash", "(99 2)", mustRead("(1 2)"))
}

func TestNonTailRecursionWorks(t *testing.T) {
	sys := loadSys(t, `
(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(defun fact (n) (if (zerop n) 1 (* n (fact (- n 1)))))`)
	checkCall(t, sys, "fib", "610", sexp.Fixnum(15))
	checkCall(t, sys, "fact", "2432902008176640000", sexp.Fixnum(20))
	// Bignum promotion through the generic SQ arithmetic.
	v, err := sys.Call("fact", sexp.Fixnum(25))
	if err != nil {
		t.Fatal(err)
	}
	if sexp.Print(v) != "15511210043330985984000000" {
		t.Errorf("fact 25 = %s", sexp.Print(v))
	}
}

func TestMutualRecursion(t *testing.T) {
	sys := loadSys(t, `
(defun my-even (n) (if (zerop n) t (my-odd (- n 1))))
(defun my-odd (n) (if (zerop n) nil (my-even (- n 1))))`)
	checkCall(t, sys, "my-even", "t", sexp.Fixnum(10))
	checkCall(t, sys, "my-odd", "t", sexp.Fixnum(7))
}

func TestQuadratic(t *testing.T) {
	sys := loadSys(t, `
(defun quadratic (a b c)
  (let ((d (- (* b b) (* 4.0 a c))))
    (cond ((< d 0) '())
          ((= d 0) (list (/ (- b) (* 2.0 a))))
          (t (let ((2a (* 2.0 a)) (sd (sqrt d)))
               (list (/ (+ (- b) sd) 2a)
                     (/ (- (- b) sd) 2a)))))))`)
	checkCall(t, sys, "quadratic", "(2.0 1.0)",
		sexp.Flonum(1), sexp.Flonum(-3), sexp.Flonum(2))
	checkCall(t, sys, "quadratic", "(-1.0)",
		sexp.Flonum(1), sexp.Flonum(2), sexp.Flonum(1))
	checkCall(t, sys, "quadratic", "nil",
		sexp.Flonum(1), sexp.Flonum(0), sexp.Flonum(1))
}

func TestOptionalArguments(t *testing.T) {
	// The §7 dispatch behavior.
	sys := loadSys(t, `
(defun tf (a &optional (b 3.0) (c a)) (list a b c))`)
	checkCall(t, sys, "tf", "(1.0 3.0 1.0)", sexp.Flonum(1))
	checkCall(t, sys, "tf", "(1.0 2.0 1.0)", sexp.Flonum(1), sexp.Flonum(2))
	checkCall(t, sys, "tf", "(1.0 2.0 5.0)",
		sexp.Flonum(1), sexp.Flonum(2), sexp.Flonum(5))
	if _, err := sys.Call("tf"); err == nil {
		t.Error("zero arguments should be an error")
	}
	if _, err := sys.Call("tf", sexp.Fixnum(1), sexp.Fixnum(2), sexp.Fixnum(3), sexp.Fixnum(4)); err == nil {
		t.Error("four arguments should be an error")
	}
}

func TestRestArguments(t *testing.T) {
	sys := loadSys(t, `(defun f (a &rest r) (cons a r))`)
	checkCall(t, sys, "f", "(1 2 3)", sexp.Fixnum(1), sexp.Fixnum(2), sexp.Fixnum(3))
	checkCall(t, sys, "f", "(1)", sexp.Fixnum(1))
	if _, err := sys.Call("f"); err == nil {
		t.Error("missing required argument should error")
	}
}

func TestClosures(t *testing.T) {
	sys := loadSys(t, `
(defun make-adder (n) (lambda (x) (+ x n)))
(defun call-it (f x) (funcall f x))
(defun adder-test (k x) (call-it (make-adder k) x))
(defun make-counter ()
  (let ((n 0))
    (lambda () (setq n (+ n 1)) n)))
(defun count3 ()
  (let ((c (make-counter)))
    (funcall c) (funcall c) (funcall c)))`)
	checkCall(t, sys, "adder-test", "42", sexp.Fixnum(40), sexp.Fixnum(2))
	checkCall(t, sys, "count3", "3")
	if sys.Stats().EnvAllocs == 0 {
		t.Error("closures should allocate environments")
	}
}

func TestNestedClosureChain(t *testing.T) {
	sys := loadSys(t, `
(defun make-add3 (a)
  (lambda (b)
    (lambda (c) (+ a (+ b c)))))
(defun use-add3 (a b c)
  (funcall (funcall (make-add3 a) b) c))`)
	checkCall(t, sys, "use-add3", "6", sexp.Fixnum(1), sexp.Fixnum(2), sexp.Fixnum(3))
}

func TestSpecialVariables(t *testing.T) {
	sys := loadSys(t, `
(defvar *depth* 0)
(defun probe () *depth*)
(defun with-depth (d) (let ((*depth* d)) (probe)))
(defun bump () (setq *depth* (+ *depth* 1)) *depth*)
(defun bump-bound () (let ((*depth* 100)) (bump)))`)
	checkCall(t, sys, "probe", "0")
	checkCall(t, sys, "with-depth", "42", sexp.Fixnum(42))
	checkCall(t, sys, "probe", "0") // binding unwound
	checkCall(t, sys, "bump-bound", "101")
	checkCall(t, sys, "probe", "0") // setq hit the let binding only
	if sys.Machine.BindingDepth() != 0 {
		t.Error("binding stack should be empty")
	}
}

func TestSpecialParameter(t *testing.T) {
	sys := loadSys(t, `
(proclaim '(special dyn))
(defun reader () dyn)
(defun outer (dyn) (reader))`)
	checkCall(t, sys, "outer", "7", sexp.Fixnum(7))
}

func TestCatchThrowCompiled(t *testing.T) {
	sys := loadSys(t, `
(defun inner (x) (throw 'escape (* x 2)))
(defun outer (x) (catch 'escape (inner x) 'not-reached))
(defun no-throw () (catch 'escape 1 2))`)
	checkCall(t, sys, "outer", "14", sexp.Fixnum(7))
	checkCall(t, sys, "no-throw", "2")
	if _, err := sys.Call("inner", sexp.Fixnum(1)); err == nil {
		t.Error("uncaught throw should error")
	}
}

func TestProgLoopCompiled(t *testing.T) {
	sys := loadSys(t, `
(defun sumto (n)
  (prog (i s)
    (setq i 0 s 0)
   loop
    (if (> i n) (return s) nil)
    (setq s (+ s i) i (+ i 1))
    (go loop)))`)
	checkCall(t, sys, "sumto", "5050", sexp.Fixnum(100))
}

func TestDoLoopCompiled(t *testing.T) {
	sys := loadSys(t, `
(defun powsum (n)
  (do ((i 0 (+ i 1)) (acc 0 (+ acc (* i i))))
      ((> i n) acc)))`)
	checkCall(t, sys, "powsum", "385", sexp.Fixnum(10))
}

func TestCaseqCompiled(t *testing.T) {
	sys := loadSys(t, `
(defun kind (k) (caseq k ((1 2 3) 'small) (10 'ten) ((a b) 'letter) (t 'big)))`)
	checkCall(t, sys, "kind", "small", sexp.Fixnum(2))
	checkCall(t, sys, "kind", "ten", sexp.Fixnum(10))
	checkCall(t, sys, "kind", "letter", sexp.Intern("b"))
	checkCall(t, sys, "kind", "big", sexp.Fixnum(99))
}

func TestFloatArrays(t *testing.T) {
	sys := loadSys(t, `
(defun fill-sq (a n)
  (dotimes (i n a)
    (aset$f a (float (* i i)) i)))
(defun get1 (a i) (aref$f a i))`)
	arr := sexp.NewFloatArray([]int{5})
	v, err := sys.Call("fill-sq", arr, sexp.Fixnum(5))
	if err != nil {
		t.Fatal(err)
	}
	fa := v.(*sexp.FloatArray)
	if fa.Data[3] != 9.0 {
		t.Errorf("a[3] = %v", fa.Data[3])
	}
}

func TestTopLevelForms(t *testing.T) {
	var out strings.Builder
	sys := NewSystem(Options{Out: &out})
	err := sys.LoadString(`
(defvar *g* 5)
(defun get-g () *g*)
(setq *g* (+ *g* 1))
(print (get-g))`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "6") {
		t.Errorf("output = %q", out.String())
	}
	checkCall(t, sys, "get-g", "6")
}

func TestFallbackPrims(t *testing.T) {
	sys := loadSys(t, `
(defun rev (l) (reverse l))
(defun app (a b) (append a b))
(defun mem (x l) (member x l))`)
	checkCall(t, sys, "rev", "(3 2 1)", mustRead("(1 2 3)"))
	checkCall(t, sys, "app", "(1 2 3 4)", mustRead("(1 2)"), mustRead("(3 4)"))
	checkCall(t, sys, "mem", "(2 3)", sexp.Fixnum(2), mustRead("(1 2 3)"))
}

func TestListingAvailable(t *testing.T) {
	sys := loadSys(t, `(defun f (x) (+$f x 1.0))`)
	lst, err := sys.Listing("f")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lst, "FADD") {
		t.Errorf("listing should contain FADD:\n%s", lst)
	}
	if _, err := sys.Listing("nope"); err == nil {
		t.Error("missing function should error")
	}
	if n, err := sys.InstructionCount("f"); err != nil || n == 0 {
		t.Errorf("instruction count: %d %v", n, err)
	}
}

func TestDefmacro(t *testing.T) {
	sys := loadSys(t, "(defmacro square (x) `(* ,x ,x))\n"+
		"(defmacro my-when (p &rest body) `(if ,p (progn ,@body) nil))\n"+
		"(defun f (a) (square (+ a 1)))\n"+
		"(defun g (a) (my-when (> a 0) (square a)))")
	checkCall(t, sys, "f", "16", sexp.Fixnum(3))
	checkCall(t, sys, "g", "25", sexp.Fixnum(5))
	checkCall(t, sys, "g", "nil", sexp.Fixnum(-5))
	// Macro uses inside later macros and top-level forms work too.
	sys2 := loadSys(t, "(defmacro twice (e) `(progn ,e ,e))\n"+
		"(defvar *n* 0)\n"+
		"(defun bump () (twice (setq *n* (+ *n* 1))) *n*)")
	checkCall(t, sys2, "bump", "2")
}

func TestDefmacroErrors(t *testing.T) {
	sys := NewSystem(Options{})
	if err := sys.LoadString("(defmacro)"); err == nil {
		t.Error("(defmacro) should fail")
	}
	if err := sys.LoadString("(defmacro 3 (x) x)"); err == nil {
		t.Error("bad name should fail")
	}
	// Expansion errors surface at compile time.
	if err := sys.LoadString("(defmacro bad (x) (car 5))(defun f () (bad 1))"); err == nil {
		t.Error("expander error should surface")
	}
}

func TestGCDuringCompiledExecution(t *testing.T) {
	// Compiled code conses garbage in a loop under an aggressive auto-GC
	// threshold; results must be unaffected and the heap bounded.
	sys := loadSys(t, `
(defun churn (n)
  (let ((keep nil) (i 0))
    (prog ()
     loop
      (if (>= i n) (return keep) nil)
      (cons i i)                       ; immediate garbage
      (if (zerop (mod i 10))
          (setq keep (cons i keep))
          nil)
      (setq i (+ i 1))
      (go loop))))`)
	sys.Machine.SetGCThreshold(256)
	v, err := sys.Call("churn", sexp.Fixnum(500))
	if err != nil {
		t.Fatal(err)
	}
	if sexp.Length(v) != 50 {
		t.Errorf("kept list length = %d, want 50", sexp.Length(v))
	}
	if sexp.Print(v) != "(490 480 470 460 450 440 430 420 410 400 390 380 370 360 350 340 330 320 310 300 290 280 270 260 250 240 230 220 210 200 190 180 170 160 150 140 130 120 110 100 90 80 70 60 50 40 30 20 10 0)" {
		t.Errorf("kept = %s", sexp.Print(v))
	}
	gm := sys.Machine.GCMeters
	if gm.Collections+gm.MinorCollections == 0 {
		t.Error("auto GC should have run")
	}
	if sys.Machine.LiveHeapWords() > 4096 {
		t.Errorf("live heap = %d words", sys.Machine.LiveHeapWords())
	}
}

// mustRead parses one form, panicking on error — a test-table
// convenience; the production reader paths all return errors.
func mustRead(src string) sexp.Value {
	v, err := sexp.ReadOne(src)
	if err != nil {
		panic(err)
	}
	return v
}
