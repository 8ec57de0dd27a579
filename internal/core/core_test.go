package core

import (
	"strings"
	"testing"

	"repro/internal/codegen"
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

func TestExptlConstantStack(t *testing.T) {
	// E3: the §2 example runs in constant stack no matter how large n is.
	sys := loadSys(t, `
(defun exptl (x n a)
  (cond ((zerop n) a)
        ((oddp n) (exptl (* x x) (floor n 2) (* a x)))
        (t (exptl (* x x) (floor n 2) a))))`)
	checkCall(t, sys, "exptl", "1024", sexp.Fixnum(2), sexp.Fixnum(10), sexp.Fixnum(1))
	sys.ResetStats()
	checkCall(t, sys, "exptl", "1152921504606846976",
		sexp.Fixnum(2), sexp.Fixnum(60), sexp.Fixnum(1))
	small := sys.Stats().MaxStack
	sys.ResetStats()
	// Bignum world: n = 400 → still constant stack.
	v, err := sys.Call("exptl", sexp.Fixnum(2), sexp.Fixnum(400), sexp.Fixnum(1))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sexp.Print(v), "258224987808690858965591917200") {
		t.Errorf("2^400 = %s", sexp.Print(v))
	}
	if sys.Stats().MaxStack > small+8 {
		t.Errorf("tail recursion must not grow the stack: %d vs %d",
			sys.Stats().MaxStack, small)
	}
}

func TestDeepTailLoop(t *testing.T) {
	sys := loadSys(t, `
(defun countdown (n acc) (if (zerop n) acc (countdown (- n 1) (+ acc 1))))`)
	sys.ResetStats()
	checkCall(t, sys, "countdown", "50000", sexp.Fixnum(50000), sexp.Fixnum(0))
	if sys.Stats().MaxStack > 64 {
		t.Errorf("tail loop stack depth = %d", sys.Stats().MaxStack)
	}
	if sys.Stats().TailCalls < 50000 {
		t.Errorf("tail calls = %d", sys.Stats().TailCalls)
	}
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

func TestPdlNumbersAvoidHeap(t *testing.T) {
	// E6: floats that must take pointer form but only flow to safe
	// operations (a user call, a let binding) stay on the stack. d and e
	// are POINTER-represented (their uses disagree: observe wants
	// pointers, max$f wants raw).
	src := `
(defun observe (a b) nil)
(defun poly (x)
  (let ((d (+$f x 1.0)) (e (*$f x x)))
    (observe d e)
    (max$f d e)))`
	sys := loadSys(t, src)
	sys.ResetStats()
	checkCall(t, sys, "poly", "4.0", sexp.Flonum(2))
	// One boxing for the argument conversion, one for the returned value.
	withPdl := sys.Stats().FlonumAllocs
	if withPdl > 2 {
		t.Errorf("pdl numbers on: %d flonum allocations (want <= 2: arg + result)", withPdl)
	}
	if c := sys.Stats().Certifies; c == 0 {
		t.Error("returned pointer should have been certified")
	}

	noPdlOpts := codegen.DefaultOptions()
	noPdlOpts.PdlNumbers = false
	sys2 := NewSystem(Options{Codegen: &noPdlOpts})
	if err := sys2.LoadString(src); err != nil {
		t.Fatal(err)
	}
	sys2.ResetStats()
	checkCall(t, sys2, "poly", "4.0", sexp.Flonum(2))
	withoutPdl := sys2.Stats().FlonumAllocs
	if withoutPdl <= withPdl {
		t.Errorf("ablation broken: with=%d without=%d", withPdl, withoutPdl)
	}
}

func TestRepAnalysisAvoidsBoxing(t *testing.T) {
	// E5: a float chain boxes once (the return) with rep analysis on.
	src := `(defun chain (x) (+$f (*$f x x) (+$f x 1.0)))`
	sys := loadSys(t, src)
	sys.ResetStats()
	checkCall(t, sys, "chain", "7.0", sexp.Flonum(2))
	on := sys.Stats().FlonumAllocs - 1 // minus the argument conversion

	off := codegen.DefaultOptions()
	off.RepAnalysis = false
	off.PdlNumbers = false
	sys2 := NewSystem(Options{Codegen: &off})
	if err := sys2.LoadString(src); err != nil {
		t.Fatal(err)
	}
	sys2.ResetStats()
	checkCall(t, sys2, "chain", "7.0", sexp.Flonum(2))
	offAllocs := sys2.Stats().FlonumAllocs
	if on > 1 {
		t.Errorf("rep analysis on: %d flonum allocs (want 1: the result)", on)
	}
	if offAllocs <= on {
		t.Errorf("rep ablation broken: on=%d off=%d", on, offAllocs)
	}
}

func TestAllPhaseCombinations(t *testing.T) {
	// E10: every phase toggle still yields a correct compiler.
	src := `
(defun work (n)
  (let ((acc 0.0))
    (dotimes (i n acc)
      (setq acc (+$f acc (sqrt$f (float (* i i))))))))`
	want := "45.0"
	for mask := 0; mask < 32; mask++ {
		opts := codegen.Options{
			UseTN:          mask&1 != 0,
			RepAnalysis:    mask&2 != 0,
			PdlNumbers:     mask&4 != 0,
			SpecialCaching: mask&8 != 0,
			Optimize:       mask&16 != 0,
		}
		sys := NewSystem(Options{Codegen: &opts})
		if err := sys.LoadString(src); err != nil {
			t.Fatalf("mask %05b: load: %v", mask, err)
		}
		v, err := sys.Call("work", sexp.Fixnum(10))
		if err != nil {
			t.Fatalf("mask %05b: %v", mask, err)
		}
		if sexp.Print(v) != want {
			t.Errorf("mask %05b: got %s want %s", mask, sexp.Print(v), want)
		}
	}
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

// TestDifferentialCompiledVsInterpreted runs a battery of programs on
// both execution engines and requires identical results.
func TestDifferentialCompiledVsInterpreted(t *testing.T) {
	type tc struct {
		src  string
		fn   string
		args [][]sexp.Value
	}
	cases := []tc{
		{`(defun f (x y) (cons (+ x y) (list x y)))`, "f",
			[][]sexp.Value{{sexp.Fixnum(1), sexp.Fixnum(2)},
				{sexp.Flonum(1.5), sexp.Fixnum(-2)}}},
		{`(defun f (n) (if (zerop n) '() (cons n (f (- n 1)))))`, "f",
			[][]sexp.Value{{sexp.Fixnum(7)}}},
		{`(defun f (a b c) (if (and a (or b c)) (list a) (list b c)))`, "f",
			[][]sexp.Value{{sexp.T, sexp.Nil, sexp.T}, {sexp.Nil, sexp.T, sexp.T},
				{sexp.T, sexp.Nil, sexp.Nil}}},
		{`(defun f (x) (let ((a (* x 2)) (b (+ x 1))) (- a b)))`, "f",
			[][]sexp.Value{{sexp.Fixnum(10)}, {sexp.Fixnum(-3)}}},
		{`(defun f (l) (do ((p l (cdr p)) (n 0 (+ n 1))) ((null p) n)))`, "f",
			[][]sexp.Value{{mustRead("(a b c d)")}, {sexp.Nil}}},
		{`(defun f (x &optional (y (* x 10))) (+ x y))`, "f",
			[][]sexp.Value{{sexp.Fixnum(5)}, {sexp.Fixnum(5), sexp.Fixnum(1)}}},
		{`(defun f (x) (caseq x (1 'one) ((2 3) 'few) (t 'many)))`, "f",
			[][]sexp.Value{{sexp.Fixnum(1)}, {sexp.Fixnum(3)}, {sexp.Fixnum(9)}}},
		{`(defun f (x) (catch 'k (if x (throw 'k 'thrown) 'normal)))`, "f",
			[][]sexp.Value{{sexp.T}, {sexp.Nil}}},
		{`(defun f (x) (expt x 7))`, "f",
			[][]sexp.Value{{sexp.Fixnum(3)}, {mustRead("1/2")}}},
		{`(defun f (s) (let ((q (sin$f s))) (+$f q q)))`, "f",
			[][]sexp.Value{{sexp.Flonum(0.5)}, {sexp.Flonum(-2.25)}}},
		{`(defun g (h) (funcall h 10))
		  (defun f (n) (g (lambda (x) (+ x n))))`, "f",
			[][]sexp.Value{{sexp.Fixnum(32)}}},
		{`(defun f (x) (apply #'+ (list x 2 3)))`, "f",
			[][]sexp.Value{{sexp.Fixnum(1)}}},
	}
	for _, c := range cases {
		sys := NewSystem(Options{})
		if err := sys.LoadString(c.src); err != nil {
			t.Errorf("load %q: %v", c.src, err)
			continue
		}
		for _, args := range c.args {
			cv, cerr := sys.Call(c.fn, args...)
			iv, ierr := sys.Interpret(c.fn, args...)
			if (cerr == nil) != (ierr == nil) {
				t.Errorf("%q %v: compiled err=%v interp err=%v", c.src, args, cerr, ierr)
				continue
			}
			if cerr != nil {
				continue
			}
			if !sexp.Equal(cv, iv) {
				t.Errorf("%q %v: compiled=%s interpreted=%s",
					c.src, args, sexp.Print(cv), sexp.Print(iv))
			}
		}
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

func TestGCSurvivesClosuresAndSpecials(t *testing.T) {
	sys := loadSys(t, `
(defvar *acc* nil)
(defun note (x) (setq *acc* (cons x *acc*)))
(defun mk (n) (lambda () n))
(defun churn2 (n)
  (let ((f (mk n)) (i 0))
    (prog ()
     loop
      (if (>= i n) (return (funcall f)) nil)
      (cons i i)
      (note i)
      (setq i (+ i 1))
      (go loop))))`)
	sys.Machine.SetGCThreshold(128)
	v, err := sys.Call("churn2", sexp.Fixnum(100))
	if err != nil {
		t.Fatal(err)
	}
	if sexp.Print(v) != "100" {
		t.Errorf("closure value = %s", sexp.Print(v))
	}
	acc, err := sys.Call("probe-acc")
	if err == nil {
		_ = acc
	}
	// Read *acc* through the machine's symbol cell.
	w := sys.Machine.Syms[sys.Machine.InternSym("*acc*")].Value
	av, err := sys.Machine.ToValue(w)
	if err != nil {
		t.Fatal(err)
	}
	if sexp.Length(av) != 100 {
		t.Errorf("*acc* length = %d", sexp.Length(av))
	}
}

func TestCSEOptionReducesWork(t *testing.T) {
	src := `
(defun g (x) (* x x))
(defun f (a b)
  (+ (* (+ a b) (+ a b)) (* (+ a b) (+ a b))))`
	plain := loadSys(t, src)
	plain.ResetStats()
	v1, err := plain.Call("f", sexp.Fixnum(3), sexp.Fixnum(4))
	if err != nil {
		t.Fatal(err)
	}
	plainCycles := plain.Stats().Cycles

	opts := codegen.DefaultOptions()
	opts.CSE = true
	cse := NewSystem(Options{Codegen: &opts})
	if err := cse.LoadString(src); err != nil {
		t.Fatal(err)
	}
	cse.ResetStats()
	v2, err := cse.Call("f", sexp.Fixnum(3), sexp.Fixnum(4))
	if err != nil {
		t.Fatal(err)
	}
	if !sexp.Equal(v1, v2) {
		t.Fatalf("CSE changed the result: %s vs %s", sexp.Print(v1), sexp.Print(v2))
	}
	if sexp.Print(v1) != "98" {
		t.Errorf("f(3,4) = %s", sexp.Print(v1))
	}
	if cse.Stats().Cycles >= plainCycles {
		t.Errorf("CSE should reduce cycles: %d vs %d",
			cse.Stats().Cycles, plainCycles)
	}
}

// TestKitchenSink combines closures, specials, catch/throw, prog loops,
// optionals, rest args, macros, arrays and the numeric world in one
// program, compiled and compared against the interpreter.
func TestKitchenSink(t *testing.T) {
	src := `
(defvar *trace* nil)
(defmacro note (x) ` + "`" + `(setq *trace* (cons ,x *trace*)))

(defun make-acc (init)
  (lambda (dx) (setq init (+ init dx)) init))

(defun walk (l f)
  (prog (out)
   loop
    (if (null l) (return (reverse out)) nil)
    (setq out (cons (funcall f (car l)) out))
    (setq l (cdr l))
    (go loop)))

(defun risky (x limit)
  (catch 'overflow
    (let ((acc (make-acc 0)))
      (walk x (lambda (v)
                (note v)
                (let ((s (funcall acc v)))
                  (if (> s limit) (throw 'overflow 'too-big) s)))))))

(defun poly2 (x &optional (a 1.0) (b 0.0))
  (+$f (*$f a (*$f x x)) (+$f (*$f b x) 1.0)))

(defun driver (&rest xs)
  (list (risky xs 9)
        (risky xs 1000)
        *trace*
        (poly2 2.0)
        (poly2 2.0 3.0 0.5)))`
	sys := loadSys(t, src)
	args := []sexp.Value{sexp.Fixnum(1), sexp.Fixnum(2), sexp.Fixnum(3), sexp.Fixnum(4)}
	cv, err := sys.Call("driver", args...)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh system for the interpreter run (shared *trace* state).
	sys2 := loadSys(t, src)
	iv, err := sys2.Interpret("driver", args...)
	if err != nil {
		t.Fatal(err)
	}
	if !sexp.Equal(cv, iv) {
		t.Fatalf("compiled %s\ninterp   %s", sexp.Print(cv), sexp.Print(iv))
	}
	want := "(too-big (1 3 6 10) (4 3 2 1 4 3 2 1) 5.0 14.0)"
	if sexp.Print(cv) != want {
		t.Errorf("driver = %s\n   want   %s", sexp.Print(cv), want)
	}
	if sys.Machine.BindingDepth() != 0 {
		t.Error("binding stack must unwind across throw")
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

// TestGCStressKeepsLiteralsAlive compiles and calls functions whose
// boxed literals and arguments exist only on the host side for a while:
// a literal is referenced by the item list until the body is installed,
// and a call argument by a Go slice until it is pushed. A collection
// before every allocation must not reclaim either, or the next literal
// reuses the block and the program computes with the wrong number.
func TestGCStressKeepsLiteralsAlive(t *testing.T) {
	src := `
(defun q1 (a b c) (- (* b b) (* 4.0 a c)))
(defun q4 (a c) (* 4.0 a c))
(defun qd () (list (q1 1.0 -3.0 2.0) (q4 1.0 2.0) (caseq 2.5 (1.5 'a) (2.5 'b) (t 'c))))`
	for _, stress := range []string{"full", "minor"} {
		sys := NewSystem(Options{GCStress: stress == "full", GCStressMinor: stress == "minor"})
		if err := sys.LoadString(src); err != nil {
			t.Fatalf("%s: load: %v", stress, err)
		}
		v, err := sys.Call("qd")
		if err != nil {
			t.Fatalf("%s: qd: %v", stress, err)
		}
		if got := sexp.Print(v); got != "(1.0 8.0 b)" {
			t.Errorf("%s stress: (qd) = %s, want (1.0 8.0 b)", stress, got)
		}
		v, err = sys.Call("q1", sexp.Flonum(1.0), sexp.Flonum(-3.0), sexp.Flonum(2.0))
		if err != nil {
			t.Fatalf("%s: q1: %v", stress, err)
		}
		if got := sexp.Print(v); got != "1.0" {
			t.Errorf("%s stress: (q1 1.0 -3.0 2.0) = %s, want 1.0", stress, got)
		}
	}
}
