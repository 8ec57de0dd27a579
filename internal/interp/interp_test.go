package interp

import (
	"strings"
	"testing"

	"repro/internal/convert"
	"repro/internal/sexp"
)

// ev evaluates a whole source and returns the printed last value.
func ev(t *testing.T, src string) string {
	t.Helper()
	v, err := EvalSource(src)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return sexp.Print(v)
}

func evErr(t *testing.T, src string) error {
	t.Helper()
	_, err := EvalSource(src)
	if err == nil {
		t.Fatalf("eval %q should fail", src)
	}
	return err
}

func TestSelfEvaluating(t *testing.T) {
	cases := [][2]string{
		{"42", "42"}, {"3.5", "3.5"}, {`"hi"`, `"hi"`},
		{"t", "t"}, {"nil", "nil"}, {"'foo", "foo"}, {"'(1 2)", "(1 2)"},
	}
	for _, c := range cases {
		if got := ev(t, c[0]); got != c[1] {
			t.Errorf("%s = %s, want %s", c[0], got, c[1])
		}
	}
}

func TestArithmetic(t *testing.T) {
	cases := [][2]string{
		{"(+ 1 2 3)", "6"},
		{"(+)", "0"},
		{"(* 2 3 4)", "24"},
		{"(- 10 1 2)", "7"},
		{"(- 5)", "-5"},
		{"(/ 1 3)", "1/3"},
		{"(/ 2.0)", "0.5"},
		{"(1+ 5)", "6"},
		{"(min 3 1 2)", "1"},
		{"(max 3 1 4.5)", "4.5"},
		{"(abs -3)", "3"},
		{"(floor 7 2)", "3"},
		{"(floor -7 2)", "-4"},
		{"(ceiling 7 2)", "4"},
		{"(truncate -7 2)", "-3"},
		{"(round 7 2)", "4"},
		{"(mod -7 3)", "2"},
		{"(rem -7 3)", "-1"},
		{"(expt 2 10)", "1024"},
		{"(expt 2 -2)", "1/4"},
		{"(expt 2.0 0.5)", "1.4142135623730951"},
		{"(gcd 12 18)", "6"},
		{"(< 1 2 3)", "t"},
		{"(< 1 3 2)", "nil"},
		{"(= 2 2.0)", "t"},
		{"(/= 1 2)", "t"},
		{"(sqrt 4.0)", "2.0"},
	}
	for _, c := range cases {
		if got := ev(t, c[0]); got != c[1] {
			t.Errorf("%s = %s, want %s", c[0], got, c[1])
		}
	}
}

func TestTypeSpecificOps(t *testing.T) {
	cases := [][2]string{
		{"(+$f 1.5 2.5)", "4.0"},
		{"(*$f 3.0 2.0)", "6.0"},
		{"(max$f 1.0 2.0)", "2.0"},
		{"(+$f 1.5 2.5 3.0)", "7.0"}, // n-ary, as the compiler takes them
		{"(min$f 4.0 2.0 3.0)", "2.0"},
		{"(sqrt$f 9.0)", "3.0"},
		{"(<$f 1.0 2.0)", "t"},
		{"(+& 2 3)", "5"},
		{"(*& 4 5)", "20"},
		{"(1+& 1)", "2"},
		{"(<& 1 2)", "t"},
		{"(float 3)", "3.0"},
		{"(fix 3.7)", "3"},
	}
	for _, c := range cases {
		if got := ev(t, c[0]); got != c[1] {
			t.Errorf("%s = %s, want %s", c[0], got, c[1])
		}
	}
	// Type-specific operators reject wrong representations.
	evErr(t, "(+$f 1 2)")
	evErr(t, "(+& 1.0 2.0)")
	evErr(t, "(/& 1 0)")
}

func TestSincIsCycleSine(t *testing.T) {
	// sinc$f(x/2pi) == sin$f(x): the §7 transformation's correctness
	// condition.
	got := ev(t, "(sinc$f (*$f 0.15915494309189535 2.0))")
	want := ev(t, "(sin$f 2.0)")
	if got != want {
		t.Errorf("sinc$f identity: %s vs %s", got, want)
	}
}

func TestListOps(t *testing.T) {
	cases := [][2]string{
		{"(cons 1 2)", "(1 . 2)"},
		{"(car '(1 2))", "1"},
		{"(cdr '(1 2))", "(2)"},
		{"(car nil)", "nil"},
		{"(cadr '(1 2 3))", "2"},
		{"(caddr '(1 2 3))", "3"},
		{"(list 1 2 3)", "(1 2 3)"},
		{"(list* 1 2 '(3))", "(1 2 3)"},
		{"(append '(1) '(2 3) '(4))", "(1 2 3 4)"},
		{"(reverse '(1 2 3))", "(3 2 1)"},
		{"(length '(a b c))", "3"},
		{"(nth 1 '(a b c))", "b"},
		{"(nthcdr 2 '(a b c))", "(c)"},
		{"(nthcdr 9223372036854775807 '(a b c))", "nil"}, // stops at nil
		{"(nth 9223372036854775807 '(a b c))", "nil"},
		{"(last '(a b c))", "(c)"},
		{"(assq 'b '((a 1) (b 2)))", "(b 2)"},
		{"(memq 'b '(a b c))", "(b c)"},
		{"(member '(1) '((0) (1)))", "((1))"},
		{"(rplaca (cons 1 2) 9)", "(9 . 2)"},
		{"(rplacd (cons 1 2) 9)", "(1 . 9)"},
	}
	for _, c := range cases {
		if got := ev(t, c[0]); got != c[1] {
			t.Errorf("%s = %s, want %s", c[0], got, c[1])
		}
	}
}

func TestPredicates(t *testing.T) {
	cases := [][2]string{
		{"(atom 1)", "t"}, {"(atom '(1))", "nil"},
		{"(consp '(1))", "t"}, {"(consp nil)", "nil"},
		{"(listp nil)", "t"}, {"(listp '(1))", "t"}, {"(listp 1)", "nil"},
		{"(null nil)", "t"}, {"(not 3)", "nil"},
		{"(symbolp 'a)", "t"}, {"(symbolp 1)", "nil"},
		{"(numberp 1/2)", "t"}, {"(integerp 3)", "t"}, {"(integerp 3.0)", "nil"},
		{"(floatp 3.0)", "t"}, {"(stringp \"s\")", "t"},
		{"(functionp #'car)", "t"}, {"(functionp 3)", "nil"},
		{"(eq 'a 'a)", "t"},
		{"(eql 3 3)", "t"}, {"(eql 3 3.0)", "nil"},
		{"(equal '(1 2) '(1 2))", "t"},
		{"(zerop 0)", "t"}, {"(oddp 3)", "t"}, {"(evenp 3)", "nil"},
		{"(plusp 1/2)", "t"}, {"(minusp -1)", "t"},
	}
	for _, c := range cases {
		if got := ev(t, c[0]); got != c[1] {
			t.Errorf("%s = %s, want %s", c[0], got, c[1])
		}
	}
}

func TestLexicalScoping(t *testing.T) {
	cases := [][2]string{
		{"(let ((x 1)) x)", "1"},
		{"(let ((x 1)) (let ((x 2)) x))", "2"},
		{"(let ((x 1)) (let ((x 2)) nil) x)", "1"},
		{"(let* ((x 1) (y (+ x 1))) y)", "2"},
		{"((lambda (x y) (+ x y)) 3 4)", "7"},
		{"(let ((x 1)) (setq x 5) x)", "5"},
	}
	for _, c := range cases {
		if got := ev(t, c[0]); got != c[1] {
			t.Errorf("%s = %s, want %s", c[0], got, c[1])
		}
	}
}

func TestClosuresCapture(t *testing.T) {
	// Returning a function closes over its environment — the reason
	// "sometimes environment structures must be heap-allocated".
	src := `
(defun make-adder (n) (lambda (x) (+ x n)))
(defun compose (f g) (lambda (x) (funcall f (funcall g x))))
(funcall (compose (make-adder 1) (make-adder 10)) 100)`
	if got := ev(t, src); got != "111" {
		t.Errorf("closure composition = %s", got)
	}
	// Shared mutable capture.
	src2 := `
(defun make-counter ()
  (let ((n 0))
    (lambda () (setq n (+ n 1)) n)))
(let ((c (make-counter)))
  (funcall c) (funcall c) (funcall c))`
	if got := ev(t, src2); got != "3" {
		t.Errorf("counter = %s", got)
	}
}

func TestOptionalDefaults(t *testing.T) {
	// The paper's testfn parameter behavior (§7).
	src := `
(defun tf (a &optional (b 3.0) (c a)) (list a b c))
(list (tf 1.0) (tf 1.0 2.0) (tf 1.0 2.0 5.0))`
	want := "((1.0 3.0 1.0) (1.0 2.0 1.0) (1.0 2.0 5.0))"
	if got := ev(t, src); got != want {
		t.Errorf("optionals = %s, want %s", got, want)
	}
}

func TestRestParameter(t *testing.T) {
	src := `(defun f (a &rest r) (cons a r)) (f 1 2 3)`
	if got := ev(t, src); got != "(1 2 3)" {
		t.Errorf("rest = %s", got)
	}
	if got := ev(t, `(defun g (&rest r) r) (g)`); got != "nil" {
		t.Errorf("empty rest = %s", got)
	}
}

func TestArgCountChecking(t *testing.T) {
	evErr(t, "(defun f (a b) a) (f 1)")
	evErr(t, "(defun f (a) a) (f 1 2)")
	evErr(t, "(car 1 2)")
}

func TestExptlTailRecursionConstantStack(t *testing.T) {
	// §2: "it cannot produce stack overflow no matter how large n is".
	// Interpreted via the tail loop; a million iterations would overflow
	// Go's stack if calls recursed.
	src := `
(defun iter (i acc) (if (zerop i) acc (iter (- i 1) (+ acc 1))))
(iter 1000000 0)`
	if got := ev(t, src); got != "1000000" {
		t.Errorf("iter = %s", got)
	}
}

func TestExptl(t *testing.T) {
	// The paper's §2 example: compute a*x^n by repeated squaring.
	src := `
(defun exptl (x n a)
  (cond ((zerop n) a)
        ((oddp n) (exptl (* x x) (floor n 2) (* a x)))
        (t (exptl (* x x) (floor n 2) a))))
(exptl 2 62 1)`
	if got := ev(t, src); got != "4611686018427387904" {
		t.Errorf("exptl = %s", got)
	}
}

func TestQuadratic(t *testing.T) {
	src := `
(defun quadratic (a b c)
  (let ((d (- (* b b) (* 4.0 a c))))
    (cond ((< d 0) '())
          ((= d 0) (list (/ (- b) (* 2.0 a))))
          (t (let ((2a (* 2.0 a)) (sd (sqrt d)))
               (list (/ (+ (- b) sd) 2a)
                     (/ (- (- b) sd) 2a)))))))
(list (quadratic 1.0 -3.0 2.0) (quadratic 1.0 2.0 1.0) (quadratic 1.0 0.0 1.0))`
	want := "((2.0 1.0) (-1.0) nil)"
	if got := ev(t, src); got != want {
		t.Errorf("quadratic = %s, want %s", got, want)
	}
}

func TestSpecialVariablesDeepBinding(t *testing.T) {
	// A routine refers to variables bound by its caller.
	src := `
(proclaim '(special depth))
(defun probe () depth)
(defun outer (depth) (probe))
(outer 42)`
	if got := ev(t, src); got != "42" {
		t.Errorf("dynamic scope = %s", got)
	}
	// Bindings unwind.
	src2 := `
(defvar *d* 0)
(defun probe () *d*)
(defun with (x) (let ((*d* x)) (probe)))
(list (with 1) (probe))`
	if got := ev(t, src2); got != "(1 0)" {
		t.Errorf("unwind = %s", got)
	}
}

func TestSpecialSetqAffectsCurrentBinding(t *testing.T) {
	src := `
(defvar *v* 1)
(defun bump () (setq *v* (+ *v* 10)) *v*)
(let ((*v* 100)) (bump))`
	if got := ev(t, src); got != "110" {
		t.Errorf("setq of bound special = %s", got)
	}
	// Outer value untouched.
	src2 := src + " *v*"
	if got := ev(t, src2); got != "1" {
		t.Errorf("outer special = %s", got)
	}
}

func TestUnboundVariable(t *testing.T) {
	err := evErr(t, "completely-unbound-xyz")
	if !strings.Contains(err.Error(), "unbound") {
		t.Errorf("error = %v", err)
	}
}

func TestProgGoReturn(t *testing.T) {
	src := `
(prog (i acc)
  (setq i 0 acc 1)
 loop
  (if (>= i 5) (return acc) nil)
  (setq acc (* acc 2))
  (setq i (+ i 1))
  (go loop))`
	if got := ev(t, src); got != "32" {
		t.Errorf("prog loop = %s", got)
	}
	// Falling off the end yields nil.
	if got := ev(t, "(prog () 1 2)"); got != "nil" {
		t.Errorf("prog fallthrough = %s", got)
	}
}

func TestDoLoops(t *testing.T) {
	cases := [][2]string{
		{"(do ((i 0 (+ i 1)) (s 0 (+ s i))) ((= i 5) s))", "10"},
		{"(do* ((i 0 (+ i 1)) (s 0 (+ s i))) ((= i 5) s))", "15"},
		{"(dotimes (i 4 i) nil)", "4"},
		{"(let ((s 0)) (dotimes (i 5) (setq s (+ s i))) s)", "10"},
		{"(let ((s nil)) (dolist (x '(1 2 3) s) (setq s (cons x s))))", "(3 2 1)"},
	}
	for _, c := range cases {
		if got := ev(t, c[0]); got != c[1] {
			t.Errorf("%s = %s, want %s", c[0], got, c[1])
		}
	}
}

func TestCatchThrow(t *testing.T) {
	cases := [][2]string{
		{"(catch 'done (throw 'done 42) 1)", "42"},
		{"(catch 'done 1 2)", "2"},
		{"(catch 'a (catch 'b (throw 'a 7)))", "7"},
	}
	for _, c := range cases {
		if got := ev(t, c[0]); got != c[1] {
			t.Errorf("%s = %s, want %s", c[0], got, c[1])
		}
	}
	err := evErr(t, "(throw 'nobody 1)")
	if !strings.Contains(err.Error(), "uncaught") {
		t.Errorf("uncaught throw error = %v", err)
	}
}

func TestCaseq(t *testing.T) {
	src := `(defun kind (k) (caseq k ((1 2 3) 'small) (10 'ten) (t 'big)))
	        (list (kind 2) (kind 10) (kind 99))`
	if got := ev(t, src); got != "(small ten big)" {
		t.Errorf("caseq = %s", got)
	}
	if got := ev(t, "(caseq 9 (1 'a))"); got != "nil" {
		t.Errorf("caseq no default = %s", got)
	}
}

func TestArrays(t *testing.T) {
	cases := [][2]string{
		{"(let ((a (make-array 3 0))) (aset a 7 1) (aref a 1))", "7"},
		{"(let ((a (make-array '(2 2) 0))) (aset a 5 1 1) (aref a 1 1))", "5"},
		{"(let ((a (make-float-array '(2 2)))) (aset$f a 1.5 0 1) (aref$f a 0 1))", "1.5"},
		{"(array-dimensions (make-array '(2 3) nil))", "(2 3)"},
		{"(let ((a (make-float-array 4))) (aref a 0))", "0.0"},
	}
	for _, c := range cases {
		if got := ev(t, c[0]); got != c[1] {
			t.Errorf("%s = %s, want %s", c[0], got, c[1])
		}
	}
	evErr(t, "(aref (make-array 2 0) 5)")
	evErr(t, "(aref (make-array '(2 2) 0) 1)")
}

func TestApplyAndFuncall(t *testing.T) {
	cases := [][2]string{
		{"(apply #'+ '(1 2 3))", "6"},
		{"(apply #'+ 1 2 '(3 4))", "10"},
		{"(funcall #'cons 1 2)", "(1 . 2)"},
		{"(funcall (lambda (x) (* x x)) 5)", "25"},
	}
	for _, c := range cases {
		if got := ev(t, c[0]); got != c[1] {
			t.Errorf("%s = %s, want %s", c[0], got, c[1])
		}
	}
}

func TestSymbolValueSetBoundp(t *testing.T) {
	src := `(set 'g1 10) (list (symbol-value 'g1) (boundp 'g1) (boundp 'g2))`
	if got := ev(t, src); got != "(10 t nil)" {
		t.Errorf("symbol-value = %s", got)
	}
}

func TestOutput(t *testing.T) {
	forms, err := sexp.ReadAll(`(princ "hello") (terpri) (prin1 '(1 2))`)
	if err != nil {
		t.Fatal(err)
	}
	c := convert.New()
	p, err := c.ConvertTopLevel(forms)
	if err != nil {
		t.Fatal(err)
	}
	in := New()
	var buf strings.Builder
	in.Out = &buf
	if _, err := in.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "hello\n(1 2)" {
		t.Errorf("output = %q", buf.String())
	}
}

func TestMutualRecursion(t *testing.T) {
	src := `
(defun my-even (n) (if (zerop n) t (my-odd (- n 1))))
(defun my-odd (n) (if (zerop n) nil (my-even (- n 1))))
(list (my-even 10) (my-odd 7))`
	if got := ev(t, src); got != "(t t)" {
		t.Errorf("mutual recursion = %s", got)
	}
}

func TestFib(t *testing.T) {
	src := `
(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(fib 15)`
	if got := ev(t, src); got != "610" {
		t.Errorf("fib = %s", got)
	}
}

func TestStatsCounters(t *testing.T) {
	forms, _ := sexp.ReadAll("(defun f (x) (cons x nil)) (f 1) (f 2)")
	c := convert.New()
	p, _ := c.ConvertTopLevel(forms)
	in := New()
	if _, err := in.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	if in.Stats.Calls < 2 {
		t.Errorf("calls = %d", in.Stats.Calls)
	}
	if in.Stats.Conses < 2 {
		t.Errorf("conses = %d", in.Stats.Conses)
	}
}

func TestCallNamedAndDefine(t *testing.T) {
	in := New()
	v, err := in.CallNamed(sexp.Intern("+"), sexp.Fixnum(1), sexp.Fixnum(2))
	if err != nil || sexp.Print(v) != "3" {
		t.Fatalf("CallNamed: %v %v", v, err)
	}
	if _, err := in.CallNamed(sexp.Intern("no-such-fn")); err == nil {
		t.Error("undefined function should error")
	}
}

func TestGoAcrossLambdaFails(t *testing.T) {
	// go targets must be lexically visible; converter rejects this.
	_, err := EvalSource("(prog () (go missing))")
	if err == nil {
		t.Error("go to missing tag should fail at conversion")
	}
}

func TestBuiltinPrintsUnreadably(t *testing.T) {
	if got := ev(t, "#'car"); !strings.Contains(got, "#<builtin car>") {
		t.Errorf("builtin prints %s", got)
	}
	if got := ev(t, "(lambda (x) x)"); !strings.Contains(got, "#<closure") {
		t.Errorf("closure prints %s", got)
	}
}
