package opt

import (
	"strings"
	"testing"

	"repro/internal/convert"
	"repro/internal/interp"
	"repro/internal/sexp"
	"repro/internal/tree"
)

func optimizeSrc(t *testing.T, src string) (tree.Node, *Optimizer) {
	t.Helper()
	c := convert.New()
	n, err := c.ConvertForm(mustRead(src))
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	o := New(DefaultOptions())
	out := o.Optimize(n)
	if err := tree.Validate(out); err != nil {
		t.Fatalf("optimized tree invalid: %v\n%s", err, tree.Show(out))
	}
	return out, o
}

func optShow(t *testing.T, src string) string {
	t.Helper()
	n, _ := optimizeSrc(t, src)
	return tree.Show(n)
}

func TestConstantFolding(t *testing.T) {
	cases := [][2]string{
		{"(+ 1 2)", "3"},
		{"(* 3 4.0)", "12.0"},
		{"(car '(1 2))", "1"},
		{"(cdr '(1 2))", "'(2)"},
		{"(zerop 0)", "t"},
		{"(< 1 2)", "t"},
		{"(sqrt$f 4.0)", "2.0"},
		{"(+ (+ 1 2) (* 2 3))", "9"},
		{"(if (< 1 2) 'yes 'no)", "'yes"},
		{"(length '(a b c))", "3"},
	}
	for _, c := range cases {
		if got := optShow(t, c[0]); got != c[1] {
			t.Errorf("%s => %s, want %s", c[0], got, c[1])
		}
	}
}

func TestConstantFoldingLeavesErrorsForRuntime(t *testing.T) {
	got := optShow(t, "(/ 1 0)")
	if got != "(/ 1 0)" {
		t.Errorf("(/ 1 0) should not fold, got %s", got)
	}
	got = optShow(t, "(+$f 1 2)") // wrong types for $f op
	if got != "(+$f 1 2)" {
		t.Errorf("ill-typed call should not fold, got %s", got)
	}
}

func TestAssocCommutReduction(t *testing.T) {
	// The paper's transcript: (+$f a b c) => (+$f (+$f c b) a).
	got := optShow(t, "(lambda (a b c) (+$f a b c))")
	want := "(lambda (a b c) (+$f (+$f c b) a))"
	if got != want {
		t.Errorf("got %s want %s", got, want)
	}
	got = optShow(t, "(lambda (a b c) (*$f a b c))")
	want = "(lambda (a b c) (*$f (*$f c b) a))"
	if got != want {
		t.Errorf("got %s want %s", got, want)
	}
	// Four arguments nest once more.
	got = optShow(t, "(lambda (a b c d) (+ a b c d))")
	want = "(lambda (a b c d) (+ (+ (+ d c) b) a))"
	if got != want {
		t.Errorf("got %s want %s", got, want)
	}
	// Unary and nullary collapse.
	if got := optShow(t, "(lambda (x) (+ x))"); got != "(lambda (x) x)" {
		t.Errorf("(+ x) => %s", got)
	}
	if got := optShow(t, "(+)"); got != "0" {
		t.Errorf("(+) => %s", got)
	}
}

func TestReverseConstantFirst(t *testing.T) {
	// "By convention constant arguments are put first where possible."
	got := optShow(t, "(lambda (e) (*$f e 0.5))")
	want := "(lambda (e) (*$f 0.5 e))"
	if got != want {
		t.Errorf("got %s want %s", got, want)
	}
	// Non-commutative ops are not reordered.
	got = optShow(t, "(lambda (e) (-$f e 0.5))")
	if got != "(lambda (e) (-$f e 0.5))" {
		t.Errorf("-$f should not reverse: %s", got)
	}
}

func TestIdentityElimination(t *testing.T) {
	cases := [][2]string{
		{"(lambda (x) (+ x 0))", "(lambda (x) x)"},
		{"(lambda (x) (* 1 x))", "(lambda (x) x)"},
		{"(lambda (x) (*$f x 1.0))", "(lambda (x) x)"},
		{"(lambda (x) (+& 0 x))", "(lambda (x) x)"},
	}
	for _, c := range cases {
		if got := optShow(t, c[0]); got != c[1] {
			t.Errorf("%s => %s, want %s", c[0], got, c[1])
		}
	}
}

func TestSinToSinc(t *testing.T) {
	got := optShow(t, "(lambda (e) (sin$f e))")
	if !strings.Contains(got, "sinc$f") || !strings.Contains(got, "0.159154943") {
		t.Errorf("sin$f => %s", got)
	}
	// Constant ends up first via CONSIDER-REVERSING-ARGUMENTS.
	if !strings.Contains(got, "(*$f 0.159154943") {
		t.Errorf("constant should be first: %s", got)
	}
	_, o := optimizeSrc(t, "(lambda (e) (sin$f e))")
	if o.Applied["CONSIDER-REVERSING-ARGUMENTS"] == 0 {
		t.Error("reversal rule should have fired")
	}
}

func TestBetaRule1(t *testing.T) {
	if got := optShow(t, "((lambda () 42))"); got != "42" {
		t.Errorf("((lambda () 42)) => %s", got)
	}
}

func TestBetaRule2DropsUnused(t *testing.T) {
	// Unused binding with pure init disappears.
	got := optShow(t, "(lambda (x) (let ((unused (+ x 1))) 'done))")
	if got != "(lambda (x) 'done)" {
		t.Errorf("got %s", got)
	}
	// Effectful init is kept.
	got = optShow(t, "(lambda (x) (let ((unused (rplaca x 1))) 'done))")
	if !strings.Contains(got, "rplaca") {
		t.Errorf("effectful init must remain: %s", got)
	}
	// Allocating init may be eliminated.
	got = optShow(t, "(lambda (x) (let ((unused (cons x x))) 'done))")
	if got != "(lambda (x) 'done)" {
		t.Errorf("allocation should be eliminable: %s", got)
	}
}

func TestBetaRule3Substitution(t *testing.T) {
	// Constants propagate.
	got := optShow(t, "(let ((k 2)) (frotz (+ k 1) k))")
	if got != "(frotz 3 2)" {
		t.Errorf("constant propagation: %s", got)
	}
	// Variable renaming.
	got = optShow(t, "(lambda (x) (let ((y x)) (frotz y y)))")
	if got != "(lambda (x) (frotz x x))" {
		t.Errorf("renaming: %s", got)
	}
	// Assigned variables are not substituted.
	got = optShow(t, "(lambda (x) (let ((y x)) (setq y 3) (frotz y)))")
	if !strings.Contains(got, "setq") {
		t.Errorf("assigned var must stay bound: %s", got)
	}
	// Single-use pure expressions move to their use site.
	got = optShow(t, "(lambda (a b) (let ((s (+$f a b))) (frotz s)))")
	if got != "(lambda (a b) (frotz (+$f a b)))" {
		t.Errorf("single-use substitution: %s", got)
	}
	// Large pure expressions with several uses stay bound.
	got = optShow(t, "(lambda (a b) (let ((s (+$f (*$f a a) (*$f b b)))) (frotz s s s)))")
	if !strings.Contains(got, "lambda (s)") {
		t.Errorf("multi-use large expr should stay: %s", got)
	}
}

func TestSubstitutionRespectsMutableReads(t *testing.T) {
	// (car p) reads mutable state: moving it past (rplaca p 9) would
	// change the value.
	got := optShow(t, "(lambda (p) (let ((h (car p))) (rplaca p 9) (frotz h)))")
	if !strings.Contains(got, "lambda (h)") {
		t.Errorf("mutable read must not move: %s", got)
	}
	// Special-variable reads must not move either.
	got = optShow(t, "(lambda () (let ((h *dyn*)) (frotz) (g h)))")
	if !strings.Contains(got, "lambda (h)") {
		t.Errorf("special read must not move: %s", got)
	}
}

func TestProcedureIntegration(t *testing.T) {
	// A single-use functional binding is integrated and the call
	// beta-reduced away.
	// (+ y 1) integrates to (+ x 1), and the constant-first convention
	// then yields (+ 1 x).
	got := optShow(t, "(lambda (x) (let ((f (lambda (y) (+ y 1)))) (f x)))")
	if got != "(lambda (x) (+ 1 x))" {
		t.Errorf("integration: %s", got)
	}
}

func TestShortCircuitTransform(t *testing.T) {
	// §5, E2: boolean short-circuiting falls out. With trivial arms the
	// arms are duplicated and the result is the pure conditional network.
	got := optShow(t, "(lambda (a b c) (if (and a (or b c)) 'one 'two))")
	want := "(lambda (a b c) (if a (if b 'one (if c 'one 'two)) 'two))"
	if got != want {
		t.Errorf("short-circuit:\n got %s\nwant %s", got, want)
	}
}

func TestShortCircuitWithExpensiveArms(t *testing.T) {
	// Non-trivial arms are shared through introduced functions f and g,
	// never duplicated.
	n, _ := optimizeSrc(t, `(lambda (a b c x)
	   (if (and a (or b c)) (frotz x 1 2) (gronk x 3 4)))`)
	s := tree.Show(n)
	if strings.Count(s, "frotz") != 1 || strings.Count(s, "gronk") != 1 {
		t.Errorf("expensive arms must not be duplicated:\n%s", s)
	}
	// And no and/or remains: the test network is pure ifs on a, b, c.
	if strings.Contains(s, "(and") || strings.Contains(s, "(or") {
		t.Errorf("and/or should be gone: %s", s)
	}
}

func TestIfSimplifications(t *testing.T) {
	cases := [][2]string{
		{"(if t 'a 'b)", "'a"},
		{"(if nil 'a 'b)", "'b"},
		{"(if 3 'a 'b)", "'a"},
		{"(lambda (p) (if (not p) 'a 'b))", "(lambda (p) (if p 'b 'a))"},
		{"(lambda (p) (if (null p) 'a 'b))", "(lambda (p) (if p 'b 'a))"},
		{"(lambda (b) (if b (if b 'x 'y) 'z))", "(lambda (b) (if b 'x 'z))"},
		{"(lambda (b) (if b 'x (if b 'y 'z)))", "(lambda (b) (if b 'x 'z))"},
	}
	for _, c := range cases {
		if got := optShow(t, c[0]); got != c[1] {
			t.Errorf("%s => %s, want %s", c[0], got, c[1])
		}
	}
}

func TestIfProgn(t *testing.T) {
	got := optShow(t, "(lambda (x) (if (progn (frotz x) (gronk x)) 'a 'b))")
	want := "(lambda (x) (progn (frotz x) (if (gronk x) 'a 'b)))"
	if got != want {
		t.Errorf("got %s want %s", got, want)
	}
}

func TestPrognPruning(t *testing.T) {
	cases := [][2]string{
		{"(lambda (x) (progn 1 2 (frotz x)))", "(lambda (x) (frotz x))"},
		{"(lambda (x) (progn (frotz x) 2 3))", "(lambda (x) (progn (frotz x) 3))"},
		{"(lambda (x) (progn x))", "(lambda (x) x)"},
		{"(lambda (x) (progn (progn (frotz x) (gronk x))))",
			"(lambda (x) (progn (frotz x) (gronk x)))"},
	}
	for _, c := range cases {
		if got := optShow(t, c[0]); got != c[1] {
			t.Errorf("%s => %s, want %s", c[0], got, c[1])
		}
	}
}

func TestCaseqConstantKey(t *testing.T) {
	if got := optShow(t, "(caseq 2 ((1 2) 'small) (t 'big))"); got != "'small" {
		t.Errorf("caseq fold: %s", got)
	}
	if got := optShow(t, "(caseq 9 ((1 2) 'small) (t 'big))"); got != "'big" {
		t.Errorf("caseq default: %s", got)
	}
	if got := optShow(t, "(caseq 9 ((1 2) 'small))"); got != "nil" {
		t.Errorf("caseq no match: %s", got)
	}
}

func TestTestfnTranscript(t *testing.T) {
	// E7: the §7 example end to end.
	src := `(lambda (a &optional (b 3.0) (c a))
	  (let ((d (+$f a b c)) (e (*$f a b c)))
	    (let ((q (sin$f e)))
	      (frotz d e (max$f d e))
	      q)))`
	c := convert.New()
	n, err := c.ConvertForm(mustRead(src))
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	opts := DefaultOptions()
	opts.Log = &log
	o := New(opts)
	out := o.Optimize(n)
	if err := tree.Validate(out); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	got := tree.Show(out)
	want := "(lambda (a &optional (b 3.0) (c a)) " +
		"((lambda (d e) (progn (frotz d e (max$f d e)) " +
		"(sinc$f (*$f 0.15915494309189535 e)))) " +
		"(+$f (+$f c b) a) (*$f (*$f c b) a)))"
	if got != want {
		t.Errorf("testfn:\n got %s\nwant %s", got, want)
	}
	// The transcript shows the same rule firings as the paper's.
	transcript := log.String()
	for _, rule := range []string{
		"META-EVALUATE-ASSOC-COMMUT-CALL",
		"CONSIDER-REVERSING-ARGUMENTS",
		"META-SUBSTITUTE",
		"META-CALL-LAMBDA",
	} {
		if !strings.Contains(transcript, rule) {
			t.Errorf("transcript missing %s:\n%s", rule, transcript)
		}
	}
	if !strings.Contains(transcript, ";**** Optimizing this form:") {
		t.Error("transcript format missing")
	}
}

func TestOptimizerPreservesSemantics(t *testing.T) {
	// Differential test: interpret each program before and after
	// optimization; results must agree.
	programs := []string{
		`(defun f (a b c) (if (and a (or b c)) 'one 'two))
		 (list (f t t nil) (f t nil t) (f t nil nil) (f nil t t))`,
		`(defun exptl (x n a)
		   (cond ((zerop n) a)
		         ((oddp n) (exptl (* x x) (floor n 2) (* a x)))
		         (t (exptl (* x x) (floor n 2) a))))
		 (exptl 3 10 1)`,
		`(defun q (a b c)
		   (let ((d (- (* b b) (* 4.0 a c))))
		     (cond ((< d 0) '())
		           ((= d 0) (list (/ (- b) (* 2.0 a))))
		           (t (let ((s (sqrt d)))
		                (list (/ (+ (- b) s) (* 2.0 a))
		                      (/ (- (- b) s) (* 2.0 a))))))))
		 (list (q 1.0 -3.0 2.0) (q 1.0 2.0 1.0) (q 1.0 0.0 1.0))`,
		`(defun count (n acc) (if (zerop n) acc (count (- n 1) (+ acc 2))))
		 (count 10 0)`,
		`(let ((x 1) (y 2)) (+ (* x 10) y))`,
		`(defun t1 (p) (let ((h (car p))) (rplaca p 9) (+ h (car p))))
		 (t1 (cons 1 2))`,
		`(defvar *w* 5)
		 (defun r () *w*)
		 (let ((*w* 7)) (r))`,
		`(prog (i s) (setq i 0 s 0)
		  lp (if (>= i 5) (return s) nil)
		     (setq s (+ s i) i (+ i 1)) (go lp))`,
		`(defun fact (n) (if (zerop n) 1 (* n (fact (- n 1))))) (fact 10)`,
		`(caseq (+ 1 1) ((1) 'one) ((2) 'two) (t 'many))`,
		`(catch 'out (+ 1 (throw 'out 41)))`,
	}
	for _, src := range programs {
		forms, err := sexp.ReadAll(src)
		if err != nil {
			t.Fatal(err)
		}
		// Plain interpretation.
		c1 := convert.New()
		p1, err := c1.ConvertTopLevel(forms)
		if err != nil {
			t.Fatalf("convert: %v", err)
		}
		v1, err := interp.New().LoadProgram(p1)
		if err != nil {
			t.Fatalf("interp: %v (%s)", err, src)
		}
		// Optimized interpretation.
		c2 := convert.New()
		p2, err := c2.ConvertTopLevel(forms)
		if err != nil {
			t.Fatal(err)
		}
		o := New(DefaultOptions())
		for _, d := range p2.Defs {
			nd := o.Optimize(d.Lambda)
			lam, ok := nd.(*tree.Lambda)
			if !ok {
				t.Fatalf("optimizing a lambda returned %T", nd)
			}
			d.Lambda = lam
			if err := tree.Validate(lam); err != nil {
				t.Fatalf("optimized def invalid: %v", err)
			}
		}
		for i := range p2.TopForms {
			p2.TopForms[i] = o.Optimize(p2.TopForms[i])
		}
		v2, err := interp.New().LoadProgram(p2)
		if err != nil {
			t.Fatalf("optimized interp: %v (%s)", err, src)
		}
		if !sexp.Equal(v1, v2) {
			t.Errorf("semantics changed for %q:\n plain: %s\n  optd: %s",
				src, sexp.Print(v1), sexp.Print(v2))
		}
	}
}

func TestDisabledRules(t *testing.T) {
	opts := DefaultOptions()
	opts.Disabled = map[string]bool{"META-EVALUATE-CONSTANT-CALL": true}
	o := New(opts)
	c := convert.New()
	n, _ := c.ConvertForm(mustRead("(+ 1 2)"))
	out := o.Optimize(n)
	if tree.Show(out) != "(+ 1 2)" {
		t.Errorf("disabled folding still fired: %s", tree.Show(out))
	}
}

func TestAppliedCounters(t *testing.T) {
	_, o := optimizeSrc(t, "(+ 1 2)")
	if o.Applied["META-EVALUATE-CONSTANT-CALL"] == 0 {
		t.Error("Applied counter not incremented")
	}
}

func TestOptimizeTerminates(t *testing.T) {
	// Pathological nesting should still terminate within MaxPasses.
	src := "(lambda (a b c d e) (if (and a (or b (and c (or d e)))) (f a) (g b)))"
	n, _ := optimizeSrc(t, src)
	if n == nil {
		t.Fatal("nil result")
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
