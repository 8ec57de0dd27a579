package opt

import (
	"strings"
	"testing"

	"repro/internal/convert"
	"repro/internal/tree"
)

func cseRun(t *testing.T, src string) (tree.Node, int) {
	t.Helper()
	c := convert.New()
	n, err := c.ConvertForm(mustRead(src))
	if err != nil {
		t.Fatal(err)
	}
	o := New(DefaultOptions())
	n = o.Optimize(n)
	// EliminateCommonSubexpressions mutates below the root; roots that
	// are lambdas are never replaced.
	count := EliminateCommonSubexpressions(n)
	if err := tree.Validate(n); err != nil {
		t.Fatalf("CSE broke tree: %v\n%s", err, tree.Show(n))
	}
	return n, count
}

func TestCSEBasic(t *testing.T) {
	n, count := cseRun(t, "(lambda (a b) (frotz (* a b) (* a b)))")
	if count != 1 {
		t.Fatalf("introductions = %d, want 1\n%s", count, tree.Show(n))
	}
	s := tree.Show(n)
	if strings.Count(s, "(* a b)") != 1 {
		t.Errorf("duplicate not shared: %s", s)
	}
	if !strings.Contains(s, "lambda (cse") {
		t.Errorf("no let introduced: %s", s)
	}
}

func TestCSEAcrossIfArms(t *testing.T) {
	n, count := cseRun(t, "(lambda (p a b) (if p (frotz (* a b)) (gronk (* a b))))")
	if count != 1 {
		t.Fatalf("introductions = %d\n%s", count, tree.Show(n))
	}
	if strings.Count(tree.Show(n), "(* a b)") != 1 {
		t.Errorf("if arms not shared: %s", tree.Show(n))
	}
}

func TestCSESkipsImpure(t *testing.T) {
	// (car x) reads mutable state; (cons a b) allocates (eq-distinct).
	for _, src := range []string{
		"(lambda (x) (frotz (car x) (car x)))",
		"(lambda (a b) (frotz (cons a b) (cons a b)))",
		"(lambda (x) (frotz (gronk x) (gronk x)))",
	} {
		_, count := cseRun(t, src)
		if count != 0 {
			t.Errorf("%s: should not CSE (count=%d)", src, count)
		}
	}
}

func TestCSESkipsAssignedVars(t *testing.T) {
	_, count := cseRun(t,
		"(lambda (a b) (progn (frotz (* a b)) (setq a 9) (frotz (* a b))))")
	if count != 0 {
		t.Error("expression over an assigned variable must not be shared")
	}
}

func TestCSESkipsAcrossClosures(t *testing.T) {
	_, count := cseRun(t,
		"(lambda (a b) (frotz (* a b) (lambda () (* a b))))")
	if count != 0 {
		t.Error("occurrences in different activations must not be shared")
	}
}

func TestCSENestedChains(t *testing.T) {
	// Shared inner and outer expressions: ((a*b)+1) twice and (a*b) twice
	// inside those.
	n, count := cseRun(t, "(lambda (a b) (frotz (+ (* a b) 1) (+ (* a b) 1)))")
	if count < 1 {
		t.Fatalf("introductions = %d\n%s", count, tree.Show(n))
	}
	s := tree.Show(n)
	if strings.Count(s, "(* a b)") != 1 {
		t.Errorf("inner duplicate remains: %s", s)
	}
}

func TestCSEIdempotent(t *testing.T) {
	n, _ := cseRun(t, "(lambda (a b) (frotz (* a b) (* a b)))")
	if again := EliminateCommonSubexpressions(n); again != 0 {
		t.Errorf("second CSE pass introduced %d", again)
	}
}
