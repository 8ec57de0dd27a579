package opt

import (
	"testing"

	"repro/internal/convert"
	"repro/internal/tree"
)

// corpus is a battery of shapes covering every rule's trigger.
var corpus = []string{
	"(lambda (a b c) (+$f a b c))",
	"(lambda (a b c) (if (and a (or b c)) 'one 'two))",
	"(lambda (a b c x) (if (and a (or b c)) (frotz x) (gronk x)))",
	"(lambda (x) (let ((y (+ x 1))) (* y y)))",
	"(lambda (x) (let ((f (lambda (q) (* q 2)))) (f (f x))))",
	"(lambda (p q r) (+$f (if p (sqrt$f q) (car r)) 3.0))",
	"(lambda (x) (sin$f (cos$f x)))",
	"(lambda (x) (progn 1 (progn 2 (frotz x)) 3 (gronk x)))",
	"(lambda (k) (caseq k ((1 2) 'a) (t 'b)))",
	"(lambda () (caseq 2 ((1 2) 'a) (t 'b)))",
	"(lambda (x) (if (not (null x)) (car x) nil))",
	"(lambda (a) (let ((u (cons a a))) 'ignored))",
	"(lambda (a b) (let ((s (+$f a b))) (frotz s s)))",
	"(lambda (n) (if (zerop n) 'done (self (- n 1))))",
	"(lambda (x) (+ (expt 2 5) (* x (max 1 2 3))))",
	"(lambda (p) (if (if p 'x nil) 1 2))",
	"(lambda (a b) (if (progn (frotz a) b) 1 2))",
}

// TestOptimizeIdempotent: a second optimization pass over an optimized
// tree applies no further transformations (the fixpoint is real).
func TestOptimizeIdempotent(t *testing.T) {
	for _, src := range corpus {
		c := convert.New()
		n, err := c.ConvertForm(mustRead(src))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		o1 := New(DefaultOptions())
		out := o1.Optimize(n)
		first := tree.Show(out)
		o2 := New(DefaultOptions())
		out2 := o2.Optimize(out)
		if len(o2.Applied) != 0 {
			t.Errorf("%s: second pass applied %v", src, o2.Applied)
		}
		if got := tree.Show(out2); got != first {
			t.Errorf("%s: not idempotent:\n1: %s\n2: %s", src, first, got)
		}
	}
}

// TestOptimizedTreesValidate: every corpus entry leaves a structurally
// sound tree (back-pointers, go/return targets).
func TestOptimizedTreesValidate(t *testing.T) {
	for _, src := range corpus {
		c := convert.New()
		n, err := c.ConvertForm(mustRead(src))
		if err != nil {
			t.Fatal(err)
		}
		o := New(DefaultOptions())
		out := o.Optimize(n)
		if err := tree.Validate(out); err != nil {
			t.Errorf("%s: %v\n%s", src, err, tree.Show(out))
		}
	}
}

// TestBackTranslationReconverts: the optimizer's output, printed and
// re-read through the converter, converts without error — "the final
// transformed tree can be converted back into a source program".
func TestBackTranslationReconverts(t *testing.T) {
	for _, src := range corpus {
		c := convert.New()
		n, err := c.ConvertForm(mustRead(src))
		if err != nil {
			t.Fatal(err)
		}
		o := New(DefaultOptions())
		out := o.Optimize(n)
		printed := tree.Show(out)
		c2 := convert.New()
		if _, err := c2.ConvertForm(mustRead(printed)); err != nil {
			t.Errorf("%s: reconversion failed: %v\nprinted: %s", src, err, printed)
		}
	}
}

// TestCopyPreservesShape: tree.Copy back-translates identically (alpha
// renaming does not change the printed names).
func TestCopyPreservesShape(t *testing.T) {
	for _, src := range corpus {
		c := convert.New()
		n, err := c.ConvertForm(mustRead(src))
		if err != nil {
			t.Fatal(err)
		}
		cp := tree.Copy(n)
		if tree.Show(cp) != tree.Show(n) {
			t.Errorf("%s: copy shape differs:\n%s\n%s", src, tree.Show(n), tree.Show(cp))
		}
		if err := tree.Validate(cp); err != nil {
			t.Errorf("%s: copy invalid: %v", src, err)
		}
	}
}
