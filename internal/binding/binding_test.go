package binding

import (
	"testing"

	"repro/internal/convert"
	"repro/internal/opt"
	"repro/internal/sexp"
	"repro/internal/tree"
)

func prep(t *testing.T, src string, optimize bool) *tree.Lambda {
	t.Helper()
	c := convert.New()
	n, err := c.ConvertForm(mustRead(src))
	if err != nil {
		t.Fatal(err)
	}
	if optimize {
		o := opt.New(opt.DefaultOptions())
		n = o.Optimize(n)
	}
	lam, ok := n.(*tree.Lambda)
	if !ok {
		t.Fatalf("not a lambda: %T", n)
	}
	AnnotateFunction(lam)
	return lam
}

func findLambdas(root tree.Node) []*tree.Lambda {
	var out []*tree.Lambda
	tree.Walk(root, func(n tree.Node) bool {
		if l, ok := n.(*tree.Lambda); ok {
			out = append(out, l)
		}
		return true
	})
	return out
}

func TestLetIsOpen(t *testing.T) {
	lam := prep(t, "(lambda (x) (let ((y (+ x 1))) (* y y)))", false)
	ls := findLambdas(lam)
	if len(ls) != 2 {
		t.Fatalf("lambdas = %d", len(ls))
	}
	if ls[0].Strategy != tree.StrategyFastCall {
		t.Errorf("top lambda: %v", ls[0].Strategy)
	}
	if ls[1].Strategy != tree.StrategyOpen {
		t.Errorf("let lambda should be OPEN: %v", ls[1].Strategy)
	}
	if ls[1].Required[0].Closed {
		t.Error("let variable of open lambda should not be closed")
	}
}

func TestShortCircuitThunksAreJump(t *testing.T) {
	// E2's shape with expensive arms: thunks bound to f/g whose calls are
	// all tail → JUMP strategy, no closures.
	lam := prep(t, `(lambda (a b c x)
	   (if (and a (or b c)) (frotz x 1 2) (gronk x 3 4)))`, true)
	jumps, closures := 0, 0
	for _, l := range findLambdas(lam)[1:] {
		switch l.Strategy {
		case tree.StrategyJump:
			jumps++
		case tree.StrategyFullClosure:
			closures++
		}
	}
	if jumps == 0 {
		t.Error("short-circuit thunks should compile as jumps")
	}
	if closures != 0 {
		t.Errorf("no closures should remain, got %d", closures)
	}
}

func TestEscapingLambdaIsFullClosure(t *testing.T) {
	lam := prep(t, "(lambda (n) (lambda (x) (+ x n)))", false)
	inner := findLambdas(lam)[1]
	if inner.Strategy != tree.StrategyFullClosure {
		t.Errorf("returned lambda must be FULL-CLOSURE: %v", inner.Strategy)
	}
	// n is referenced by the closure: heap-allocated.
	if !lam.Required[0].Closed {
		t.Error("n must be closed over")
	}
	if len(lam.HeapVars) != 1 {
		t.Errorf("heap vars = %v", lam.HeapVars)
	}
}

func TestNonTailKnownCallsAreFastCall(t *testing.T) {
	// f called in non-tail position but all call sites known.
	lam := prep(t, `(lambda (x)
	  ((lambda (f) (+ (f x) (f (+ x 1)))) (lambda (y) (* y y))))`, false)
	var fast *tree.Lambda
	for _, l := range findLambdas(lam) {
		if l.Strategy == tree.StrategyFastCall && l != lam {
			fast = l
		}
	}
	if fast == nil {
		t.Error("known non-tail lambda should be FASTCALL")
	}
}

func TestAssignedFunctionVarIsClosure(t *testing.T) {
	lam := prep(t, `(lambda (x)
	  ((lambda (f) (setq f (lambda (y) y)) (f x)) (lambda (y) (* y y))))`, false)
	ls := findLambdas(lam)
	// The lambda bound to the assigned f must be a full closure.
	found := false
	for _, l := range ls {
		if l.Strategy == tree.StrategyFullClosure {
			found = true
		}
	}
	if !found {
		t.Error("lambda bound to an assigned variable must be FULL-CLOSURE")
	}
}

func TestVarsUsedByOpenLambdaStayOnStack(t *testing.T) {
	lam := prep(t, "(lambda (x) (let ((y 1)) (let ((z 2)) (+ x (+ y z)))))", false)
	for _, v := range []*tree.Var{lam.Required[0]} {
		if v.Closed {
			t.Errorf("%v should be stack-allocated", v)
		}
	}
	for _, l := range findLambdas(lam)[1:] {
		for _, v := range l.Params() {
			if v.Closed {
				t.Errorf("let var %v should be stack-allocated", v)
			}
		}
	}
}

func TestClosedVarThroughOpenLambda(t *testing.T) {
	// y is bound by an open let but captured by an escaping closure.
	lam := prep(t, "(lambda (x) (let ((y (* x 2))) (lambda (z) (+ y z))))", false)
	var yVar *tree.Var
	for _, l := range findLambdas(lam) {
		for _, v := range l.Params() {
			if v.Name.Name == "y" {
				yVar = v
			}
		}
	}
	if yVar == nil {
		t.Fatal("no y")
	}
	if !yVar.Closed {
		t.Error("y captured by escaping closure must be heap-allocated")
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
