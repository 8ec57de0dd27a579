package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/codegen"
	"repro/internal/convert"
	"repro/internal/opt"
	"repro/internal/sexp"
	"repro/internal/tree"
)

// genExpr builds a random expression over integer variables, exercising
// arithmetic, conditionals, lets, list structure and type-specific
// operators. Depth-bounded and division-free so every generated program
// is total.
func genExpr(r *rand.Rand, vars []string, depth int) string {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", r.Intn(21)-10)
		case 1:
			if len(vars) > 0 {
				return vars[r.Intn(len(vars))]
			}
			return "3"
		default:
			return fmt.Sprintf("%d", r.Intn(5))
		}
	}
	a := func() string { return genExpr(r, vars, depth-1) }
	switch r.Intn(12) {
	case 0:
		return fmt.Sprintf("(+ %s %s)", a(), a())
	case 1:
		return fmt.Sprintf("(- %s %s)", a(), a())
	case 2:
		return fmt.Sprintf("(* %s %s)", a(), a())
	case 3:
		return fmt.Sprintf("(if (< %s %s) %s %s)", a(), a(), a(), a())
	case 4:
		return fmt.Sprintf("(if (and (> %s 0) (< %s 5)) %s %s)", a(), a(), a(), a())
	case 5:
		v := fmt.Sprintf("v%d", r.Intn(1000))
		inner := genExpr(r, append(append([]string{}, vars...), v), depth-1)
		return fmt.Sprintf("(let ((%s %s)) %s)", v, a(), inner)
	case 6:
		return fmt.Sprintf("(car (cons %s %s))", a(), a())
	case 7:
		return fmt.Sprintf("(cdr (cons %s %s))", a(), a())
	case 8:
		return fmt.Sprintf("(+& %s %s)", a(), a())
	case 9:
		return fmt.Sprintf("(max %s %s)", a(), a())
	case 10:
		return fmt.Sprintf("(progn %s %s)", a(), a())
	default:
		v := fmt.Sprintf("w%d", r.Intn(1000))
		body := genExpr(r, append(append([]string{}, vars...), v), depth-1)
		return fmt.Sprintf("(let ((%s 0)) (setq %s %s) %s)", v, v, a(), body)
	}
}

// TestRandomizedDifferential generates programs and requires the compiled
// machine code and the reference interpreter to agree, across phase
// configurations.
func TestRandomizedDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	configs := map[string]codegen.Options{
		"full":     codegen.DefaultOptions(),
		"bare":     {Optimize: false},
		"opt-only": {Optimize: true},
		"tn-only":  {UseTN: true},
	}
	r := rand.New(rand.NewSource(20260706))
	for i := 0; i < 120; i++ {
		expr := genExpr(r, []string{"a", "b"}, 4)
		src := fmt.Sprintf("(defun f (a b) %s)", expr)
		args := []sexp.Value{
			sexp.Fixnum(int64(r.Intn(11) - 5)),
			sexp.Fixnum(int64(r.Intn(11) - 5)),
		}
		var wantStr string
		first := true
		for name, opts := range configs {
			o := opts
			sys := NewSystem(Options{Codegen: &o})
			if err := sys.LoadString(src); err != nil {
				t.Fatalf("[%s] load %s: %v", name, src, err)
			}
			cv, cerr := sys.Call("f", args...)
			iv, ierr := sys.Interpret("f", args...)
			if (cerr == nil) != (ierr == nil) {
				t.Fatalf("[%s] %s args=%v: compiled err=%v interp err=%v",
					name, src, args, cerr, ierr)
			}
			if cerr != nil {
				continue
			}
			if !sexp.Equal(cv, iv) {
				lst, _ := sys.Listing("f")
				t.Fatalf("[%s] %s args=%v: compiled=%s interpreted=%s\n%s",
					name, src, args, sexp.Print(cv), sexp.Print(iv), lst)
			}
			if first {
				wantStr = sexp.Print(cv)
				first = false
			} else if got := sexp.Print(cv); got != wantStr {
				t.Fatalf("configs disagree on %s: %s vs %s", src, got, wantStr)
			}
		}
	}
}

// freshSets is the reference environment analysis: every node's
// Reads/Writes in newly allocated sets, each the union of its children's
// plus the node's own variable, sharing nothing.
func freshSets(n tree.Node, reads, writes map[tree.Node]tree.VarSet) {
	r, w := tree.VarSet{}, tree.VarSet{}
	for _, c := range tree.AppendChildren(nil, n) {
		freshSets(c, reads, writes)
		for v := range reads[c] {
			r[v] = struct{}{}
		}
		for v := range writes[c] {
			w[v] = struct{}{}
		}
	}
	switch x := n.(type) {
	case *tree.VarRef:
		r[x.Var] = struct{}{}
	case *tree.Setq:
		w[x.Var] = struct{}{}
	}
	reads[n], writes[n] = r, w
}

func sameSet(a, b tree.VarSet) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b.Has(v) {
			return false
		}
	}
	return true
}

// TestSharedVarSetsMatchFreshAnalysis runs the optimizer (whose
// incremental passes re-analyze through Recompute and RecomputeShallow)
// over randomized programs, then checks that every node's shared
// Reads/Writes equal a fresh-copy reference. It then recomputes each
// node in turn, as the optimizer's dirty path does: no other node's set
// may change when a child is recomputed, and refreshing the ancestors
// afterwards must leave the reference sets.
func TestSharedVarSetsMatchFreshAnalysis(t *testing.T) {
	r := rand.New(rand.NewSource(20261019))
	for i := 0; i < 150; i++ {
		src := fmt.Sprintf("(defun f (a b) %s)", genExpr(r, []string{"a", "b"}, 5))
		form, err := sexp.ReadOne(src)
		if err != nil {
			t.Fatal(err)
		}
		prog := convert.NewProgram()
		if err := convert.New().TopForm(prog, form); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		root := opt.New(opt.DefaultOptions()).Optimize(prog.Defs[0].Lambda)

		var nodes []tree.Node
		tree.Walk(root, func(n tree.Node) bool { nodes = append(nodes, n); return true })
		reads, writes := map[tree.Node]tree.VarSet{}, map[tree.Node]tree.VarSet{}
		freshSets(root, reads, writes)
		check := func(when string) {
			t.Helper()
			for _, n := range nodes {
				in := n.Info()
				if !sameSet(in.Reads, reads[n]) || !sameSet(in.Writes, writes[n]) {
					t.Fatalf("%s: %s: %s has reads %v writes %v, want %v %v", src, when,
						tree.Show(n), in.Reads.Sorted(), in.Writes.Sorted(), reads[n].Sorted(), writes[n].Sorted())
				}
			}
		}
		check("after optimizing")
		for _, n := range nodes {
			analysis.Recompute(n)
			check("after recomputing " + tree.Show(n))
			for p := n.Info().Parent; p != nil; p = p.Info().Parent {
				analysis.RecomputeShallow(p)
			}
			check("after refreshing the ancestors of " + tree.Show(n))
		}
	}
}

// TestRandomizedFloatDifferential does the same over float expressions
// (type-specific operators, representation analysis paths).
func TestRandomizedFloatDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var genF func(r *rand.Rand, vars []string, depth int) string
	genF = func(r *rand.Rand, vars []string, depth int) string {
		if depth <= 0 || r.Intn(4) == 0 {
			if r.Intn(2) == 0 && len(vars) > 0 {
				return vars[r.Intn(len(vars))]
			}
			return fmt.Sprintf("%d.%d", r.Intn(8), r.Intn(10))
		}
		a := func() string { return genF(r, vars, depth-1) }
		switch r.Intn(7) {
		case 0:
			return fmt.Sprintf("(+$f %s %s)", a(), a())
		case 1:
			return fmt.Sprintf("(-$f %s %s)", a(), a())
		case 2:
			return fmt.Sprintf("(*$f %s %s)", a(), a())
		case 3:
			return fmt.Sprintf("(max$f %s %s)", a(), a())
		case 4:
			return fmt.Sprintf("(if (<$f %s %s) %s %s)", a(), a(), a(), a())
		case 5:
			v := fmt.Sprintf("v%d", r.Intn(1000))
			inner := genF(r, append(append([]string{}, vars...), v), depth-1)
			return fmt.Sprintf("(let ((%s %s)) %s)", v, a(), inner)
		default:
			return fmt.Sprintf("(abs$f %s)", a())
		}
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		expr := genF(r, []string{"x", "y"}, 4)
		src := fmt.Sprintf("(defun f (x y) %s)", expr)
		args := []sexp.Value{
			sexp.Flonum(float64(r.Intn(100)) / 8),
			sexp.Flonum(float64(r.Intn(100)) / 8),
		}
		for _, repOn := range []bool{true, false} {
			o := codegen.DefaultOptions()
			o.RepAnalysis = repOn
			sys := NewSystem(Options{Codegen: &o})
			if err := sys.LoadString(src); err != nil {
				t.Fatalf("load %s: %v", src, err)
			}
			cv, cerr := sys.Call("f", args...)
			iv, ierr := sys.Interpret("f", args...)
			if (cerr == nil) != (ierr == nil) {
				t.Fatalf("rep=%v %s args=%v: compiled err=%v interp err=%v",
					repOn, src, args, cerr, ierr)
			}
			if cerr != nil {
				continue
			}
			if sexp.Print(cv) != sexp.Print(iv) {
				lst, _ := sys.Listing("f")
				t.Fatalf("rep=%v %s args=%v: compiled=%s interpreted=%s\n%s",
					repOn, src, args, sexp.Print(cv), sexp.Print(iv), lst)
			}
		}
	}
}

// TestRandomizedTailLoops generates iterative tail-recursive functions
// and checks both value agreement and constant stack use.
func TestRandomizedTailLoops(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := rand.New(rand.NewSource(7))
	ops := []string{"(+ acc 1)", "(+ acc i)", "(* acc 1)", "(- acc -2)", "(max acc i)"}
	for i := 0; i < 20; i++ {
		op := ops[r.Intn(len(ops))]
		src := fmt.Sprintf(`
(defun loopf (i acc)
  (if (zerop i) acc (loopf (- i 1) %s)))`, op)
		sys := NewSystem(Options{})
		if err := sys.LoadString(src); err != nil {
			t.Fatal(err)
		}
		n := int64(500 + r.Intn(2000))
		sys.ResetStats()
		cv, err := sys.Call("loopf", sexp.Fixnum(n), sexp.Fixnum(0))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		iv, err := sys.Interpret("loopf", sexp.Fixnum(n), sexp.Fixnum(0))
		if err != nil {
			t.Fatal(err)
		}
		if !sexp.Equal(cv, iv) {
			t.Fatalf("%s (n=%d): %s vs %s", src, n, sexp.Print(cv), sexp.Print(iv))
		}
		if sys.Stats().MaxStack > 64 {
			t.Errorf("%s: stack grew to %d", strings.TrimSpace(src), sys.Stats().MaxStack)
		}
	}
}
