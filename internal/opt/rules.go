package opt

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/prim"
	"repro/internal/sexp"
	"repro/internal/tree"
)

// gensym returns a fresh uninterned symbol named from a per-optimizer
// counter, so the introduced names (which surface in jump-block labels and
// listing comments) depend only on this function's own rewrite history —
// not on global state shared with concurrently compiled functions.
func (o *Optimizer) gensym(prefix string) *sexp.Symbol {
	o.gen++
	return &sexp.Symbol{Name: fmt.Sprintf("%s%d", prefix, o.gen)}
}

// effectsOf returns fresh effect information for a subtree (mid-pass nodes
// may carry stale or zero Info).
func effectsOf(n tree.Node) tree.Effect {
	analysis.Recompute(n)
	return n.Info().Effects
}

// readsOnlyImmutable reports whether every variable the (freshly
// analyzed) expression reads is lexical and never assigned — the
// condition under which its evaluation may be moved in time. This is the
// paper's "it cannot affect the variable e because e is lexically scoped"
// argument.
func readsOnlyImmutable(n tree.Node) bool {
	for v := range n.Info().Reads {
		if v.Special || v.Assigned() {
			return false
		}
	}
	return true
}

// plainLambda reports a lambda with only required parameters.
func plainLambda(l *tree.Lambda) bool {
	return len(l.Optional) == 0 && l.Rest == nil
}

func isLiteral(n tree.Node) bool {
	_, ok := n.(*tree.Literal)
	return ok
}

// --- beta rule 1: ((lambda () body)) => body ---

func (o *Optimizer) ruleCallLambda(n tree.Node) (tree.Node, bool) {
	call := n.(*tree.Call)
	lam, ok := call.Fn.(*tree.Lambda)
	if !ok || !plainLambda(lam) {
		return n, false
	}
	if len(lam.Required) != 0 || len(call.Args) != 0 {
		return n, false
	}
	return lam.Body, true
}

// --- beta rule 2: drop an unused parameter whose argument has no side
// effects (heap allocation excepted: it "may be eliminated but must not
// be duplicated") ---

func (o *Optimizer) ruleDropUnused(n tree.Node) (tree.Node, bool) {
	call := n.(*tree.Call)
	lam, ok := call.Fn.(*tree.Lambda)
	if !ok || !plainLambda(lam) || len(call.Args) != len(lam.Required) {
		return n, false
	}
	for j, v := range lam.Required {
		if len(v.Refs) != 0 || len(v.Sets) != 0 || v.Special {
			continue
		}
		if !effectsOf(call.Args[j]).PureExceptAlloc() {
			continue
		}
		tree.Detach(call.Args[j])
		call.Args = append(call.Args[:j], call.Args[j+1:]...)
		lam.Required = append(lam.Required[:j], lam.Required[j+1:]...)
		return call, true
	}
	return n, false
}

// --- beta rule 3: substitute the argument expression for occurrences of
// the variable, under the side-effect conditions of §5 ---

func (o *Optimizer) ruleSubstitute(n tree.Node) (tree.Node, bool) {
	call := n.(*tree.Call)
	lam, ok := call.Fn.(*tree.Lambda)
	if !ok || !plainLambda(lam) || len(call.Args) != len(lam.Required) {
		return n, false
	}
	for j, v := range lam.Required {
		if v.Special || v.Assigned() || len(v.Refs) == 0 {
			continue
		}
		arg := call.Args[j]
		if !o.substitutable(arg, len(v.Refs)) {
			continue
		}
		lam.Body = replaceRefs(lam.Body, v, arg)
		// v now has no references; ruleDropUnused removes the pair on a
		// later iteration (the argument just shown substitutable is
		// droppable a fortiori).
		return call, true
	}
	return n, false
}

// substitutable decides whether arg may replace a variable with nrefs
// references.
func (o *Optimizer) substitutable(arg tree.Node, nrefs int) bool {
	switch a := arg.(type) {
	case *tree.Literal:
		return true // constant propagation
	case *tree.VarRef:
		// Renaming: safe when the source variable's value cannot change.
		return !a.Var.Special && !a.Var.Assigned()
	case *tree.Lambda:
		// Procedure integration, single use.
		return nrefs == 1
	}
	// General expressions: must be free of effects and read only
	// immutable variables (their evaluation moves in time); several
	// occurrences additionally require the expression to be small, per
	// the complexity analysis.
	eff := effectsOf(arg)
	if !eff.Pure() || !readsOnlyImmutable(arg) {
		return false
	}
	return nrefs == 1 || arg.Info().Complexity <= o.opts.SubstituteComplexity
}

// replaceRefs rewrites every reference to v inside body with a copy of
// template, maintaining back-pointer lists, and returns the (possibly
// new) body root.
func replaceRefs(body tree.Node, v *tree.Var, template tree.Node) tree.Node {
	var rec func(n tree.Node) tree.Node
	rec = func(n tree.Node) tree.Node {
		if r, ok := n.(*tree.VarRef); ok {
			if r.Var == v {
				v.DropRef(r)
				return tree.Copy(template)
			}
			return n
		}
		switch x := n.(type) {
		case *tree.Setq:
			x.Value = rec(x.Value)
		case *tree.If:
			x.Test, x.Then, x.Else = rec(x.Test), rec(x.Then), rec(x.Else)
		case *tree.Progn:
			for i := range x.Forms {
				x.Forms[i] = rec(x.Forms[i])
			}
		case *tree.Call:
			x.Fn = rec(x.Fn)
			for i := range x.Args {
				x.Args[i] = rec(x.Args[i])
			}
		case *tree.Lambda:
			for i := range x.Optional {
				x.Optional[i].Default = rec(x.Optional[i].Default)
			}
			x.Body = rec(x.Body)
		case *tree.ProgBody:
			for i := range x.Forms {
				x.Forms[i] = rec(x.Forms[i])
			}
		case *tree.Return:
			x.Value = rec(x.Value)
		case *tree.Catcher:
			x.Tag, x.Body = rec(x.Tag), rec(x.Body)
		case *tree.Caseq:
			x.Key = rec(x.Key)
			for i := range x.Clauses {
				x.Clauses[i].Body = rec(x.Clauses[i].Body)
			}
			if x.Default != nil {
				x.Default = rec(x.Default)
			}
		}
		return n
	}
	return rec(body)
}

// --- associative/commutative canonicalization ---

// ruleAssocCommut reduces n-ary associative calls to compositions of
// two-argument calls; commutative operands are folded in reversed order
// (matching the paper's transcript: (+$f a b c) => (+$f (+$f c b) a)).
// It also eliminates zero- and one-argument associative calls via the
// identity.
func (o *Optimizer) ruleAssocCommut(n tree.Node) (tree.Node, bool) {
	call := n.(*tree.Call)
	fr, ok := call.Fn.(*tree.FunRef)
	if !ok {
		return n, false
	}
	p := prim.Lookup(fr.Name)
	if p == nil || !p.Assoc {
		return n, false
	}
	switch len(call.Args) {
	case 0:
		if p.Identity != nil {
			return tree.NewLiteral(p.Identity), true
		}
		return n, false
	case 1:
		return call.Args[0], true
	case 2:
		return n, false
	}
	mk := func(a, b tree.Node) *tree.Call {
		return &tree.Call{Fn: &tree.FunRef{Name: fr.Name}, Args: []tree.Node{a, b}}
	}
	args := call.Args
	var acc *tree.Call
	if p.Commut {
		k := len(args) - 1
		acc = mk(args[k], args[k-1])
		for i := k - 2; i >= 0; i-- {
			acc = mk(acc, args[i])
		}
	} else {
		acc = mk(args[0], args[1])
		for i := 2; i < len(args); i++ {
			acc = mk(acc, args[i])
		}
	}
	return acc, true
}

// ruleReverseArgs puts constant arguments first for commutative binary
// calls ("By convention constant arguments are put first where
// possible").
func (o *Optimizer) ruleReverseArgs(n tree.Node) (tree.Node, bool) {
	call := n.(*tree.Call)
	fr, ok := call.Fn.(*tree.FunRef)
	if !ok || len(call.Args) != 2 {
		return n, false
	}
	p := prim.Lookup(fr.Name)
	if p == nil || !p.Commut {
		return n, false
	}
	if isLiteral(call.Args[1]) && !isLiteral(call.Args[0]) {
		call.Args[0], call.Args[1] = call.Args[1], call.Args[0]
		return call, true
	}
	return n, false
}

// ruleIdentity eliminates identity operands, table-driven: (+ x 0) => x.
func (o *Optimizer) ruleIdentity(n tree.Node) (tree.Node, bool) {
	call := n.(*tree.Call)
	fr, ok := call.Fn.(*tree.FunRef)
	if !ok || len(call.Args) != 2 {
		return n, false
	}
	p := prim.Lookup(fr.Name)
	if p == nil || p.Identity == nil {
		return n, false
	}
	if lit, ok := call.Args[0].(*tree.Literal); ok && sexp.Eql(lit.Value, p.Identity) {
		return call.Args[1], true
	}
	if lit, ok := call.Args[1].(*tree.Literal); ok && sexp.Eql(lit.Value, p.Identity) {
		return call.Args[0], true
	}
	return n, false
}

// --- compile-time expression evaluation ---

// ruleConstantFold invokes primitive functions known to be free of side
// effects on constant operands, by compile-time apply of the
// interpreter's pure builtins.
func (o *Optimizer) ruleConstantFold(n tree.Node) (tree.Node, bool) {
	call := n.(*tree.Call)
	fr, ok := call.Fn.(*tree.FunRef)
	if !ok {
		return n, false
	}
	p := prim.Lookup(fr.Name)
	if p == nil || !p.Foldable {
		return n, false
	}
	if len(call.Args) < p.MinArgs || (p.MaxArgs >= 0 && len(call.Args) > p.MaxArgs) {
		return n, false
	}
	args := make([]sexp.Value, len(call.Args))
	for i, a := range call.Args {
		lit, ok := a.(*tree.Literal)
		if !ok {
			return n, false
		}
		args[i] = lit.Value
	}
	v, ok := interp.ApplyPure(fr.Name, args)
	if !ok {
		// Leave ill-typed or erroneous constant calls for run time.
		return n, false
	}
	return tree.NewLiteral(v), true
}

// --- machine-inspired strength reduction ---

// oneOverTwoPi is the conversion factor from radians to cycles: the S-1
// SIN instruction "assumes its argument to be in cycles" (§7's
// 0.159154943 constant).
const oneOverTwoPi = 0.15915494309189535

// ruleSinToSinc rewrites sin$f (radians) into sinc$f (cycles) with a
// compile-time conversion factor, and likewise cos$f.
func (o *Optimizer) ruleSinToSinc(n tree.Node) (tree.Node, bool) {
	call := n.(*tree.Call)
	fr, ok := call.Fn.(*tree.FunRef)
	if !ok || len(call.Args) != 1 {
		return n, false
	}
	var target string
	switch fr.Name.Name {
	case "sin$f":
		target = "sinc$f"
	case "cos$f":
		target = "cosc$f"
	default:
		return n, false
	}
	// The constant is emitted second, as the paper's transcript shows;
	// CONSIDER-REVERSING-ARGUMENTS then moves it first.
	scaled := &tree.Call{
		Fn: &tree.FunRef{Name: sexp.Intern("*$f")},
		Args: []tree.Node{
			call.Args[0],
			tree.NewLiteral(sexp.Flonum(oneOverTwoPi)),
		},
	}
	return &tree.Call{Fn: &tree.FunRef{Name: sexp.Intern(target)},
		Args: []tree.Node{scaled}}, true
}

// --- semi-canonicalizing transformations ---

// ruleHoistProgn lifts a progn out of the first argument position:
// (f (progn a b) c) => (progn a (f b c)), driving the tree toward the
// semi-canonical form on which other transformations depend.
func (o *Optimizer) ruleHoistProgn(n tree.Node) (tree.Node, bool) {
	call := n.(*tree.Call)
	switch call.Fn.(type) {
	case *tree.FunRef, *tree.Lambda:
	default:
		return n, false // evaluating Fn could observe the hoisted effects
	}
	if len(call.Args) == 0 {
		return n, false
	}
	pg, ok := call.Args[0].(*tree.Progn)
	if !ok || len(pg.Forms) < 2 {
		return n, false
	}
	last := pg.Forms[len(pg.Forms)-1]
	prefix := pg.Forms[:len(pg.Forms)-1]
	call.Args[0] = last
	forms := append(append([]tree.Node{}, prefix...), call)
	return &tree.Progn{Forms: forms}, true
}

// ruleIfProgn rotates (if (progn a b ... p) x y) into
// (progn a b ... (if p x y)).
func (o *Optimizer) ruleIfProgn(n tree.Node) (tree.Node, bool) {
	iff := n.(*tree.If)
	pg, ok := iff.Test.(*tree.Progn)
	if !ok || len(pg.Forms) < 2 {
		return n, false
	}
	iff.Test = pg.Forms[len(pg.Forms)-1]
	forms := append(append([]tree.Node{}, pg.Forms[:len(pg.Forms)-1]...), iff)
	return &tree.Progn{Forms: forms}, true
}

// --- dead code elimination over if/caseq ---

// ruleIfConstant simplifies conditionals with constant predicates.
func (o *Optimizer) ruleIfConstant(n tree.Node) (tree.Node, bool) {
	iff := n.(*tree.If)
	switch t := iff.Test.(type) {
	case *tree.Literal:
		if sexp.Truthy(t.Value) {
			tree.Detach(iff.Else)
			return iff.Then, true
		}
		tree.Detach(iff.Then)
		return iff.Else, true
	case *tree.Lambda, *tree.FunRef:
		// Function values are always true.
		tree.Detach(iff.Test)
		tree.Detach(iff.Else)
		return iff.Then, true
	}
	return n, false
}

// ruleIfKnownTest exploits an enclosing test on the same (unassigned)
// variable: (if b (if b x y) z) => (if b x z) — "realizing that b is true
// in the inner if by virtue of the test in the outer one".
func (o *Optimizer) ruleIfKnownTest(n tree.Node) (tree.Node, bool) {
	outer := n.(*tree.If)
	ref, ok := outer.Test.(*tree.VarRef)
	if !ok || ref.Var.Assigned() || ref.Var.Special {
		return n, false
	}
	if inner, ok := outer.Then.(*tree.If); ok {
		if ir, ok := inner.Test.(*tree.VarRef); ok && ir.Var == ref.Var {
			ir.Var.DropRef(ir)
			tree.Detach(inner.Else)
			outer.Then = inner.Then
			return outer, true
		}
	}
	if inner, ok := outer.Else.(*tree.If); ok {
		if ir, ok := inner.Test.(*tree.VarRef); ok && ir.Var == ref.Var {
			ir.Var.DropRef(ir)
			tree.Detach(inner.Then)
			outer.Else = inner.Else
			return outer, true
		}
	}
	// A bare re-test in an arm: (if b b z) => no simplification for the
	// then-arm (it IS the value), but (if b x b) => (if b x nil).
	if ir, ok := outer.Else.(*tree.VarRef); ok && ir.Var == ref.Var {
		ir.Var.DropRef(ir)
		outer.Else = tree.NilLiteral()
		return outer, true
	}
	return n, false
}

// ruleIfNot flips (if (not p) x y) to (if p y x).
func (o *Optimizer) ruleIfNot(n tree.Node) (tree.Node, bool) {
	iff := n.(*tree.If)
	call, ok := iff.Test.(*tree.Call)
	if !ok || len(call.Args) != 1 {
		return n, false
	}
	fr, ok := call.Fn.(*tree.FunRef)
	if !ok || (fr.Name.Name != "not" && fr.Name.Name != "null") {
		return n, false
	}
	iff.Test = call.Args[0]
	iff.Then, iff.Else = iff.Else, iff.Then
	return iff, true
}

// ruleIfIf is the nested-if transformation of §5 — "the essence of the
// boolean short-circuiting idea; all the rest is 'merely' simplification":
//
//	(if (if x y z) v w) ==>
//	((lambda (f g) (if x (if y (f) (g)) (if z (f) (g))))
//	 (lambda () v) (lambda () w))
//
// The functions f and g are introduced to avoid space-wasting duplication
// of the code for v and w; when an arm is trivial it is duplicated
// directly instead.
func (o *Optimizer) ruleIfIf(n tree.Node) (tree.Node, bool) {
	outer := n.(*tree.If)
	inner, ok := outer.Test.(*tree.If)
	if !ok {
		return n, false
	}
	x, y, z := inner.Test, inner.Then, inner.Else
	v, w := outer.Then, outer.Else

	// Build with explicit thunks where arms are non-trivial.
	var fVar, gVar *tree.Var
	var fThunk, gThunk *tree.Lambda
	useV := func() tree.Node {
		if trivialArm(v) {
			return tree.Copy(v)
		}
		if fVar == nil {
			fVar = tree.NewVar(o.gensym("f"))
			fThunk = &tree.Lambda{Body: v}
		}
		return &tree.Call{Fn: tree.NewRef(fVar)}
	}
	useW := func() tree.Node {
		if trivialArm(w) {
			return tree.Copy(w)
		}
		if gVar == nil {
			gVar = tree.NewVar(o.gensym("g"))
			gThunk = &tree.Lambda{Body: w}
		}
		return &tree.Call{Fn: tree.NewRef(gVar)}
	}

	newBody := &tree.If{
		Test: x,
		Then: &tree.If{Test: y, Then: useV(), Else: useW()},
		Else: &tree.If{Test: z, Then: useV(), Else: useW()},
	}
	if trivialArm(v) {
		tree.Detach(v)
	}
	if trivialArm(w) {
		tree.Detach(w)
	}
	if fVar == nil && gVar == nil {
		return newBody, true
	}
	lam := &tree.Lambda{Body: newBody}
	call := &tree.Call{Fn: lam}
	if fVar != nil {
		fVar.Binder = lam
		lam.Required = append(lam.Required, fVar)
		call.Args = append(call.Args, fThunk)
	}
	if gVar != nil {
		gVar.Binder = lam
		lam.Required = append(lam.Required, gVar)
		call.Args = append(call.Args, gThunk)
	}
	return call, true
}

// trivialArm reports arms cheap enough to duplicate instead of thunking.
func trivialArm(n tree.Node) bool {
	switch x := n.(type) {
	case *tree.Literal, *tree.VarRef, *tree.FunRef:
		return true
	case *tree.Call:
		// A no-argument call through a variable ((f)) — itself usually a
		// previously introduced thunk call.
		if len(x.Args) == 0 {
			_, ok := x.Fn.(*tree.VarRef)
			return ok
		}
	}
	return false
}

// --- progn flattening and dead-form pruning ---

func (o *Optimizer) rulePrognFlatten(n tree.Node) (tree.Node, bool) {
	pg := n.(*tree.Progn)
	changed := false
	var out []tree.Node
	for i, f := range pg.Forms {
		if inner, ok := f.(*tree.Progn); ok {
			out = append(out, inner.Forms...)
			changed = true
			continue
		}
		// Non-final forms whose execution has no observable effect are
		// dead code.
		if i != len(pg.Forms)-1 && effectsOf(f).PureExceptAlloc() {
			tree.Detach(f)
			changed = true
			continue
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return tree.NilLiteral(), true
	}
	if len(out) == 1 {
		return out[0], true
	}
	if !changed {
		return n, false
	}
	pg.Forms = out
	return pg, true
}

// --- caseq with constant key ---

func (o *Optimizer) ruleCaseqConstant(n tree.Node) (tree.Node, bool) {
	cq := n.(*tree.Caseq)
	key, ok := cq.Key.(*tree.Literal)
	if !ok {
		return n, false
	}
	var chosen tree.Node
	for _, cl := range cq.Clauses {
		for _, k := range cl.Keys {
			if sexp.Eql(key.Value, k) {
				chosen = cl.Body
				break
			}
		}
		if chosen != nil {
			break
		}
	}
	if chosen == nil {
		chosen = cq.Default
	}
	if chosen == nil {
		chosen = tree.NilLiteral()
	}
	for _, cl := range cq.Clauses {
		if cl.Body != chosen {
			tree.Detach(cl.Body)
		}
	}
	if cq.Default != nil && cq.Default != chosen {
		tree.Detach(cq.Default)
	}
	return chosen, true
}
