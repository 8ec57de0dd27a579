// Package analysis implements the source-program analysis phases of §4.2:
// environment analysis (variables read/written per subtree), side-effects
// analysis, complexity analysis, tail-recursion analysis, and the
// special-variable lookup placement of §4.4 (smallest containing subtree).
//
// The results decorate the tree's Info slots and feed both the
// source-level optimizer and the machine-dependent annotation phases.
package analysis

import (
	"repro/internal/prim"
	"repro/internal/sexp"
	"repro/internal/tree"
)

// Analyze runs environment, side-effects, complexity and tail analyses
// over the tree rooted at root, filling the Info slots. Parent links are
// recomputed first, so Analyze may be called after arbitrary tree surgery.
func Analyze(root tree.Node) {
	tree.ComputeParents(root)
	analyzeNode(root)
	markTail(root, root.Kind() == tree.KindLambda)
}

// Recompute re-runs environment/effects/complexity analysis on a subtree
// without touching parent links or tail flags. The optimizer uses it to
// get fresh effect information for nodes it has just created, mid-pass.
func Recompute(n tree.Node) { analyzeNode(n) }

// RecomputeShallow refreshes n's own Info from its children's existing
// (assumed fresh) results without re-walking the subtree. The optimizer's
// dirty-path bookkeeping uses it for the ancestors of a changed region,
// whose other children are known to be unchanged.
func RecomputeShallow(n tree.Node) { computeOne(n) }

// analyzeNode computes Reads/Writes/Effects/Complexity bottom-up.
func analyzeNode(n tree.Node) {
	var buf [tree.ChildBuf]tree.Node
	for _, c := range tree.AppendChildren(buf[:0], n) {
		analyzeNode(c)
	}
	computeOne(n)
}

// computeOne fills n's Info from its children's already-computed Info.
// Its Reads and Writes share a child's set unless n adds a variable to
// it (tree.SetUnion), so a node costs a set allocation only where its
// variables differ from its children's.
func computeOne(n tree.Node) {
	in := n.Info()
	var reads, writes tree.SetUnion
	in.Effects = tree.EffNone
	in.Complexity = 0
	in.Dirty = false

	sets := func(c tree.Node) {
		ci := c.Info()
		reads.Add(ci.Reads)
		writes.Add(ci.Writes)
	}
	merge := func(c tree.Node) {
		sets(c)
		in.Effects |= c.Info().Effects
		in.Complexity += c.Info().Complexity
	}

	switch x := n.(type) {
	case *tree.Literal:
		in.Complexity = 1

	case *tree.VarRef:
		reads.AddVar(x.Var)
		in.Complexity = 1
		if x.Var.Special {
			// Reading a dynamic binding is a read of mutable state.
			in.Effects |= tree.EffRead
			in.Complexity = 2
		}

	case *tree.Setq:
		merge(x.Value)
		writes.AddVar(x.Var)
		in.Effects |= tree.EffWrite
		in.Complexity++

	case *tree.If:
		merge(x.Test)
		merge(x.Then)
		merge(x.Else)
		in.Complexity++

	case *tree.Progn:
		for _, f := range x.Forms {
			merge(f)
		}

	case *tree.Lambda:
		// A lambda-expression in value position performs only the
		// (possible) closure allocation when evaluated; its body's
		// effects happen at call time. Reads/Writes do include the
		// body's free activity so that binding annotation can see
		// closed-over variables.
		for _, o := range x.Optional {
			sets(o.Default)
		}
		sets(x.Body)
		in.Effects = tree.EffAlloc
		in.Complexity = 2 + x.Body.Info().Complexity

	case *tree.Call:
		for _, a := range x.Args {
			merge(a)
		}
		switch fn := x.Fn.(type) {
		case *tree.Lambda:
			// Direct call of a manifest lambda (a let): the body runs.
			for _, o := range fn.Optional {
				merge(o.Default)
			}
			merge(fn.Body)
			in.Complexity += 2
		case *tree.FunRef:
			if p := prim.Lookup(fn.Name); p != nil {
				in.Effects |= p.Effects
				in.Complexity += 2
			} else {
				// Unknown user function: anything may happen.
				in.Effects |= tree.EffAny
				in.Complexity += 3
			}
		default:
			merge(x.Fn)
			in.Effects |= tree.EffAny
			in.Complexity += 3
		}

	case *tree.FunRef:
		in.Complexity = 1

	case *tree.ProgBody:
		for _, f := range x.Forms {
			merge(f)
		}
		in.Complexity++

	case *tree.Go:
		in.Effects |= tree.EffControl
		in.Complexity = 1

	case *tree.Return:
		merge(x.Value)
		in.Effects |= tree.EffControl
		in.Complexity++

	case *tree.Catcher:
		merge(x.Tag)
		merge(x.Body)
		in.Complexity += 3

	case *tree.Caseq:
		merge(x.Key)
		for _, cl := range x.Clauses {
			merge(cl.Body)
		}
		if x.Default != nil {
			merge(x.Default)
		}
		in.Complexity += 2
	}
	in.Reads, in.Writes = reads.Set(), writes.Set()
}

// markTail sets the Tail flags: a node is in tail position when its value
// is delivered as the value of the enclosing lambda, so a call there "is
// more akin to a parameter-passing goto than to a recursive call".
func markTail(n tree.Node, tail bool) {
	n.Info().Tail = tail
	switch x := n.(type) {
	case *tree.If:
		markTail(x.Test, false)
		markTail(x.Then, tail)
		markTail(x.Else, tail)
	case *tree.Progn:
		for i, f := range x.Forms {
			markTail(f, tail && i == len(x.Forms)-1)
		}
	case *tree.Setq:
		markTail(x.Value, false)
	case *tree.Call:
		if l, ok := x.Fn.(*tree.Lambda); ok {
			// Calling a manifest lambda: its body inherits the call's
			// tail position; the lambda node itself is not "evaluated",
			// so it must not also be visited as a value (that would walk
			// the body twice per nesting level — exponentially).
			l.Info().Tail = false
			for _, o := range l.Optional {
				markTail(o.Default, false)
			}
			markTail(l.Body, tail)
		} else {
			markTail(x.Fn, false)
		}
		for _, a := range x.Args {
			markTail(a, false)
		}
	case *tree.Lambda:
		// A lambda in value position starts a new function: its body is
		// the new function's tail.
		for _, o := range x.Optional {
			markTail(o.Default, false)
		}
		markTail(x.Body, true)
	case *tree.ProgBody:
		for _, f := range x.Forms {
			markTail(f, false)
		}
		// Returns targeting a tail progbody deliver the lambda's value.
		if tail {
			tree.Walk(n, func(m tree.Node) bool {
				if r, ok := m.(*tree.Return); ok && r.Target == x {
					r.Value.Info().Tail = true
					propagateTailInto(r.Value)
				}
				return true
			})
		}
	case *tree.Catcher:
		markTail(x.Tag, false)
		markTail(x.Body, false) // must pop the catch frame before returning
	case *tree.Caseq:
		markTail(x.Key, false)
		for _, cl := range x.Clauses {
			markTail(cl.Body, tail)
		}
		if x.Default != nil {
			markTail(x.Default, tail)
		}
	}
}

// propagateTailInto re-propagates tailness into a subtree already marked
// (used for return values of tail progbodies).
func propagateTailInto(n tree.Node) { markTail(n, true) }

// SpecialPlacements computes, for each lambda, the smallest subtree that
// contains all of that lambda's own references to each special variable:
// "the lookup and pointer caching for that variable is performed before
// execution of that smallest subtree" (§4.4). References inside nested
// lambdas belong to the nested lambda. Call after Analyze (parent links
// must be valid).
func SpecialPlacements(root tree.Node) map[*tree.Lambda]map[*sexp.Symbol]tree.Node {
	out := map[*tree.Lambda]map[*sexp.Symbol]tree.Node{}
	// Collect the special references per owning lambda.
	refs := map[*tree.Lambda]map[*sexp.Symbol][]tree.Node{}
	tree.Walk(root, func(n tree.Node) bool {
		var v *tree.Var
		switch x := n.(type) {
		case *tree.VarRef:
			v = x.Var
		case *tree.Setq:
			v = x.Var
		default:
			return true
		}
		if !v.Special || v.Binder != nil {
			// Special *parameters* are bound, not looked up.
			if !v.Special {
				return true
			}
		}
		owner := activationLambda(n)
		if owner == nil {
			return true
		}
		if refs[owner] == nil {
			refs[owner] = map[*sexp.Symbol][]tree.Node{}
		}
		refs[owner][v.Name] = append(refs[owner][v.Name], n)
		return true
	})
	for lam, bySym := range refs {
		out[lam] = map[*sexp.Symbol]tree.Node{}
		for sym, nodes := range bySym {
			place := lcaWithin(lam, nodes)
			// "The trick is further refined to take loops into account":
			// hoist the lookup above any enclosing progbody, so a loop
			// does not re-search per iteration.
			place = hoistAboveLoops(lam, place)
			out[lam][sym] = place
		}
	}
	return out
}

// activationLambda finds the nearest enclosing lambda that owns a run-time
// activation (open-coded and jump lambdas execute in their host's frame).
func activationLambda(n tree.Node) *tree.Lambda {
	for m := n.Info().Parent; m != nil; m = m.Info().Parent {
		l, ok := m.(*tree.Lambda)
		if !ok {
			continue
		}
		if l.Strategy == tree.StrategyOpen || l.Strategy == tree.StrategyJump {
			continue
		}
		return l
	}
	return nil
}

// hoistAboveLoops moves a placement above the outermost progbody between
// it and the owning lambda.
func hoistAboveLoops(limit tree.Node, place tree.Node) tree.Node {
	out := place
	for m := place; m != nil && m != limit; m = m.Info().Parent {
		if _, ok := m.(*tree.ProgBody); ok {
			out = m
		}
	}
	return out
}

// lcaWithin finds the lowest common ancestor of nodes, not ascending
// above limit.
func lcaWithin(limit tree.Node, nodes []tree.Node) tree.Node {
	path := func(n tree.Node) []tree.Node {
		var p []tree.Node
		for m := n; m != nil; m = m.Info().Parent {
			p = append(p, m)
			if m == limit {
				break
			}
		}
		// reverse to root-first
		for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
			p[i], p[j] = p[j], p[i]
		}
		return p
	}
	cur := path(nodes[0])
	for _, n := range nodes[1:] {
		p := path(n)
		k := 0
		for k < len(cur) && k < len(p) && cur[k] == p[k] {
			k++
		}
		cur = cur[:k]
	}
	if len(cur) == 0 {
		return limit
	}
	return cur[len(cur)-1]
}

// TailCalls returns the calls in tail position within lam whose callee is
// the given variable (used by binding annotation to detect loop-style
// lambdas).
func TailCalls(lam *tree.Lambda, v *tree.Var) (tail, nonTail []*tree.Call) {
	tree.Walk(lam.Body, func(n tree.Node) bool {
		if c, ok := n.(*tree.Call); ok {
			if r, ok := c.Fn.(*tree.VarRef); ok && r.Var == v {
				if c.Info().Tail {
					tail = append(tail, c)
				} else {
					nonTail = append(nonTail, c)
				}
			}
		}
		return true
	})
	return tail, nonTail
}
