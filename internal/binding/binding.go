// Package binding implements the binding-annotation phase of §4.4: for
// each lambda-expression, decide how it is to be compiled, and determine
// which variables may be stack-allocated and which must be heap-allocated
// because closures refer to them.
//
// The strategies, in decreasing order of knowledge about call sites:
//
//   - OPEN: a manifest ((lambda …) args) call — a let. The body is
//     compiled in line in the caller's frame; no function object exists.
//   - JUMP: the lambda is bound to a variable all of whose references are
//     tail-position calls. Body compiles as a labeled block in the same
//     frame; every call is a parameter-passing goto. (These are the f and
//     g functions the optimizer introduces for boolean short-circuiting.)
//   - FASTCALL: all call sites are known but not all tail-recursive; the
//     lambda compiles as a separate function invoked with the fast
//     linkage that "can avoid error checks such as on the number of
//     arguments passed".
//   - FULL-CLOSURE: the lambda escapes; a closure object holding the
//     lexical environment must be constructed at run time.
package binding

import (
	"repro/internal/analysis"
	"repro/internal/tree"
)

// Annotate decides strategies for every lambda below root (normally a
// top-level defun lambda, which itself is left as a plain function) and
// marks closed-over variables. Requires a previously Analyze'd tree
// (parent links and tail flags).
func Annotate(root tree.Node) {
	if l, ok := root.(*tree.Lambda); ok {
		// The top-level function itself uses the standard linkage.
		l.Strategy = tree.StrategyFastCall
	}
	annotate(root)
	// Anything still unclassified escapes: "in the most general case, a
	// closure object must be explicitly constructed at run time".
	tree.Walk(root, func(n tree.Node) bool {
		if l, ok := n.(*tree.Lambda); ok && l.Strategy == tree.StrategyUnknown {
			l.Strategy = tree.StrategyFullClosure
		}
		return true
	})
	markClosedVars(root)
}

func annotate(n tree.Node) {
	var buf [tree.ChildBuf]tree.Node
	for _, c := range tree.AppendChildren(buf[:0], n) {
		annotate(c)
	}
	call, ok := n.(*tree.Call)
	if !ok {
		return
	}
	// Case 1: direct call of a manifest lambda — open-coded (a let).
	// Lambdas with optional/rest parameters keep the standard entry
	// sequence and are compiled as separate fast-linkage functions.
	if lam, ok := call.Fn.(*tree.Lambda); ok {
		if len(lam.Optional) > 0 || lam.Rest != nil {
			lam.Strategy = tree.StrategyFastCall
			return
		}
		lam.Strategy = tree.StrategyOpen
		// Lambdas bound to its variables may be jump/fastcall targets.
		for i, v := range lam.Required {
			if i >= len(call.Args) {
				break
			}
			argLam, ok := call.Args[i].(*tree.Lambda)
			if !ok || argLam.Strategy != tree.StrategyUnknown {
				continue
			}
			argLam.Strategy = classifyBoundLambda(lam, v)
			if argLam.Strategy == tree.StrategyJump || argLam.Strategy == tree.StrategyFastCall {
				argLam.SelfVar = v
			}
		}
	}
}

// classifyBoundLambda decides the strategy for a lambda bound to variable
// v of an open lambda.
func classifyBoundLambda(owner *tree.Lambda, v *tree.Var) tree.BindStrategy {
	if v.Assigned() || v.Special {
		return tree.StrategyFullClosure
	}
	// Every reference must be the function position of a call.
	allCalls := true
	allTail := true
	for _, r := range v.Refs {
		parent := r.NodeInfo.Parent
		c, ok := parent.(*tree.Call)
		if !ok || c.Fn != tree.Node(r) {
			allCalls = false
			break
		}
		if !c.NodeInfo.Tail {
			allTail = false
		}
	}
	if !allCalls {
		return tree.StrategyFullClosure
	}
	if allTail {
		return tree.StrategyJump
	}
	return tree.StrategyFastCall
}

// markClosedVars sets Var.Closed for variables referenced from a lambda
// that compiles to a different activation (FASTCALL or FULL-CLOSURE):
// those variables "must (because they are referred to by closures) be
// heap-allocated". OPEN and JUMP lambdas share their binder's frame, so
// variables they touch stay on the stack.
func markClosedVars(root tree.Node) {
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
		if v.Binder == nil || v.Special {
			return true
		}
		// Walk up from the reference; if we cross an activation boundary
		// before reaching the binder's frame, the variable is closed
		// over.
		frame := frameOf(v.Binder)
		for m := n.Info().Parent; m != nil; m = m.Info().Parent {
			l, ok := m.(*tree.Lambda)
			if !ok {
				continue
			}
			if frameOf(l) == frame {
				break // reached the binder's own activation
			}
			if l.Strategy == tree.StrategyFullClosure ||
				l.Strategy == tree.StrategyFastCall ||
				l.Strategy == tree.StrategyUnknown {
				v.Closed = true
				break
			}
			// OPEN/JUMP lambdas share the enclosing frame; keep walking.
		}
		return true
	})
	// Record heap vars on their binders.
	tree.Walk(root, func(n tree.Node) bool {
		if l, ok := n.(*tree.Lambda); ok {
			l.HeapVars = nil
			for _, v := range l.Params() {
				if v.Closed {
					l.HeapVars = append(l.HeapVars, v)
				}
			}
		}
		return true
	})
}

// frameOf finds the activation a lambda's body runs in: OPEN and JUMP
// lambdas execute in their nearest enclosing non-open frame.
func frameOf(l *tree.Lambda) *tree.Lambda {
	cur := l
	for {
		if cur.Strategy != tree.StrategyOpen && cur.Strategy != tree.StrategyJump {
			return cur
		}
		next := tree.EnclosingLambda(cur.Info().Parent)
		if next == nil {
			return cur
		}
		cur = next
	}
}

// AnnotateFunction is the convenience entry: analyze + annotate one
// top-level function.
func AnnotateFunction(l *tree.Lambda) {
	analysis.Analyze(l)
	Annotate(l)
}
