// Package pdl implements the pdl-number annotation of §6.3: a lifetime
// analysis deciding, for raw numbers that must be converted to pointer
// form, whether stack allocation provides a sufficient lifetime or the
// general heap allocation is required.
//
// Two properties are computed in a single "outorder" walk (top-down for
// PDLOKP, bottom-up for PDLNUMP):
//
//   - PDLOKP: whether the node's parent is willing to accept a pdl
//     (unsafe) pointer. Not a flag but a pointer to the node that
//     originally authorized it, which bounds the required lifetime.
//   - PDLNUMP: whether the node itself might be inclined to produce a
//     pdl number.
//
// A node with both properties, WANTREP = POINTER, and a numeric ISREP
// gets its conversion stack-allocated (a MOVP into a scratch frame slot)
// instead of heap-allocated (an *:SQ-SINGLE-FLONUM-CONS call).
package pdl

import (
	"repro/internal/prim"
	"repro/internal/tree"
)

// Annotate runs the pdl-number analysis. enabled=false (the E6 ablation)
// clears every authorization, forcing heap allocation at all conversion
// points.
func Annotate(root tree.Node, enabled bool) {
	if !enabled {
		tree.Walk(root, func(n tree.Node) bool {
			n.Info().PdlOkP = nil
			n.Info().PdlNumP = false
			return true
		})
		return
	}
	down(root, nil)
	up(root)
}

// down propagates PDLOKP. auth is the authorizing node permitted by the
// parent context, or nil.
func down(n tree.Node, auth tree.Node) {
	n.Info().PdlOkP = auth
	switch x := n.(type) {
	case *tree.Setq:
		// Storing into a stack-allocated lexical variable keeps the
		// pointer in the frame: authorized (by the setq) unless the
		// variable is closed over or special, in which case the store
		// escapes the frame.
		if !x.Var.Special && !x.Var.Closed {
			down(x.Value, x)
		} else {
			down(x.Value, nil)
		}

	case *tree.If:
		// "The processing of an if node simply passes the PDLOKP
		// authorization of its parent down to the two arms of the
		// conditional. On the other hand, it always of itself authorizes
		// the predicate computation to produce a pdl number, because the
		// conditional test performed by if is a safe operation."
		down(x.Test, x)
		down(x.Then, auth)
		down(x.Else, auth)

	case *tree.Progn:
		for i, f := range x.Forms {
			if i == len(x.Forms)-1 {
				down(f, auth)
			} else {
				down(f, f) // value discarded; any pointer is fine
			}
		}

	case *tree.Call:
		switch fn := x.Fn.(type) {
		case *tree.FunRef:
			p := prim.Lookup(fn.Name)
			// "To perform an operation on a pointer either the pointer
			// or the operation must be safe." Safe operations (and calls
			// to user procedures, since "passing a pointer to a
			// procedure is safe") authorize pdl arguments with lifetime
			// bounded by the call.
			// An argument the primitive returns itself is the call's
			// value, authorized only as far as the call's context is.
			safe := p == nil || p.Safe
			for _, a := range x.Args {
				switch {
				case p != nil && prim.ReturnsArg(fn.Name.Name, len(x.Args)):
					down(a, auth)
				case safe:
					down(a, x)
				default:
					down(a, nil)
				}
			}
		case *tree.Lambda:
			// A let: binding a pointer into a frame variable is safe as
			// long as the variable stays in the frame.
			for i, a := range x.Args {
				authArg := tree.Node(x)
				if i < len(fn.Required) {
					v := fn.Required[i]
					if v.Special || v.Closed {
						authArg = nil
					}
				}
				down(a, authArg)
			}
			down(x.Fn, auth)
		default:
			down(x.Fn, x)
			for _, a := range x.Args {
				down(a, x)
			}
		}

	case *tree.Lambda:
		for _, o := range x.Optional {
			down(o.Default, nil)
		}
		switch x.Strategy {
		case tree.StrategyOpen, tree.StrategyJump:
			// Body value flows to the call's context.
			down(x.Body, auth)
		default:
			// "Returning a value from a procedure is not a safe
			// operation, so a pdl number may not be used."
			down(x.Body, nil)
		}

	case *tree.ProgBody:
		for _, f := range x.Forms {
			down(f, f)
		}

	case *tree.Return:
		down(x.Value, auth) // flows to the progbody's value

	case *tree.Go:

	case *tree.Catcher:
		down(x.Tag, x)
		down(x.Body, nil) // thrown/returned values escape the frame

	case *tree.Caseq:
		down(x.Key, x)
		for _, cl := range x.Clauses {
			down(cl.Body, auth)
		}
		if x.Default != nil {
			down(x.Default, auth)
		}
	}
}

// up computes PDLNUMP: nodes that might produce a pdl number — raw
// numeric results needing pointer form.
func up(n tree.Node) {
	var buf [tree.ChildBuf]tree.Node
	for _, c := range tree.AppendChildren(buf[:0], n) {
		up(c)
	}
	in := n.Info()
	switch x := n.(type) {
	case *tree.Call:
		if fr, ok := x.Fn.(*tree.FunRef); ok {
			if p := prim.Lookup(fr.Name); p != nil && p.ResRep.Numeric() {
				in.PdlNumP = true
			}
		}
		if lam, ok := x.Fn.(*tree.Lambda); ok &&
			(lam.Strategy == tree.StrategyOpen || lam.Strategy == tree.StrategyJump) {
			in.PdlNumP = lam.Body.Info().PdlNumP
		}
	case *tree.If:
		in.PdlNumP = x.Then.Info().PdlNumP || x.Else.Info().PdlNumP
	case *tree.Progn:
		if len(x.Forms) > 0 {
			in.PdlNumP = x.Forms[len(x.Forms)-1].Info().PdlNumP
		}
	case *tree.Literal:
		in.PdlNumP = isNumericRaw(in.IsRep)
	default:
		in.PdlNumP = false
	}
}

func isNumericRaw(r tree.Rep) bool { return r.Numeric() }

// WantsPdlSlot reports whether the node's raw→pointer conversion should
// be stack-allocated: the four conditions of §6.3.
func WantsPdlSlot(n tree.Node) bool {
	in := n.Info()
	return in.PdlOkP != nil && in.PdlNumP &&
		in.WantRep == tree.RepPOINTER && in.IsRep.Numeric()
}
