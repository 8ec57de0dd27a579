package tree

import "fmt"

// AppendChildren appends the direct child nodes of n to dst in
// evaluation order and returns the extended slice. Lambda's children are
// the optional-parameter default expressions followed by the body.
// Recursive walks pass a small stack array (var buf [ChildBuf]Node;
// AppendChildren(buf[:0], n)), so visiting a node allocates nothing
// unless it has more children than the array holds.
func AppendChildren(dst []Node, n Node) []Node {
	switch x := n.(type) {
	case *Literal, *VarRef, *FunRef, *Go:
		return dst
	case *Setq:
		return append(dst, x.Value)
	case *If:
		return append(dst, x.Test, x.Then, x.Else)
	case *Progn:
		return append(dst, x.Forms...)
	case *Call:
		dst = append(dst, x.Fn)
		return append(dst, x.Args...)
	case *Lambda:
		for _, o := range x.Optional {
			dst = append(dst, o.Default)
		}
		return append(dst, x.Body)
	case *ProgBody:
		return append(dst, x.Forms...)
	case *Return:
		return append(dst, x.Value)
	case *Catcher:
		return append(dst, x.Tag, x.Body)
	case *Caseq:
		dst = append(dst, x.Key)
		for _, c := range x.Clauses {
			dst = append(dst, c.Body)
		}
		if x.Default != nil {
			dst = append(dst, x.Default)
		}
		return dst
	}
	panic(fmt.Sprintf("tree: AppendChildren: unknown node %T", n))
}

// ChildBuf is the size of the stack array a recursive walk hands to
// AppendChildren: large enough for every fixed-arity node and for most
// calls and progns.
const ChildBuf = 8

// ReplaceChild substitutes newc for oldc among parent's direct children.
// It panics if oldc is not a child of parent; VarRef back-pointers are the
// caller's responsibility.
func ReplaceChild(parent Node, oldc, newc Node) {
	switch x := parent.(type) {
	case *Setq:
		if x.Value == oldc {
			x.Value = newc
			return
		}
	case *If:
		switch oldc {
		case x.Test:
			x.Test = newc
			return
		case x.Then:
			x.Then = newc
			return
		case x.Else:
			x.Else = newc
			return
		}
	case *Progn:
		for i, f := range x.Forms {
			if f == oldc {
				x.Forms[i] = newc
				return
			}
		}
	case *Call:
		if x.Fn == oldc {
			x.Fn = newc
			return
		}
		for i, a := range x.Args {
			if a == oldc {
				x.Args[i] = newc
				return
			}
		}
	case *Lambda:
		if x.Body == oldc {
			x.Body = newc
			return
		}
		for i := range x.Optional {
			if x.Optional[i].Default == oldc {
				x.Optional[i].Default = newc
				return
			}
		}
	case *ProgBody:
		for i, f := range x.Forms {
			if f == oldc {
				x.Forms[i] = newc
				return
			}
		}
	case *Return:
		if x.Value == oldc {
			x.Value = newc
			return
		}
	case *Catcher:
		if x.Tag == oldc {
			x.Tag = newc
			return
		}
		if x.Body == oldc {
			x.Body = newc
			return
		}
	case *Caseq:
		if x.Key == oldc {
			x.Key = newc
			return
		}
		for i := range x.Clauses {
			if x.Clauses[i].Body == oldc {
				x.Clauses[i].Body = newc
				return
			}
		}
		if x.Default == oldc {
			x.Default = newc
			return
		}
	}
	panic(fmt.Sprintf("tree: ReplaceChild: %T is not a child of %T", oldc, parent))
}

// Walk calls f on n and every descendant, preorder. If f returns false the
// subtree below the node is skipped.
func Walk(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	var buf [ChildBuf]Node
	for _, c := range AppendChildren(buf[:0], n) {
		Walk(c, f)
	}
}

// PostWalk calls f on every node, children first.
func PostWalk(n Node, f func(Node)) {
	if n == nil {
		return
	}
	var buf [ChildBuf]Node
	for _, c := range AppendChildren(buf[:0], n) {
		PostWalk(c, f)
	}
	f(n)
}

// ComputeParents (re)establishes parent links below root. root's own
// parent is set to nil. Call after any tree surgery; maintaining links
// incrementally through transformations proved error-prone, so the
// compiler recomputes them per optimizer round.
func ComputeParents(root Node) {
	root.Info().Parent = nil
	var rec func(n Node)
	rec = func(n Node) {
		var buf [ChildBuf]Node
		for _, c := range AppendChildren(buf[:0], n) {
			c.Info().Parent = n
			rec(c)
		}
	}
	rec(root)
}

// EnclosingLambda returns the nearest lambda at or above n (following
// parent links), or nil.
func EnclosingLambda(n Node) *Lambda {
	for m := n; m != nil; m = m.Info().Parent {
		if l, ok := m.(*Lambda); ok {
			return l
		}
	}
	return nil
}

// CountNodes returns the number of nodes in the subtree.
func CountNodes(root Node) int {
	n := 0
	PostWalk(root, func(Node) { n++ })
	return n
}

// Validate checks structural invariants: every VarRef/Setq appears on its
// variable's back-pointer lists, parent links (if computed) are
// consistent, and Go/Return targets are progbodies in scope. It returns a
// descriptive error for the first violation. Tests call this after every
// phase.
func Validate(root Node) error {
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("tree: "+format, args...)
		}
	}
	// Gather progbodies in scope along the walk.
	var walk func(n Node, bodies []*ProgBody)
	walk = func(n Node, bodies []*ProgBody) {
		if err != nil {
			return
		}
		switch x := n.(type) {
		case *VarRef:
			found := false
			for _, r := range x.Var.Refs {
				if r == x {
					found = true
					break
				}
			}
			if !found {
				fail("reference to %s missing from back-pointer list", x.Var)
			}
		case *Setq:
			found := false
			for _, s := range x.Var.Sets {
				if s == x {
					found = true
					break
				}
			}
			if !found {
				fail("assignment to %s missing from back-pointer list", x.Var)
			}
		case *ProgBody:
			bodies = append(bodies, x)
			for _, t := range x.Tags {
				if t.Index < 0 || t.Index > len(x.Forms) {
					fail("tag %s index %d out of range", t.Name.Name, t.Index)
				}
			}
		case *Go:
			ok := false
			for _, b := range bodies {
				if b == x.Target {
					ok = true
					break
				}
			}
			if !ok {
				fail("go %s targets a progbody not in scope", x.Tag.Name)
			} else if x.Target.TagIndex(x.Tag) < 0 {
				fail("go %s: no such tag in target progbody", x.Tag.Name)
			}
		case *Return:
			ok := false
			for _, b := range bodies {
				if b == x.Target {
					ok = true
					break
				}
			}
			if !ok {
				fail("return targets a progbody not in scope")
			}
		}
		var buf [ChildBuf]Node
		for _, c := range AppendChildren(buf[:0], n) {
			walk(c, bodies)
		}
	}
	walk(root, nil)
	return err
}
