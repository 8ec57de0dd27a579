package tree

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/sexp"
)

// Var is the little data structure associated with every distinct variable
// ("two variables with the same name may be distinct because of scoping
// rules"). The binder and all references point at it, and it points back.
type Var struct {
	Name *sexp.Symbol
	// ID makes distinct same-named variables distinguishable in debug
	// output.
	ID int64
	// Special marks dynamic scoping (the LISP term is "special").
	Special bool
	// Binder is the lambda that binds this variable, or nil for free
	// (global or special) variables.
	Binder *Lambda
	// Refs and Sets are back-pointers to every reference and assignment.
	Refs []*VarRef
	Sets []*Setq

	// Binding annotation (§4.4): Closed marks variables referred to by
	// inner closures, which therefore require heap allocation.
	Closed bool

	// only is the read-only set {v}, made with the record: every
	// reference's Reads and every assignment whose value writes nothing
	// else share it instead of allocating their own.
	only VarSet
}

var varCounter int64

// NewVar creates a fresh variable record.
func NewVar(name *sexp.Symbol) *Var {
	v := &Var{Name: name, ID: atomic.AddInt64(&varCounter, 1)}
	v.only = VarSet{v: {}}
	return v
}

// String renders the variable for diagnostics as name#id.
func (v *Var) String() string {
	if v == nil {
		return "<nil-var>"
	}
	return fmt.Sprintf("%s#%d", v.Name.Name, v.ID)
}

// DropRef removes a reference from the back-pointer list (used when the
// optimizer deletes or replaces a reference node).
func (v *Var) DropRef(r *VarRef) {
	for i, x := range v.Refs {
		if x == r {
			v.Refs = append(v.Refs[:i], v.Refs[i+1:]...)
			return
		}
	}
}

// DropSet removes an assignment back-pointer.
func (v *Var) DropSet(s *Setq) {
	for i, x := range v.Sets {
		if x == s {
			v.Sets = append(v.Sets[:i], v.Sets[i+1:]...)
			return
		}
	}
}

// Assigned reports whether the variable is ever setq'd.
func (v *Var) Assigned() bool { return len(v.Sets) > 0 }

// VarSet is a set of variables. The sets analysis stores in Info slots
// are shared between nodes (SetUnion) and so are read-only; see Info.
type VarSet map[*Var]struct{}

// NewVarSet builds a set from vars.
func NewVarSet(vars ...*Var) VarSet {
	s := make(VarSet, len(vars))
	for _, v := range vars {
		s[v] = struct{}{}
	}
	return s
}

// Has reports membership.
func (s VarSet) Has(v *Var) bool {
	_, ok := s[v]
	return ok
}

// covers reports whether every element of o is in s.
func (s VarSet) covers(o VarSet) bool {
	if len(o) > len(s) {
		return false
	}
	for v := range o {
		if !s.Has(v) {
			return false
		}
	}
	return true
}

// SetUnion accumulates the union of read-only sets without copying them
// where it can: it shares an input that already holds everything added
// so far, and makes a set of its own only when an input brings a
// variable the shared one lacks. Its inputs are never written. The zero
// value is the empty union.
type SetUnion struct {
	set   VarSet
	owned bool
}

// Add merges o into the union.
func (u *SetUnion) Add(o VarSet) {
	switch {
	case len(o) == 0 || u.set.covers(o):
	case !u.owned && o.covers(u.set):
		u.set = o
	default:
		u.own(len(o))
		for v := range o {
			u.set[v] = struct{}{}
		}
	}
}

// AddVar adds one variable to the union.
func (u *SetUnion) AddVar(v *Var) {
	switch {
	case u.set.Has(v):
	case len(u.set) == 0 && v.only != nil:
		u.set = v.only
	default:
		u.own(1)
		u.set[v] = struct{}{}
	}
}

// own gives the union a private copy of its set with room for extra more
// variables, unless it has one already.
func (u *SetUnion) own(extra int) {
	if u.owned {
		return
	}
	s := make(VarSet, len(u.set)+extra)
	for v := range u.set {
		s[v] = struct{}{}
	}
	u.set, u.owned = s, true
}

// Set returns the union; nil when it is empty. The result may be one of
// the inputs, so it is read-only too.
func (u *SetUnion) Set() VarSet { return u.set }

// Without returns a copy of s with the given vars removed.
func (s VarSet) Without(vars ...*Var) VarSet {
	out := make(VarSet, len(s))
	for v := range s {
		out[v] = struct{}{}
	}
	for _, v := range vars {
		delete(out, v)
	}
	return out
}

// Intersects reports whether the sets share an element.
func (s VarSet) Intersects(o VarSet) bool {
	small, large := s, o
	if len(large) < len(small) {
		small, large = large, small
	}
	for v := range small {
		if large.Has(v) {
			return true
		}
	}
	return false
}

// Sorted returns the variables ordered by ID (deterministic output).
func (s VarSet) Sorted() []*Var {
	out := make([]*Var, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
