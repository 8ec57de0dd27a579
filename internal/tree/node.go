// Package tree implements the compiler's internal program representation:
// an expression-oriented tree over the small construct set of Table 2 of
// the paper (literal, variable, caseq, catcher, go, if, lambda, progbody,
// progn, return, setq, call), decorated by successive phases and always
// back-translatable into valid source.
//
// There is no central symbol table: every distinct variable is a *Var
// carrying back-pointers to its binder and to every reference, exactly as
// §4.1 describes.
package tree

import (
	"fmt"

	"repro/internal/sexp"
)

// Kind discriminates node types.
type Kind int

// The internal construct set (Table 2).
const (
	KindLiteral  Kind = iota // constants (quote)
	KindVarRef               // variable reference
	KindCaseq                // case statement
	KindCatcher              // target for non-local exits (catch)
	KindGo                   // goto a progbody tag
	KindIf                   // if-then-else
	KindLambda               // lambda-expression (value = lexical closure)
	KindProgBody             // tagged statements; go/return operate on it
	KindProgn                // sequential execution (begin-end)
	KindReturn               // exit a surrounding progbody
	KindSetq                 // assignment
	KindCall                 // function invocation
	KindFunRef               // reference to a global/primitive function cell
)

var kindNames = map[Kind]string{
	KindLiteral: "literal", KindVarRef: "variable", KindCaseq: "caseq",
	KindCatcher: "catcher", KindGo: "go", KindIf: "if", KindLambda: "lambda",
	KindProgBody: "progbody", KindProgn: "progn", KindReturn: "return",
	KindSetq: "setq", KindCall: "call", KindFunRef: "funref",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Node is a node of the internal tree. Each node carries an Info block of
// per-phase annotation slots ("each node of the tree has extra data slots;
// these are filled in by successive phases of the compiler").
type Node interface {
	Info() *Info
	Kind() Kind
}

// Info holds the per-node annotation slots shared by all node kinds.
type Info struct {
	// Parent is the enclosing node; recomputed by ComputeParents after
	// tree surgery.
	Parent Node

	// Environment analysis (§4.2): variables read and written within the
	// subtree. These sets are read-only once analysis stores them: a
	// node shares a child's set when it adds no variable to it, so one
	// map may sit in many Info blocks. Re-analysis replaces a node's sets
	// and never writes the old ones; only the analysis package assigns
	// these fields (Copy clears them).
	Reads, Writes VarSet

	// Side-effects analysis: effects the subtree may produce, and effects
	// by which its value may be adversely affected.
	Effects, Sensitive Effect

	// Complexity analysis: preliminary object-code size estimate, used by
	// the optimizer's substitution heuristics.
	Complexity int

	// Tail-recursion analysis: true when the node is in tail position of
	// its enclosing lambda (its value is the lambda's value).
	Tail bool

	// Representation analysis (§6.2).
	WantRep, IsRep Rep

	// Pdl-number annotation (§6.3). PdlOkP, if non-nil, points to the node
	// that authorized production of a pdl (stack-allocated) number, which
	// bounds the required lifetime; PdlNumP reports the node itself might
	// produce one.
	PdlOkP  Node
	PdlNumP bool

	// Dirty supports the incremental re-analysis flag system of §4.2: the
	// optimizer marks nodes it rewrites, and analysis passes may confine
	// re-decoration to dirty regions.
	Dirty bool
}

// Literal is a constant (the quote construct). All constants are
// explicitly quoted internally for uniformity.
type Literal struct {
	NodeInfo Info
	Value    sexp.Value
}

// VarRef is a reference to a variable.
type VarRef struct {
	NodeInfo Info
	Var      *Var
}

// Setq assigns Value to Var.
type Setq struct {
	NodeInfo Info
	Var      *Var
	Value    Node
}

// If is the two-armed conditional; cond expands into nested Ifs because
// "if is simpler and symmetric, making program transformations easier".
type If struct {
	NodeInfo         Info
	Test, Then, Else Node
}

// Progn is sequential execution; its value is the last form's value.
type Progn struct {
	NodeInfo Info
	Forms    []Node
}

// Call is function invocation. The paper's three cases of interest are all
// Call nodes: calling a manifest lambda-expression (let), calling a known
// primitive (FunRef to a primitive, compiled in line), and calling a user
// or system function (FunRef or a variable holding a function).
type Call struct {
	NodeInfo Info
	Fn       Node
	Args     []Node
}

// FunRef is a reference to a global function cell (user-defined or
// primitive). In function position it denotes a direct call; in value
// position it is the (function f) construct.
type FunRef struct {
	NodeInfo Info
	Name     *sexp.Symbol
}

// OptParam is an &optional parameter with its default-value computation,
// which "may perform any computation, and may refer to other parameters
// occurring earlier in the same formal parameter set".
type OptParam struct {
	Var     *Var
	Default Node
}

// BindStrategy records the binding-annotation decision for a lambda
// (§4.4): how the lambda-expression is to be compiled.
type BindStrategy int

// Lambda compilation strategies, in decreasing order of knowledge about
// call sites.
const (
	// StrategyUnknown: binding annotation has not run.
	StrategyUnknown BindStrategy = iota
	// StrategyOpen: a manifest ((lambda ...) args) call whose body is
	// compiled in line (a let); no function object, no linkage at all.
	StrategyOpen
	// StrategyJump: all calls are visible and tail-recursive; calls
	// compile to parameter-passing gotos.
	StrategyJump
	// StrategyFastCall: all calls are visible but not all tail-recursive;
	// a special fast subroutine linkage without argument-count checks.
	StrategyFastCall
	// StrategyFullClosure: the lambda escapes; a closure object holding
	// the lexical environment must be constructed at run time.
	StrategyFullClosure
)

func (s BindStrategy) String() string {
	switch s {
	case StrategyOpen:
		return "OPEN"
	case StrategyJump:
		return "JUMP"
	case StrategyFastCall:
		return "FASTCALL"
	case StrategyFullClosure:
		return "FULL-CLOSURE"
	}
	return "UNKNOWN"
}

// Lambda is a lambda-expression; its value is a function (a lexical
// closure).
type Lambda struct {
	NodeInfo Info
	Name     string // defun name or a debugging label; "" if anonymous
	Required []*Var
	Optional []OptParam
	Rest     *Var
	Body     Node

	// Binding annotation results (§4.4).
	Strategy BindStrategy
	// HeapVars are the variables of this lambda that must live in a
	// heap-allocated environment because inner closures refer to them.
	HeapVars []*Var
	// SelfVar, when the lambda is bound to a variable all of whose call
	// sites are known, links back to that variable (used for the
	// jump/fast-call strategies).
	SelfVar *Var
}

// Params returns all parameter variables in order: required, optional,
// then rest.
func (l *Lambda) Params() []*Var {
	out := make([]*Var, 0, len(l.Required)+len(l.Optional)+1)
	out = append(out, l.Required...)
	for _, o := range l.Optional {
		out = append(out, o.Var)
	}
	if l.Rest != nil {
		out = append(out, l.Rest)
	}
	return out
}

// MinArgs and MaxArgs give the accepted argument-count range; MaxArgs is
// -1 for &rest lambdas.
func (l *Lambda) MinArgs() int { return len(l.Required) }

// MaxArgs returns the maximum argument count, or -1 when a &rest
// parameter accepts unboundedly many.
func (l *Lambda) MaxArgs() int {
	if l.Rest != nil {
		return -1
	}
	return len(l.Required) + len(l.Optional)
}

// ProgTag is a tag within a progbody: a label before the form at Index.
type ProgTag struct {
	Name  *sexp.Symbol
	Index int // position in Forms the tag precedes (may equal len(Forms))
}

// ProgBody contains tagged statements; go jumps to a tag and return exits
// the construct. The usual prog translates into a let containing a
// progbody.
type ProgBody struct {
	NodeInfo Info
	Forms    []Node
	Tags     []ProgTag
}

// TagIndex returns the form index for tag name, or -1.
func (p *ProgBody) TagIndex(name *sexp.Symbol) int {
	for _, t := range p.Tags {
		if t.Name == name {
			return t.Index
		}
	}
	return -1
}

// Go transfers control to a tag of an enclosing progbody.
type Go struct {
	NodeInfo Info
	Tag      *sexp.Symbol
	Target   *ProgBody
}

// Return exits the enclosing progbody with Value.
type Return struct {
	NodeInfo Info
	Value    Node
	Target   *ProgBody
}

// Catcher is the target for non-local exits (the catch construct).
type Catcher struct {
	NodeInfo Info
	Tag      Node
	Body     Node
}

// CaseClause is one arm of a caseq.
type CaseClause struct {
	Keys []sexp.Value
	Body Node
}

// Caseq dispatches on the (eql-compared) value of Key.
type Caseq struct {
	NodeInfo Info
	Key      Node
	Clauses  []CaseClause
	Default  Node // nil means the default yields nil
}

// Info/Kind implementations.

func (n *Literal) Info() *Info  { return &n.NodeInfo }
func (n *Literal) Kind() Kind   { return KindLiteral }
func (n *VarRef) Info() *Info   { return &n.NodeInfo }
func (n *VarRef) Kind() Kind    { return KindVarRef }
func (n *Setq) Info() *Info     { return &n.NodeInfo }
func (n *Setq) Kind() Kind      { return KindSetq }
func (n *If) Info() *Info       { return &n.NodeInfo }
func (n *If) Kind() Kind        { return KindIf }
func (n *Progn) Info() *Info    { return &n.NodeInfo }
func (n *Progn) Kind() Kind     { return KindProgn }
func (n *Call) Info() *Info     { return &n.NodeInfo }
func (n *Call) Kind() Kind      { return KindCall }
func (n *FunRef) Info() *Info   { return &n.NodeInfo }
func (n *FunRef) Kind() Kind    { return KindFunRef }
func (n *Lambda) Info() *Info   { return &n.NodeInfo }
func (n *Lambda) Kind() Kind    { return KindLambda }
func (n *ProgBody) Info() *Info { return &n.NodeInfo }
func (n *ProgBody) Kind() Kind  { return KindProgBody }
func (n *Go) Info() *Info       { return &n.NodeInfo }
func (n *Go) Kind() Kind        { return KindGo }
func (n *Return) Info() *Info   { return &n.NodeInfo }
func (n *Return) Kind() Kind    { return KindReturn }
func (n *Catcher) Info() *Info  { return &n.NodeInfo }
func (n *Catcher) Kind() Kind   { return KindCatcher }
func (n *Caseq) Info() *Info    { return &n.NodeInfo }
func (n *Caseq) Kind() Kind     { return KindCaseq }

// NewLiteral returns a literal node for v.
func NewLiteral(v sexp.Value) *Literal { return &Literal{Value: v} }

// NewRef creates a reference to v and registers it on v's back-pointer
// list.
func NewRef(v *Var) *VarRef {
	r := &VarRef{Var: v}
	v.Refs = append(v.Refs, r)
	return r
}

// NewSetq creates an assignment to v and registers it on v.
func NewSetq(v *Var, value Node) *Setq {
	s := &Setq{Var: v, Value: value}
	v.Sets = append(v.Sets, s)
	return s
}

// NilLiteral returns a fresh literal nil node.
func NilLiteral() *Literal { return NewLiteral(sexp.Nil) }
