package tree

import (
	"strings"
	"testing"

	"repro/internal/sexp"
)

// buildLet constructs ((lambda (v) body) init) by hand.
func buildLet(name string, init Node, mkBody func(v *Var) Node) *Call {
	v := NewVar(sexp.Intern(name))
	l := &Lambda{Required: []*Var{v}}
	v.Binder = l
	l.Body = mkBody(v)
	return &Call{Fn: l, Args: []Node{init}}
}

func TestBackTranslateBasics(t *testing.T) {
	// ((lambda (x) (if x x 1)) 42)
	n := buildLet("x", NewLiteral(sexp.Fixnum(42)), func(v *Var) Node {
		return &If{Test: NewRef(v), Then: NewRef(v), Else: NewLiteral(sexp.Fixnum(1))}
	})
	got := Show(n)
	want := "((lambda (x) (if x x 1)) 42)"
	if got != want {
		t.Errorf("Show = %s, want %s", got, want)
	}
}

func TestBackTranslateQuoting(t *testing.T) {
	cases := []struct {
		v    sexp.Value
		want string
	}{
		{sexp.Fixnum(3), "3"},
		{sexp.Flonum(2), "2.0"},
		{sexp.Nil, "nil"},
		{sexp.T, "t"},
		{sexp.String("s"), `"s"`},
		{sexp.Intern("foo"), "'foo"},
		{mustRead("(1 2)"), "'(1 2)"},
	}
	for _, c := range cases {
		if got := Show(NewLiteral(c.v)); got != c.want {
			t.Errorf("literal %s prints %s, want %s", sexp.Print(c.v), got, c.want)
		}
	}
}

func TestBackTranslateLambdaList(t *testing.T) {
	a := NewVar(sexp.Intern("a"))
	b := NewVar(sexp.Intern("b"))
	c := NewVar(sexp.Intern("c"))
	r := NewVar(sexp.Intern("more"))
	l := &Lambda{
		Required: []*Var{a},
		Optional: []OptParam{
			{Var: b, Default: NewLiteral(sexp.Flonum(3))},
			{Var: c, Default: NewRef(a)},
		},
		Rest: r,
	}
	for _, v := range []*Var{a, b, c, r} {
		v.Binder = l
	}
	l.Body = NewRef(a)
	got := Show(l)
	want := "(lambda (a &optional (b 3.0) (c a) &rest more) a)"
	if got != want {
		t.Errorf("got %s want %s", got, want)
	}
}

func TestBackTranslateProgBodyGoReturn(t *testing.T) {
	pb := &ProgBody{}
	g := &Go{Tag: sexp.Intern("loop"), Target: pb}
	r := &Return{Value: NewLiteral(sexp.Fixnum(7)), Target: pb}
	pb.Forms = []Node{g, r}
	pb.Tags = []ProgTag{{Name: sexp.Intern("loop"), Index: 0}}
	got := Show(pb)
	want := "(progbody loop (go loop) (return 7))"
	if got != want {
		t.Errorf("got %s want %s", got, want)
	}
	if err := Validate(pb); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBackTranslateCaseqCatcher(t *testing.T) {
	k := NewVar(sexp.Intern("k"))
	l := &Lambda{Required: []*Var{k}}
	k.Binder = l
	cq := &Caseq{
		Key: NewRef(k),
		Clauses: []CaseClause{
			{Keys: []sexp.Value{sexp.Fixnum(1), sexp.Fixnum(2)}, Body: NewLiteral(sexp.Intern("small"))},
		},
		Default: NewLiteral(sexp.Intern("big")),
	}
	l.Body = cq
	got := Show(l)
	want := "(lambda (k) (caseq k ((1 2) 'small) (t 'big)))"
	if got != want {
		t.Errorf("got %s want %s", got, want)
	}
	cat := &Catcher{Tag: NewLiteral(sexp.Intern("done")), Body: NewLiteral(sexp.Fixnum(1))}
	if got := Show(cat); got != "(catch 'done 1)" {
		t.Errorf("catcher prints %s", got)
	}
}

func TestVarBackPointers(t *testing.T) {
	v := NewVar(sexp.Intern("x"))
	r1 := NewRef(v)
	r2 := NewRef(v)
	s := NewSetq(v, NewLiteral(sexp.Fixnum(1)))
	if len(v.Refs) != 2 || len(v.Sets) != 1 {
		t.Fatalf("backpointers: %d refs %d sets", len(v.Refs), len(v.Sets))
	}
	if !v.Assigned() {
		t.Error("Assigned should be true")
	}
	v.DropRef(r1)
	if len(v.Refs) != 1 || v.Refs[0] != r2 {
		t.Error("DropRef failed")
	}
	v.DropSet(s)
	if v.Assigned() {
		t.Error("DropSet failed")
	}
}

func TestVarSetOps(t *testing.T) {
	a, b, c := NewVar(sexp.Intern("a")), NewVar(sexp.Intern("b")), NewVar(sexp.Intern("c"))
	s := NewVarSet(a, b)
	if !s.Has(a) || s.Has(c) {
		t.Error("membership")
	}
	var acc SetUnion
	acc.Add(s)
	acc.Add(NewVarSet(a))
	if acc.Set() == nil || len(acc.Set()) != 2 {
		t.Error("union of a subset should keep the shared set")
	}
	acc.Add(NewVarSet(c))
	u := acc.Set()
	if !u.Has(c) || len(u) != 3 {
		t.Error("union")
	}
	if s.Has(c) || len(s) != 2 {
		t.Error("union wrote its input")
	}
	w := u.Without(a)
	if w.Has(a) || !w.Has(b) {
		t.Error("without")
	}
	if !u.Intersects(NewVarSet(c)) || u.Intersects(NewVarSet()) {
		t.Error("intersects")
	}
	var nilSet VarSet
	if nilSet.Has(a) {
		t.Error("nil set has nothing")
	}
	var one SetUnion
	one.AddVar(a)
	if got := one.Set(); !got.Has(a) || len(got) != 1 {
		t.Error("AddVar on an empty union")
	}
	var none SetUnion
	if none.Set() != nil {
		t.Error("empty union is not nil")
	}
	sorted := u.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].ID >= sorted[i].ID {
			t.Error("Sorted not ordered")
		}
	}
}

func TestChildrenAndReplace(t *testing.T) {
	n := buildLet("x", NewLiteral(sexp.Fixnum(1)), func(v *Var) Node {
		return &Progn{Forms: []Node{NewRef(v), NewLiteral(sexp.Fixnum(2))}}
	})
	kids := AppendChildren(nil, n)
	if len(kids) != 2 {
		t.Fatalf("call children = %d", len(kids))
	}
	// Replace the argument.
	rep := NewLiteral(sexp.Fixnum(9))
	ReplaceChild(n, n.Args[0], rep)
	if n.Args[0] != Node(rep) {
		t.Error("ReplaceChild on call arg failed")
	}
	// Replace inside progn.
	l := n.Fn.(*Lambda)
	pg := l.Body.(*Progn)
	nn := NewLiteral(sexp.Fixnum(3))
	ReplaceChild(pg, pg.Forms[1], nn)
	if pg.Forms[1] != Node(nn) {
		t.Error("ReplaceChild in progn failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("ReplaceChild of non-child should panic")
		}
	}()
	ReplaceChild(pg, NewLiteral(sexp.Fixnum(0)), nn)
}

func TestComputeParentsAndEnclosingLambda(t *testing.T) {
	n := buildLet("x", NewLiteral(sexp.Fixnum(1)), func(v *Var) Node {
		return &If{Test: NewRef(v), Then: NewRef(v), Else: NilLiteral()}
	})
	ComputeParents(n)
	l := n.Fn.(*Lambda)
	iff := l.Body.(*If)
	if iff.Info().Parent != Node(l) {
		t.Error("if's parent should be lambda")
	}
	if iff.Test.Info().Parent != Node(iff) {
		t.Error("test's parent should be if")
	}
	if EnclosingLambda(iff.Test) != l {
		t.Error("EnclosingLambda")
	}
	if n.Info().Parent != nil {
		t.Error("root parent should be nil")
	}
	if EnclosingLambda(n) != nil {
		t.Error("no enclosing lambda at root")
	}
}

func TestWalkOrders(t *testing.T) {
	n := buildLet("x", NewLiteral(sexp.Fixnum(1)), func(v *Var) Node {
		return NewRef(v)
	})
	var pre, post []Kind
	Walk(n, func(m Node) bool { pre = append(pre, m.Kind()); return true })
	PostWalk(n, func(m Node) { post = append(post, m.Kind()) })
	if pre[0] != KindCall || post[len(post)-1] != KindCall {
		t.Errorf("orders wrong: pre=%v post=%v", pre, post)
	}
	if CountNodes(n) != 4 { // call, lambda, varref, literal
		t.Errorf("CountNodes = %d", CountNodes(n))
	}
	// Pruned walk.
	count := 0
	Walk(n, func(m Node) bool { count++; return false })
	if count != 1 {
		t.Errorf("pruned walk visited %d", count)
	}
}

func TestCopyFreshensBoundVars(t *testing.T) {
	orig := buildLet("x", NewLiteral(sexp.Fixnum(1)), func(v *Var) Node {
		return &Progn{Forms: []Node{NewRef(v), NewSetq(v, NewLiteral(sexp.Fixnum(2)))}}
	})
	cp := Copy(orig).(*Call)
	ol := orig.Fn.(*Lambda)
	cl := cp.Fn.(*Lambda)
	if ol.Required[0] == cl.Required[0] {
		t.Fatal("copy did not freshen bound variable")
	}
	// The copy's references point at the fresh var and are registered.
	cref := cl.Body.(*Progn).Forms[0].(*VarRef)
	if cref.Var != cl.Required[0] {
		t.Error("copied ref points at wrong var")
	}
	if len(cl.Required[0].Refs) != 1 || len(cl.Required[0].Sets) != 1 {
		t.Errorf("fresh var backpointers: %d refs %d sets",
			len(cl.Required[0].Refs), len(cl.Required[0].Sets))
	}
	// Original unchanged.
	if len(ol.Required[0].Refs) != 1 || len(ol.Required[0].Sets) != 1 {
		t.Error("original var backpointers disturbed")
	}
	if err := Validate(cp); err != nil {
		t.Errorf("Validate(copy): %v", err)
	}
}

func TestCopyFreeVarsShared(t *testing.T) {
	free := NewVar(sexp.Intern("g"))
	n := &Progn{Forms: []Node{NewRef(free)}}
	cp := Copy(n).(*Progn)
	if cp.Forms[0].(*VarRef).Var != free {
		t.Error("free var should be shared")
	}
	if len(free.Refs) != 2 {
		t.Errorf("free var should have both refs registered, got %d", len(free.Refs))
	}
}

func TestCopyRetargetsJumps(t *testing.T) {
	pb := &ProgBody{}
	pb.Forms = []Node{&Go{Tag: sexp.Intern("l"), Target: pb}}
	pb.Tags = []ProgTag{{Name: sexp.Intern("l"), Index: 0}}
	cp := Copy(pb).(*ProgBody)
	if cp.Forms[0].(*Go).Target != cp {
		t.Error("go inside copied progbody must retarget")
	}
	// A go targeting an *outer* progbody keeps its target.
	outer := &ProgBody{}
	inner := &Progn{Forms: []Node{&Go{Tag: sexp.Intern("x"), Target: outer}}}
	cpi := Copy(inner).(*Progn)
	if cpi.Forms[0].(*Go).Target != outer {
		t.Error("go to outer progbody should keep target")
	}
}

func TestDetach(t *testing.T) {
	v := NewVar(sexp.Intern("x"))
	n := &Progn{Forms: []Node{NewRef(v), NewSetq(v, NewLiteral(sexp.Fixnum(1)))}}
	Detach(n)
	if len(v.Refs) != 0 || len(v.Sets) != 0 {
		t.Error("Detach should clear backpointers")
	}
}

func TestValidateCatchesBrokenBackPointer(t *testing.T) {
	v := NewVar(sexp.Intern("x"))
	bad := &VarRef{Var: v} // not registered
	n := &Progn{Forms: []Node{bad}}
	if err := Validate(n); err == nil {
		t.Error("Validate should reject unregistered reference")
	}
	v2 := NewVar(sexp.Intern("y"))
	bads := &Setq{Var: v2, Value: NilLiteral()}
	if err := Validate(&Progn{Forms: []Node{bads}}); err == nil {
		t.Error("Validate should reject unregistered setq")
	}
}

func TestValidateCatchesOutOfScopeGo(t *testing.T) {
	other := &ProgBody{Tags: []ProgTag{{Name: sexp.Intern("l"), Index: 0}}}
	g := &Go{Tag: sexp.Intern("l"), Target: other}
	if err := Validate(&Progn{Forms: []Node{g}}); err == nil {
		t.Error("Validate should reject go to out-of-scope progbody")
	}
	pb := &ProgBody{Forms: []Node{&Go{Tag: sexp.Intern("missing"), Target: nil}}}
	pb.Forms[0].(*Go).Target = pb
	if err := Validate(pb); err == nil {
		t.Error("Validate should reject go to missing tag")
	}
}

func TestRepProperties(t *testing.T) {
	raws := []Rep{RepSWFIX, RepSWFLO, RepBIT, RepDWFLO, RepSWCPLX}
	for _, r := range raws {
		if !r.Raw() {
			t.Errorf("%v should be raw", r)
		}
	}
	for _, r := range []Rep{RepPOINTER, RepJUMP, RepNONE, RepUnknown} {
		if r.Raw() {
			t.Errorf("%v should not be raw", r)
		}
	}
	// The pdl-eligible set: floats and complexes but not fixnums (fixnums
	// are immediate in pointer world).
	if !RepSWFLO.Numeric() || RepSWFIX.Numeric() || RepPOINTER.Numeric() {
		t.Error("Numeric classification wrong")
	}
	if RepSWFLO.String() != "SWFLO" || RepPOINTER.String() != "POINTER" {
		t.Error("Rep names")
	}
}

func TestEffectLattice(t *testing.T) {
	if !EffNone.Pure() || EffAlloc.Pure() {
		t.Error("Pure")
	}
	if !EffAlloc.PureExceptAlloc() || (EffAlloc | EffWrite).PureExceptAlloc() {
		t.Error("PureExceptAlloc")
	}
	if EffRead.Observable() || !EffWrite.Observable() || !EffCall.Observable() {
		t.Error("Observable")
	}
	s := (EffAlloc | EffControl).String()
	if !strings.Contains(s, "alloc") || !strings.Contains(s, "control") {
		t.Errorf("Effect string = %q", s)
	}
	if EffNone.String() != "pure" {
		t.Error("EffNone string")
	}
}

func TestLambdaArity(t *testing.T) {
	a, b := NewVar(sexp.Intern("a")), NewVar(sexp.Intern("b"))
	l := &Lambda{Required: []*Var{a}, Optional: []OptParam{{Var: b, Default: NilLiteral()}}}
	if l.MinArgs() != 1 || l.MaxArgs() != 2 {
		t.Errorf("arity = %d..%d", l.MinArgs(), l.MaxArgs())
	}
	l.Rest = NewVar(sexp.Intern("r"))
	if l.MaxArgs() != -1 {
		t.Error("rest lambda max arity should be -1")
	}
	ps := l.Params()
	if len(ps) != 3 || ps[0] != a || ps[1] != b {
		t.Error("Params order")
	}
}

func TestKindStrings(t *testing.T) {
	if KindLambda.String() != "lambda" || KindProgBody.String() != "progbody" {
		t.Error("kind names")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still print")
	}
	if StrategyFullClosure.String() != "FULL-CLOSURE" || StrategyUnknown.String() != "UNKNOWN" {
		t.Error("strategy names")
	}
}

func TestBackTranslateUnique(t *testing.T) {
	n := buildLet("x", NewLiteral(sexp.Fixnum(1)), func(v *Var) Node {
		return NewRef(v)
	})
	s := sexp.Print(BackTranslateUnique(n))
	if !strings.Contains(s, "x#") {
		t.Errorf("unique back-translation should tag vars: %s", s)
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

// TestAppendChildrenOrder pins the evaluation order AppendChildren yields
// for every node type: the twelve Table 2 constructs plus FunRef, a
// lambda with optional defaults, a caseq with and without a default, and
// a call with more arguments than a walk's stack buffer holds.
func TestAppendChildrenOrder(t *testing.T) {
	lit := func(i int) *Literal { return NewLiteral(sexp.Fixnum(int64(i))) }
	v := NewVar(sexp.Intern("x"))
	k := make([]*Literal, 12)
	for i := range k {
		k[i] = lit(i)
	}
	pb := &ProgBody{Forms: []Node{k[0], k[1], k[2]}, Tags: []ProgTag{{Name: sexp.Intern("top"), Index: 0}}}
	wide := &Call{Fn: &FunRef{Name: sexp.Intern("+")}}
	for i := 1; i < len(k); i++ {
		wide.Args = append(wide.Args, k[i])
	}
	cases := []struct {
		name string
		n    Node
		want []Node
	}{
		{"literal", k[0], nil},
		{"variable", NewRef(v), nil},
		{"funref", &FunRef{Name: sexp.Intern("car")}, nil},
		{"go", &Go{Tag: sexp.Intern("top"), Target: pb}, nil},
		{"setq", NewSetq(v, k[1]), []Node{k[1]}},
		{"if", &If{Test: k[1], Then: k[2], Else: k[3]}, []Node{k[1], k[2], k[3]}},
		{"progn", &Progn{Forms: []Node{k[3], k[2], k[1]}}, []Node{k[3], k[2], k[1]}},
		{"call", &Call{Fn: k[0], Args: []Node{k[1], k[2]}}, []Node{k[0], k[1], k[2]}},
		{"wide call", wide, append([]Node{wide.Fn}, wide.Args...)},
		{"lambda", &Lambda{Required: []*Var{v}, Body: k[4]}, []Node{k[4]}},
		{"lambda with optionals", &Lambda{
			Optional: []OptParam{{Var: NewVar(sexp.Intern("o1")), Default: k[5]}, {Var: NewVar(sexp.Intern("o2")), Default: k[6]}},
			Body:     k[7],
		}, []Node{k[5], k[6], k[7]}},
		{"progbody", pb, []Node{k[0], k[1], k[2]}},
		{"return", &Return{Value: k[8], Target: pb}, []Node{k[8]}},
		{"catcher", &Catcher{Tag: k[9], Body: k[10]}, []Node{k[9], k[10]}},
		{"caseq", &Caseq{Key: k[1], Clauses: []CaseClause{
			{Keys: []sexp.Value{sexp.Fixnum(1)}, Body: k[2]},
			{Keys: []sexp.Value{sexp.Fixnum(2)}, Body: k[3]},
		}}, []Node{k[1], k[2], k[3]}},
		{"caseq with default", &Caseq{Key: k[1], Clauses: []CaseClause{
			{Keys: []sexp.Value{sexp.Fixnum(1)}, Body: k[2]},
		}, Default: k[4]}, []Node{k[1], k[2], k[4]}},
	}
	kinds := map[Kind]bool{}
	for _, c := range cases {
		kinds[c.n.Kind()] = true
		var buf [ChildBuf]Node
		got := AppendChildren(buf[:0], c.n)
		if len(got) != len(c.want) {
			t.Errorf("%s: %d children, want %d", c.name, len(got), len(c.want))
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: child %d is %s, want %s", c.name, i, Show(got[i]), Show(c.want[i]))
			}
		}
		// Appending keeps what dst already holds.
		pre := AppendChildren([]Node{k[11]}, c.n)
		if len(pre) != len(c.want)+1 || pre[0] != Node(k[11]) {
			t.Errorf("%s: AppendChildren dropped the destination's contents", c.name)
		}
	}
	if len(kinds) != 13 {
		t.Errorf("table covers %d node kinds, want all 13", len(kinds))
	}
}
