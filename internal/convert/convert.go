// Package convert implements the compiler's preliminary phase (§4.1 of
// the paper): syntax checking, macro expansion, resolution of variable
// references, and conversion of source programs into the internal tree
// form over the small basic construct set of Table 2.
//
// "All other program constructs are expanded as macros or otherwise
// re-expressed in terms of the small basic set": let becomes a call to a
// manifest lambda-expression, cond becomes nested ifs, and/or become the
// lambda/if encodings shown in §5, prog becomes a let containing a
// progbody, and so on. Every variable binding creates a fresh tree.Var,
// so the whole program is uniformly alpha-renamed.
package convert

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/sexp"
	"repro/internal/tree"
)

// ConvertError reports a syntax error during conversion.
type ConvertError struct {
	Form sexp.Value
	Msg  string
	// Err is the classifying error, when there is one (ErrTooDeep).
	Err error
}

func (e *ConvertError) Error() string {
	return fmt.Sprintf("convert: %s in %s", e.Msg, sexp.Print(e.Form))
}

func (e *ConvertError) Unwrap() error { return e.Err }

// maxConvertDepth bounds the converter's recursion: form nesting plus
// the chain of macro expansions it passes through, since each expansion
// converts its result one level deeper. Real programs sit far below it;
// a macro that expands to a call of itself reaches it quickly. It is
// below the reader's own nesting bound because an expansion chain can
// cost time and heap quadratic in its length (a form that grows by one
// level per expansion is copied in and out of the expander each time).
const maxConvertDepth = 1_000

// ErrTooDeep classifies a form past maxConvertDepth.
var ErrTooDeep = errors.New("form nested too deeply")

func errf(form sexp.Value, format string, args ...any) error {
	return &ConvertError{Form: form, Msg: fmt.Sprintf(format, args...)}
}

// Def is a top-level function definition.
type Def struct {
	Name   *sexp.Symbol
	Lambda *tree.Lambda
	// Source is the original defun form, before macro expansion and
	// alpha-renaming; printing it gives a stable content-address for the
	// compile cache (the converted tree is not reproducible — its
	// generated variable names differ run to run).
	Source sexp.Value
}

// Program is the result of converting a sequence of top-level forms.
type Program struct {
	// Defs holds defun'd functions in definition order.
	Defs []*Def
	// TopForms holds the remaining top-level expressions (including
	// defvar initializations) in order.
	TopForms []tree.Node
	// Specials is the set of proclaimed special (dynamically scoped)
	// variable names.
	Specials map[*sexp.Symbol]bool
}

// DefNamed returns the definition for name, or nil.
func (p *Program) DefNamed(name *sexp.Symbol) *Def {
	for _, d := range p.Defs {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// Converter turns source forms into internal trees.
type Converter struct {
	// Specials is the proclaimed-special set; symbols spelled *with
	// earmuffs* are treated as special as well, following convention.
	Specials map[*sexp.Symbol]bool
	// globals maps each special/global symbol to its single shared Var
	// record (dynamic references all denote the current binding).
	globals map[*sexp.Symbol]*tree.Var
	// Constants maps symbols to compile-time constant values: references
	// become literals (used for the static arrays of the numeric
	// experiments).
	Constants map[*sexp.Symbol]sexp.Value
	// UserMacro, if non-nil, is consulted for unknown head symbols; it
	// returns the expansion and true if the form was a user macro call.
	// The core package runs an expander compiled on the system's
	// machine (for its Interpret oracle, an interpreter closure).
	UserMacro func(head *sexp.Symbol, form sexp.Value) (sexp.Value, bool, error)
	// OnDefmacro, if non-nil, receives top-level (defmacro name args
	// body...) definitions; the host registers the expander behind
	// UserMacro.
	OnDefmacro func(name *sexp.Symbol, lambdaList sexp.Value, body []sexp.Value) error
	// gen numbers this converter's generated symbols (see gensym).
	gen int
	// used lists the proclaimed specials IsSpecial has answered for
	// since the current TopForm began (see SpecialsUsed).
	used []*sexp.Symbol
	// depth is Convert's current recursion depth (maxConvertDepth).
	depth int
}

// New returns a fresh Converter.
func New() *Converter {
	return &Converter{
		Specials: map[*sexp.Symbol]bool{},
		globals:  map[*sexp.Symbol]*tree.Var{},
	}
}

// env is the compile-time lexical environment: a chain of variable
// bindings plus visible progbodies for go/return resolution.
type env struct {
	parent *env
	vars   map[*sexp.Symbol]*tree.Var
	// body is a progbody introduced at this level (for prog), if any.
	body *ProgBodyScope
}

// ProgBodyScope tracks an open progbody during conversion.
type ProgBodyScope struct {
	PB *tree.ProgBody
}

func (e *env) lookup(s *sexp.Symbol) *tree.Var {
	for c := e; c != nil; c = c.parent {
		if c.vars != nil {
			if v, ok := c.vars[s]; ok {
				return v
			}
		}
	}
	return nil
}

func (e *env) child() *env { return &env{parent: e, vars: map[*sexp.Symbol]*tree.Var{}} }

func (e *env) findTag(tag *sexp.Symbol) *tree.ProgBody {
	for c := e; c != nil; c = c.parent {
		if c.body != nil && c.body.PB.TagIndex(tag) >= 0 {
			return c.body.PB
		}
	}
	return nil
}

func (e *env) innermostBody() *tree.ProgBody {
	for c := e; c != nil; c = c.parent {
		if c.body != nil {
			return c.body.PB
		}
	}
	return nil
}

// IsSpecial reports whether sym is dynamically scoped.
func (c *Converter) IsSpecial(sym *sexp.Symbol) bool {
	n := sym.Name
	if len(n) >= 3 && n[0] == '*' && n[len(n)-1] == '*' {
		return true
	}
	if !c.Specials[sym] {
		return false
	}
	if !slices.Contains(c.used, sym) {
		c.used = append(c.used, sym)
	}
	return true
}

// SpecialsUsed names, sorted and space-separated, the proclaimed
// specials whose proclamation the last TopForm's conversion consulted.
// The same printed form converts differently when a symbol it binds
// is proclaimed special, so this is part of a compiled unit's content
// address. Earmuffed names are special whatever is proclaimed and are
// left out.
func (c *Converter) SpecialsUsed() string {
	names := make([]string, len(c.used))
	for i, sym := range c.used {
		names[i] = sym.Name
	}
	slices.Sort(names)
	return strings.Join(names, " ")
}

// gensym returns a fresh uninterned symbol numbered by a per-converter
// counter: the names surface in jump labels and listings, so drawing them
// from a process-global stream would make two Systems in one process
// compile the same source to textually different images.
func (c *Converter) gensym(prefix string) *sexp.Symbol {
	c.gen++
	return &sexp.Symbol{Name: fmt.Sprintf("%s%d", prefix, c.gen)}
}

// globalVar returns the shared Var record for a special/global symbol.
func (c *Converter) globalVar(sym *sexp.Symbol) *tree.Var {
	if v, ok := c.globals[sym]; ok {
		return v
	}
	v := tree.NewVar(sym)
	v.Special = true
	c.globals[sym] = v
	return v
}

// ConvertTopLevel converts a whole program, stopping at the first bad
// form. Callers that want to keep going past a bad unit use the
// per-form API (ScanProclaim over everything, then TopForm one form at
// a time, collecting errors) — tree construction is per-form, so a
// failed form contributes nothing to the Program and later forms
// convert exactly as if it had been deleted from the source.
func (c *Converter) ConvertTopLevel(forms []sexp.Value) (*Program, error) {
	p := NewProgram()
	// First pass: gather proclamations so that later defuns see them.
	for _, f := range forms {
		c.ScanProclaim(f)
	}
	for _, f := range forms {
		if err := c.TopForm(p, f); err != nil {
			return nil, err
		}
	}
	c.FinishProgram(p)
	return p, nil
}

// NewProgram returns an empty Program for incremental per-form
// conversion via TopForm.
func NewProgram() *Program {
	return &Program{Specials: map[*sexp.Symbol]bool{}}
}

// FinishProgram copies the converter's accumulated special-set into the
// program; call it after the last TopForm.
func (c *Converter) FinishProgram(p *Program) {
	for s := range c.Specials {
		p.Specials[s] = true
	}
}

// ScanProclaim records special-variable proclamations made by form
// (proclaim/declaim/defvar/...). It never fails: malformed
// proclamations are left for TopForm to diagnose.
func (c *Converter) ScanProclaim(form sexp.Value) {
	items, err := sexp.ListToSlice(form)
	if err != nil || len(items) == 0 {
		return
	}
	head, ok := items[0].(*sexp.Symbol)
	if !ok {
		return
	}
	switch head.Name {
	case "proclaim", "declaim":
		for _, a := range items[1:] {
			// (proclaim '(special x y)) or (declaim (special x y))
			if q, e := sexp.ListToSlice(a); e == nil && len(q) == 2 && q[0] == sexp.Value(sexp.SymQuote) {
				a = q[1]
			}
			decl, e := sexp.ListToSlice(a)
			if e != nil || len(decl) == 0 {
				continue
			}
			if d, ok := decl[0].(*sexp.Symbol); ok && d.Name == "special" {
				for _, s := range decl[1:] {
					if sym, ok := s.(*sexp.Symbol); ok {
						c.Specials[sym] = true
					}
				}
			}
		}
	case "defvar", "defparameter", "defconstant":
		if len(items) >= 2 {
			if sym, ok := items[1].(*sexp.Symbol); ok {
				c.Specials[sym] = true
			}
		}
	}
}

// TopForm converts one top-level form into p. An error leaves p exactly
// as it was: conversion state is per-form, so callers may report the
// error and continue with the next form.
func (c *Converter) TopForm(p *Program, form sexp.Value) error {
	// Each top-level form gets its own global/special Var records: dynamic
	// references denote the current binding by *name*, so nothing needs
	// the records shared across definitions — and sharing them would let
	// the optimizer's tree surgery on one function mutate the Refs/Sets
	// lists of another being compiled concurrently.
	c.globals = map[*sexp.Symbol]*tree.Var{}
	// The gensym stream likewise restarts per form (the symbols are
	// uninterned, so reuse across forms cannot collide). This keeps the
	// generated names in a unit's listing a function of that unit alone —
	// a unit rejected with an error must not shift the numbering of its
	// neighbours, or error recovery would change the image of the
	// surviving units.
	c.gen = 0
	c.used = c.used[:0]
	c.depth = 0
	items, err := sexp.ListToSlice(form)
	if err == nil && len(items) > 0 {
		if head, ok := items[0].(*sexp.Symbol); ok {
			switch head.Name {
			case "defun":
				if len(items) < 3 {
					return errf(form, "defun needs a name and a lambda-list")
				}
				name, ok := items[1].(*sexp.Symbol)
				if !ok {
					return errf(form, "defun name must be a symbol")
				}
				lam, err := c.convertLambdaParts(name.Name, items[2], items[3:], topEnv())
				if err != nil {
					return err
				}
				p.Defs = append(p.Defs, &Def{Name: name, Lambda: lam, Source: form})
				return nil
			case "defmacro":
				if c.OnDefmacro == nil {
					return errf(form, "defmacro is not supported in this context")
				}
				if len(items) < 3 {
					return errf(form, "defmacro needs a name and a lambda-list")
				}
				name, ok := items[1].(*sexp.Symbol)
				if !ok {
					return errf(form, "defmacro name must be a symbol")
				}
				return c.OnDefmacro(name, items[2], items[3:])
			case "proclaim", "declaim":
				return nil // handled in scanProclaim
			case "defvar", "defparameter", "defconstant":
				if len(items) >= 3 {
					sym, ok := items[1].(*sexp.Symbol)
					if !ok {
						return errf(form, "%s name must be a symbol", head.Name)
					}
					init, err := c.Convert(items[2], topEnv())
					if err != nil {
						return err
					}
					v := c.globalVar(sym)
					p.TopForms = append(p.TopForms, tree.NewSetq(v, init))
				}
				return nil
			}
		}
	}
	n, err := c.Convert(form, topEnv())
	if err != nil {
		return err
	}
	p.TopForms = append(p.TopForms, n)
	return nil
}

func topEnv() *env { return &env{vars: map[*sexp.Symbol]*tree.Var{}} }

// WrapToplevel wraps a converted top-level form in a nullary lambda so it
// can be compiled and invoked as a function.
func WrapToplevel(form tree.Node) *tree.Lambda {
	return &tree.Lambda{Name: "toplevel", Body: form}
}

// ConvertForm converts a single expression in an empty lexical
// environment.
func (c *Converter) ConvertForm(form sexp.Value) (tree.Node, error) {
	return c.Convert(form, topEnv())
}

// ConvertLambda converts a (lambda ...) form to a Lambda node in an
// empty environment. Any other form, a (defun ...) included, is an
// error: a defun converts to its definition, not to a Lambda.
func (c *Converter) ConvertLambda(form sexp.Value) (*tree.Lambda, error) {
	n, err := c.ConvertForm(form)
	if err != nil {
		return nil, err
	}
	l, ok := n.(*tree.Lambda)
	if !ok {
		return nil, errf(form, "not a lambda-expression")
	}
	return l, nil
}

// Convert converts form in lexical environment e.
func (c *Converter) Convert(form sexp.Value, e *env) (tree.Node, error) {
	if c.depth >= maxConvertDepth {
		if cons, ok := form.(*sexp.Cons); ok {
			form = cons.Car // the whole form can be as deep as the bound
		}
		return nil, &ConvertError{Form: form, Err: ErrTooDeep,
			Msg: fmt.Sprintf("%v (over %d levels, macro expansions included)", ErrTooDeep, maxConvertDepth)}
	}
	c.depth++
	n, err := c.convert(form, e)
	c.depth--
	return n, err
}

func (c *Converter) convert(form sexp.Value, e *env) (tree.Node, error) {
	switch v := form.(type) {
	case sexp.Fixnum, *sexp.Bignum, *sexp.Ratio, sexp.Flonum, sexp.String,
		sexp.Character, *sexp.Vector:
		return tree.NewLiteral(v), nil
	case *sexp.Symbol:
		return c.convertSymbol(v, e)
	case *sexp.Cons:
		return c.convertList(form, e)
	}
	return nil, errf(form, "cannot convert %T", form)
}

func (c *Converter) convertSymbol(s *sexp.Symbol, e *env) (tree.Node, error) {
	if s == sexp.Nil || s == sexp.T {
		return tree.NewLiteral(s), nil
	}
	if c.Constants != nil {
		if v, ok := c.Constants[s]; ok {
			return tree.NewLiteral(v), nil
		}
	}
	if !c.IsSpecial(s) {
		if v := e.lookup(s); v != nil {
			return tree.NewRef(v), nil
		}
	}
	// Free references denote the symbol's dynamic value cell.
	return tree.NewRef(c.globalVar(s)), nil
}

func (c *Converter) convertList(form sexp.Value, e *env) (tree.Node, error) {
	items, err := sexp.ListToSlice(form)
	if err != nil {
		return nil, errf(form, "dotted form")
	}
	if len(items) == 0 {
		return tree.NilLiteral(), nil
	}
	head, ok := items[0].(*sexp.Symbol)
	if !ok {
		// ((lambda ...) args) — direct call of a manifest function.
		fn, err := c.Convert(items[0], e)
		if err != nil {
			return nil, err
		}
		if _, ok := fn.(*tree.Lambda); !ok {
			return nil, errf(form, "illegal function position")
		}
		return c.finishCall(fn, items[1:], e)
	}
	args := items[1:]
	switch head.Name {
	case "quote":
		if len(args) != 1 {
			return nil, errf(form, "quote takes one argument")
		}
		return tree.NewLiteral(args[0]), nil
	case "function":
		if len(args) != 1 {
			return nil, errf(form, "function takes one argument")
		}
		if sym, ok := args[0].(*sexp.Symbol); ok {
			if v := e.lookup(sym); v != nil && !c.IsSpecial(sym) {
				// #'x where x is lexical: just the variable's value.
				return tree.NewRef(v), nil
			}
			return &tree.FunRef{Name: sym}, nil
		}
		return c.Convert(args[0], e) // #'(lambda ...)
	case "lambda":
		if len(args) < 1 {
			return nil, errf(form, "lambda needs a parameter list")
		}
		return c.convertLambdaParts("", args[0], args[1:], e)
	case "if":
		if len(args) < 2 || len(args) > 3 {
			return nil, errf(form, "if takes 2 or 3 arguments")
		}
		test, err := c.Convert(args[0], e)
		if err != nil {
			return nil, err
		}
		then, err := c.Convert(args[1], e)
		if err != nil {
			return nil, err
		}
		var els tree.Node = tree.NilLiteral()
		if len(args) == 3 {
			if els, err = c.Convert(args[2], e); err != nil {
				return nil, err
			}
		}
		return &tree.If{Test: test, Then: then, Else: els}, nil
	case "progn":
		return c.convertProgn(args, e)
	case "setq":
		return c.convertSetq(form, args, e)
	case "let":
		return c.convertLet(form, args, e, false)
	case "let*":
		return c.convertLet(form, args, e, true)
	case "cond":
		return c.convertCond(args, e)
	case "and":
		return c.convertAnd(args, e)
	case "or":
		return c.convertOr(args, e)
	case "when":
		if len(args) < 1 {
			return nil, errf(form, "when needs a test")
		}
		return c.listToIf(args[0], args[1:], nil, e)
	case "unless":
		if len(args) < 1 {
			return nil, errf(form, "unless needs a test")
		}
		return c.listToIf(args[0], nil, args[1:], e)
	case "prog":
		return c.convertProg(form, args, e)
	case "go":
		if len(args) != 1 {
			return nil, errf(form, "go takes one tag")
		}
		tag, ok := args[0].(*sexp.Symbol)
		if !ok {
			return nil, errf(form, "go tag must be a symbol")
		}
		target := e.findTag(tag)
		if target == nil {
			return nil, errf(form, "go to undefined tag %s", tag.Name)
		}
		return &tree.Go{Tag: tag, Target: target}, nil
	case "return":
		target := e.innermostBody()
		if target == nil {
			return nil, errf(form, "return outside prog")
		}
		var val tree.Node = tree.NilLiteral()
		if len(args) == 1 {
			var err error
			if val, err = c.Convert(args[0], e); err != nil {
				return nil, err
			}
		} else if len(args) > 1 {
			return nil, errf(form, "return takes at most one value")
		}
		return &tree.Return{Value: val, Target: target}, nil
	case "do", "do*":
		return c.convertDo(form, args, e, head.Name == "do*")
	case "dotimes":
		return c.convertDotimes(form, args, e)
	case "dolist":
		return c.convertDolist(form, args, e)
	case "case", "caseq":
		return c.convertCaseq(form, args, e)
	case "catch":
		if len(args) < 1 {
			return nil, errf(form, "catch needs a tag")
		}
		tag, err := c.Convert(args[0], e)
		if err != nil {
			return nil, err
		}
		body, err := c.convertProgn(args[1:], e)
		if err != nil {
			return nil, err
		}
		return &tree.Catcher{Tag: tag, Body: body}, nil
	case "funcall":
		if len(args) < 1 {
			return nil, errf(form, "funcall needs a function")
		}
		fn, err := c.Convert(args[0], e)
		if err != nil {
			return nil, err
		}
		return c.finishCall(fn, args[1:], e)
	case "declare":
		// Bare declare in expression position: ignored (handled by
		// binding constructs).
		return tree.NilLiteral(), nil
	case "quasiquote":
		if len(args) != 1 {
			return nil, errf(form, "quasiquote takes one argument")
		}
		expanded, err := expandQuasi(args[0], 1)
		if err != nil {
			return nil, err
		}
		return c.Convert(expanded, e)
	case "unquote", "unquote-splicing":
		return nil, errf(form, "comma outside backquote")
	case "psetq":
		return c.convertPsetq(form, args, e)
	case "incf", "decf":
		if len(args) < 1 || len(args) > 2 {
			return nil, errf(form, "%s takes 1 or 2 arguments", head.Name)
		}
		delta := sexp.Value(sexp.Fixnum(1))
		if len(args) == 2 {
			delta = args[1]
		}
		op := "+"
		if head.Name == "decf" {
			op = "-"
		}
		return c.Convert(sexp.List(sexp.Intern("setq"), args[0],
			sexp.List(sexp.Intern(op), args[0], delta)), e)
	case "push":
		if len(args) != 2 {
			return nil, errf(form, "push takes 2 arguments")
		}
		return c.Convert(sexp.List(sexp.Intern("setq"), args[1],
			sexp.List(sexp.Intern("cons"), args[0], args[1])), e)
	case "pop":
		if len(args) != 1 {
			return nil, errf(form, "pop takes 1 argument")
		}
		// (let ((tmp (car place))) (setq place (cdr place)) tmp)
		tmp := c.gensym("pop")
		return c.Convert(sexp.List(sexp.Intern("let"),
			sexp.List(sexp.List(tmp, sexp.List(sexp.Intern("car"), args[0]))),
			sexp.List(sexp.Intern("setq"), args[0], sexp.List(sexp.Intern("cdr"), args[0])),
			tmp), e)
	}
	// User macros.
	if c.UserMacro != nil {
		if exp, ok, err := c.UserMacro(head, form); err != nil {
			return nil, err
		} else if ok {
			return c.Convert(exp, e)
		}
	}
	// Ordinary call. A lexically bound head symbol is called as a
	// variable (the internal language is Scheme-like here, matching the
	// paper's ((lambda (f) (f)) …) forms).
	if v := e.lookup(head); v != nil && !c.IsSpecial(head) {
		return c.finishCall(tree.NewRef(v), args, e)
	}
	return c.finishCall(&tree.FunRef{Name: head}, args, e)
}

func (c *Converter) finishCall(fn tree.Node, args []sexp.Value, e *env) (tree.Node, error) {
	call := &tree.Call{Fn: fn}
	for _, a := range args {
		n, err := c.Convert(a, e)
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, n)
	}
	return call, nil
}

func (c *Converter) convertProgn(forms []sexp.Value, e *env) (tree.Node, error) {
	if len(forms) == 0 {
		return tree.NilLiteral(), nil
	}
	if len(forms) == 1 {
		return c.Convert(forms[0], e)
	}
	out := &tree.Progn{}
	for _, f := range forms {
		n, err := c.Convert(f, e)
		if err != nil {
			return nil, err
		}
		out.Forms = append(out.Forms, n)
	}
	return out, nil
}

func (c *Converter) convertSetq(form sexp.Value, args []sexp.Value, e *env) (tree.Node, error) {
	if len(args) == 0 || len(args)%2 != 0 {
		return nil, errf(form, "setq needs variable/value pairs")
	}
	var sets []tree.Node
	for i := 0; i < len(args); i += 2 {
		sym, ok := args[i].(*sexp.Symbol)
		if !ok {
			return nil, errf(form, "setq of non-symbol %s", sexp.Print(args[i]))
		}
		val, err := c.Convert(args[i+1], e)
		if err != nil {
			return nil, err
		}
		var v *tree.Var
		if !c.IsSpecial(sym) {
			v = e.lookup(sym)
		}
		if v == nil {
			v = c.globalVar(sym)
		}
		sets = append(sets, tree.NewSetq(v, val))
	}
	if len(sets) == 1 {
		return sets[0], nil
	}
	return &tree.Progn{Forms: sets}, nil
}

// listToIf builds (if test (progn then...) (progn else...)).
func (c *Converter) listToIf(test sexp.Value, then, els []sexp.Value, e *env) (tree.Node, error) {
	tn, err := c.Convert(test, e)
	if err != nil {
		return nil, err
	}
	thn, err := c.convertProgn(then, e)
	if err != nil {
		return nil, err
	}
	eln, err := c.convertProgn(els, e)
	if err != nil {
		return nil, err
	}
	return &tree.If{Test: tn, Then: thn, Else: eln}, nil
}

func (c *Converter) convertCond(clauses []sexp.Value, e *env) (tree.Node, error) {
	if len(clauses) == 0 {
		return tree.NilLiteral(), nil
	}
	cl, err := sexp.ListToSlice(clauses[0])
	if err != nil || len(cl) == 0 {
		return nil, errf(clauses[0], "bad cond clause")
	}
	// (t e...) final clause.
	if sym, ok := cl[0].(*sexp.Symbol); ok && sym == sexp.T {
		return c.convertProgn(cl[1:], e)
	}
	if len(cl) == 1 {
		// (cond (p) rest...) == (or p (cond rest...))
		rest := append([]sexp.Value{sexp.Intern("cond")}, clauses[1:]...)
		return c.convertOr([]sexp.Value{cl[0], sexp.List(rest...)}, e)
	}
	test, err := c.Convert(cl[0], e)
	if err != nil {
		return nil, err
	}
	then, err := c.convertProgn(cl[1:], e)
	if err != nil {
		return nil, err
	}
	els, err := c.convertCond(clauses[1:], e)
	if err != nil {
		return nil, err
	}
	return &tree.If{Test: test, Then: then, Else: els}, nil
}

func (c *Converter) convertAnd(args []sexp.Value, e *env) (tree.Node, error) {
	if len(args) == 0 {
		return tree.NewLiteral(sexp.T), nil
	}
	if len(args) == 1 {
		return c.Convert(args[0], e)
	}
	test, err := c.Convert(args[0], e)
	if err != nil {
		return nil, err
	}
	rest, err := c.convertAnd(args[1:], e)
	if err != nil {
		return nil, err
	}
	return &tree.If{Test: test, Then: rest, Else: tree.NilLiteral()}, nil
}

// convertOr uses the paper's exact encoding: (or b c) becomes
// ((lambda (v f) (if v v (f))) b (lambda () c)) "to avoid evaluating b
// twice". The thunk is later integrated away by the optimizer.
func (c *Converter) convertOr(args []sexp.Value, e *env) (tree.Node, error) {
	if len(args) == 0 {
		return tree.NilLiteral(), nil
	}
	if len(args) == 1 {
		return c.Convert(args[0], e)
	}
	first, err := c.Convert(args[0], e)
	if err != nil {
		return nil, err
	}
	v := tree.NewVar(c.gensym("v"))
	f := tree.NewVar(c.gensym("f"))
	lam := &tree.Lambda{Required: []*tree.Var{v, f}}
	v.Binder, f.Binder = lam, lam
	lam.Body = &tree.If{
		Test: tree.NewRef(v),
		Then: tree.NewRef(v),
		Else: &tree.Call{Fn: tree.NewRef(f)},
	}
	restBody, err := c.convertOr(args[1:], e)
	if err != nil {
		return nil, err
	}
	thunk := &tree.Lambda{Body: restBody}
	return &tree.Call{Fn: lam, Args: []tree.Node{first, thunk}}, nil
}

func (c *Converter) convertPsetq(form sexp.Value, args []sexp.Value, e *env) (tree.Node, error) {
	if len(args)%2 != 0 {
		return nil, errf(form, "psetq needs pairs")
	}
	// (psetq a x b y) == (let ((t1 x) (t2 y)) (setq a t1) (setq b t2))
	var binds, sets []sexp.Value
	for i := 0; i < len(args); i += 2 {
		tmp := c.gensym("ps")
		binds = append(binds, sexp.List(tmp, args[i+1]))
		sets = append(sets, sexp.List(sexp.Intern("setq"), args[i], tmp))
	}
	body := append([]sexp.Value{sexp.Intern("let"), sexp.List(binds...)}, sets...)
	body = append(body, sexp.Nil)
	return c.Convert(sexp.List(body...), e)
}
