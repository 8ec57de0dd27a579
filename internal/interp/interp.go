// Package interp is a reference interpreter for the dialect, operating
// directly on the internal tree. It serves three roles in the
// reproduction:
//
//   - the semantic oracle for differential testing of compiled code,
//   - the interpreted baseline of the benchmarks, and
//   - its builtin table, the library behind compiled code's fallback
//     primitives (CallBuiltin) and the optimizer's compile-time
//     expression evaluation (ApplyPure: "invoking primitive functions
//     known to be free of side effects on constant operands").
//
// The evaluator loops on tail positions, so tail-recursive Lisp runs in
// constant Go stack — the interpreter honors the dialect's tail-recursive
// semantics just as compiled code does with jump instructions.
package interp

import (
	"fmt"
	"io"
	"maps"
	"strings"

	"repro/internal/convert"
	"repro/internal/sexp"
	"repro/internal/tree"
)

// Closure is a function value: a lambda plus its captured lexical
// environment.
type Closure struct {
	Lambda *tree.Lambda
	Env    *Env
}

// Write renders the closure unreadably.
func (c *Closure) Write(b *strings.Builder) {
	name := c.Lambda.Name
	if name == "" {
		name = "anonymous"
	}
	fmt.Fprintf(b, "#<closure %s>", name)
}

// Builtin is a primitive function implemented in Go.
type Builtin struct {
	Name    string
	MinArgs int
	MaxArgs int // -1 for variadic
	Fn      func(in *Interp, args []sexp.Value) (sexp.Value, error)
	// Pure marks builtins free of side effects, eligible for compile-time
	// expression evaluation by the optimizer.
	Pure bool
}

// Write renders the builtin unreadably.
func (b *Builtin) Write(sb *strings.Builder) { fmt.Fprintf(sb, "#<builtin %s>", b.Name) }

// Env is a lexical environment: a chain of frames mapping variables to
// mutable cells.
type Env struct {
	parent *Env
	vars   map[*tree.Var]*sexp.Value
}

// NewEnv returns a child of parent.
func NewEnv(parent *Env) *Env {
	return &Env{parent: parent, vars: map[*tree.Var]*sexp.Value{}}
}

// Bind creates a fresh cell for v.
func (e *Env) Bind(v *tree.Var, val sexp.Value) { e.vars[v] = &val }

func (e *Env) cell(v *tree.Var) *sexp.Value {
	for c := e; c != nil; c = c.parent {
		if cell, ok := c.vars[v]; ok {
			return cell
		}
	}
	return nil
}

// specBind is one entry of the deep-binding stack.
type specBind struct {
	sym *sexp.Symbol
	val sexp.Value
}

// Stats counts interpreter activity for the benchmarks.
type Stats struct {
	Calls          int64 // closure applications
	BuiltinCalls   int64
	SpecialLookups int64 // deep-binding searches
	Conses         int64
}

// Interp is an interpreter instance.
type Interp struct {
	// Globals holds top-level dynamic value cells.
	Globals map[*sexp.Symbol]sexp.Value
	// Funcs holds global function cells.
	Funcs map[*sexp.Symbol]sexp.Value
	// Out receives print output.
	Out io.Writer
	// Stats accumulates counters.
	Stats Stats

	specials []specBind
}

// New returns an interpreter with the standard primitives installed.
func New() *Interp {
	return &Interp{
		Globals: map[*sexp.Symbol]sexp.Value{},
		Funcs:   maps.Clone(builtins()),
		Out:     io.Discard,
	}
}

// control-flow signals, passed as errors.

type goSignal struct {
	target *tree.ProgBody
	tag    *sexp.Symbol
}

func (g *goSignal) Error() string { return "interp: go " + g.tag.Name + " escaped" }

type returnSignal struct {
	target *tree.ProgBody
	val    sexp.Value
}

func (r *returnSignal) Error() string { return "interp: return escaped" }

type throwSignal struct {
	tag sexp.Value
	val sexp.Value
}

func (t *throwSignal) Error() string {
	return "interp: uncaught throw to " + sexp.Print(t.tag)
}

// LispError is a user-visible evaluation error.
type LispError struct{ Msg string }

func (e *LispError) Error() string { return "interp: " + e.Msg }

func lerrf(format string, args ...any) error {
	return &LispError{Msg: fmt.Sprintf(format, args...)}
}

// LoadProgram installs a converted program's definitions and runs its
// top-level forms, returning the value of the last one.
func (in *Interp) LoadProgram(p *convert.Program) (sexp.Value, error) {
	for _, d := range p.Defs {
		in.Funcs[d.Name] = &Closure{Lambda: d.Lambda}
	}
	var out sexp.Value = sexp.Nil
	for _, f := range p.TopForms {
		v, err := in.Eval(f, nil)
		if err != nil {
			return nil, err
		}
		out = v
	}
	return out, nil
}

// CallNamed applies the named global function to args.
func (in *Interp) CallNamed(name *sexp.Symbol, args ...sexp.Value) (sexp.Value, error) {
	fn, ok := in.Funcs[name]
	if !ok {
		return nil, lerrf("undefined function %s", name.Name)
	}
	return in.Apply(fn, args)
}

// specialLookup finds the current dynamic binding cell index for sym, or
// -1 to use the global cell.
func (in *Interp) specialLookup(sym *sexp.Symbol) int {
	in.Stats.SpecialLookups++
	for i := len(in.specials) - 1; i >= 0; i-- {
		if in.specials[i].sym == sym {
			return i
		}
	}
	return -1
}

func (in *Interp) specialValue(sym *sexp.Symbol) (sexp.Value, error) {
	if i := in.specialLookup(sym); i >= 0 {
		return in.specials[i].val, nil
	}
	if v, ok := in.Globals[sym]; ok {
		return v, nil
	}
	return nil, lerrf("unbound variable %s", sym.Name)
}

func (in *Interp) setSpecial(sym *sexp.Symbol, val sexp.Value) {
	if i := in.specialLookup(sym); i >= 0 {
		in.specials[i].val = val
		return
	}
	if in.Globals == nil {
		in.Globals = map[*sexp.Symbol]sexp.Value{}
	}
	in.Globals[sym] = val
}

// Eval evaluates node n in lexical environment env (nil for top level).
func (in *Interp) Eval(n tree.Node, env *Env) (sexp.Value, error) {
	return in.evalSub(n, env)
}

// evalSub evaluates a non-tail subexpression: any dynamic bindings pushed
// by closures tail-looped into during its evaluation are unwound when it
// returns, which is exactly the end of those binding constructs' dynamic
// extent.
func (in *Interp) evalSub(n tree.Node, env *Env) (sexp.Value, error) {
	specBase := len(in.specials)
	v, err := in.eval(n, env)
	in.specials = in.specials[:specBase]
	return v, err
}

// eval is the tail-looping core. Dynamic bindings pushed when control
// "becomes" a closure body are unwound by the caller (Eval or apply).
func (in *Interp) eval(n tree.Node, env *Env) (sexp.Value, error) {
	for {
		switch x := n.(type) {
		case *tree.Literal:
			return x.Value, nil

		case *tree.VarRef:
			if x.Var.Special {
				return in.specialValue(x.Var.Name)
			}
			cell := env.cell(x.Var)
			if cell == nil {
				return nil, lerrf("unbound lexical variable %s (compiler bug?)", x.Var)
			}
			return *cell, nil

		case *tree.Setq:
			v, err := in.evalSub(x.Value, env)
			if err != nil {
				return nil, err
			}
			if x.Var.Special {
				in.setSpecial(x.Var.Name, v)
				return v, nil
			}
			cell := env.cell(x.Var)
			if cell == nil {
				return nil, lerrf("setq of unbound lexical variable %s", x.Var)
			}
			*cell = v
			return v, nil

		case *tree.If:
			t, err := in.evalSub(x.Test, env)
			if err != nil {
				return nil, err
			}
			if sexp.Truthy(t) {
				n = x.Then
			} else {
				n = x.Else
			}
			continue // tail position

		case *tree.Progn:
			if len(x.Forms) == 0 {
				return sexp.Nil, nil
			}
			for _, f := range x.Forms[:len(x.Forms)-1] {
				if _, err := in.evalSub(f, env); err != nil {
					return nil, err
				}
			}
			n = x.Forms[len(x.Forms)-1]
			continue

		case *tree.Lambda:
			return &Closure{Lambda: x, Env: env}, nil

		case *tree.FunRef:
			fn, ok := in.Funcs[x.Name]
			if !ok {
				return nil, lerrf("undefined function %s", x.Name.Name)
			}
			return fn, nil

		case *tree.Call:
			fn, err := in.evalSub(x.Fn, env)
			if err != nil {
				return nil, err
			}
			args := make([]sexp.Value, len(x.Args))
			for i, a := range x.Args {
				if args[i], err = in.evalSub(a, env); err != nil {
					return nil, err
				}
			}
			switch f := fn.(type) {
			case *Closure:
				// Tail-loop into the closure body rather than recursing.
				in.Stats.Calls++
				newEnv, err := in.bindParams(f, args)
				if err != nil {
					return nil, err
				}
				env = newEnv
				n = f.Lambda.Body
				continue
			case *Builtin:
				return in.callBuiltin(f, args)
			default:
				return nil, lerrf("not a function: %s", sexp.Print(fn))
			}

		case *tree.ProgBody:
			if v, done, err := in.evalProgBody(x, env); done || err != nil {
				return v, err
			}
			return sexp.Nil, nil

		case *tree.Go:
			return nil, &goSignal{target: x.Target, tag: x.Tag}

		case *tree.Return:
			v, err := in.evalSub(x.Value, env)
			if err != nil {
				return nil, err
			}
			return nil, &returnSignal{target: x.Target, val: v}

		case *tree.Catcher:
			tag, err := in.evalSub(x.Tag, env)
			if err != nil {
				return nil, err
			}
			v, err := in.evalSub(x.Body, env)
			if ts, ok := err.(*throwSignal); ok && sexp.Eql(ts.tag, tag) {
				return ts.val, nil
			}
			return v, err

		case *tree.Caseq:
			key, err := in.evalSub(x.Key, env)
			if err != nil {
				return nil, err
			}
			matched := false
			for _, cl := range x.Clauses {
				for _, k := range cl.Keys {
					if sexp.Eql(key, k) {
						n = cl.Body
						matched = true
						break
					}
				}
				if matched {
					break
				}
			}
			if matched {
				continue
			}
			if x.Default != nil {
				n = x.Default
				continue
			}
			return sexp.Nil, nil

		default:
			return nil, lerrf("cannot evaluate %T", n)
		}
	}
}

// evalProgBody runs the statement list with go/return handling; done
// reports a return (with its value).
func (in *Interp) evalProgBody(pb *tree.ProgBody, env *Env) (sexp.Value, bool, error) {
	i := 0
	steps := 0
	for i < len(pb.Forms) {
		_, err := in.evalSub(pb.Forms[i], env)
		if err != nil {
			switch sig := err.(type) {
			case *goSignal:
				if sig.target == pb {
					i = pb.TagIndex(sig.tag)
					if i < 0 {
						return nil, false, lerrf("go to missing tag %s", sig.tag.Name)
					}
					steps++
					if steps > 1<<30 {
						return nil, false, lerrf("progbody ran for 2^30 jumps; infinite loop?")
					}
					continue
				}
				return nil, false, err
			case *returnSignal:
				if sig.target == pb {
					return sig.val, true, nil
				}
				return nil, false, err
			default:
				return nil, false, err
			}
		}
		i++
	}
	return sexp.Nil, false, nil
}

// Apply applies a function value to arguments (the dialect's apply).
func (in *Interp) Apply(fn sexp.Value, args []sexp.Value) (sexp.Value, error) {
	switch f := fn.(type) {
	case *Closure:
		in.Stats.Calls++
		specBase := len(in.specials)
		env, err := in.bindParams(f, args)
		if err != nil {
			in.specials = in.specials[:specBase]
			return nil, err
		}
		v, err := in.eval(f.Lambda.Body, env)
		in.specials = in.specials[:specBase]
		return v, err
	case *Builtin:
		return in.callBuiltin(f, args)
	}
	return nil, lerrf("not a function: %s", sexp.Print(fn))
}

func (in *Interp) callBuiltin(f *Builtin, args []sexp.Value) (sexp.Value, error) {
	in.Stats.BuiltinCalls++
	if len(args) < f.MinArgs || (f.MaxArgs >= 0 && len(args) > f.MaxArgs) {
		return nil, lerrf("%s: wrong number of arguments (%d)", f.Name, len(args))
	}
	return f.Fn(in, args)
}

// bindParams builds the environment for a closure application, handling
// optionals (with defaults evaluated left to right in the growing
// environment), &rest, and dynamic binding of special parameters.
func (in *Interp) bindParams(f *Closure, args []sexp.Value) (*Env, error) {
	l := f.Lambda
	if len(args) < l.MinArgs() {
		return nil, lerrf("%s: too few arguments (%d for %d)",
			lambdaName(l), len(args), l.MinArgs())
	}
	if l.MaxArgs() >= 0 && len(args) > l.MaxArgs() {
		return nil, lerrf("%s: too many arguments (%d for %d)",
			lambdaName(l), len(args), l.MaxArgs())
	}
	env := NewEnv(f.Env)
	bind := func(v *tree.Var, val sexp.Value) {
		if v.Special {
			in.specials = append(in.specials, specBind{sym: v.Name, val: val})
		} else {
			env.Bind(v, val)
		}
	}
	i := 0
	for _, v := range l.Required {
		bind(v, args[i])
		i++
	}
	for _, o := range l.Optional {
		if i < len(args) {
			bind(o.Var, args[i])
			i++
			continue
		}
		dv, err := in.evalSub(o.Default, env)
		if err != nil {
			return nil, err
		}
		bind(o.Var, dv)
	}
	if l.Rest != nil {
		var rest sexp.Value = sexp.Nil
		for j := len(args) - 1; j >= i; j-- {
			rest = sexp.NewCons(args[j], rest)
			in.Stats.Conses++
		}
		bind(l.Rest, rest)
	}
	return env, nil
}

func lambdaName(l *tree.Lambda) string {
	if l.Name != "" {
		return l.Name
	}
	return "lambda"
}

// EvalSource converts and evaluates a whole source text, returning the
// last top-level value. It is a convenience for tests and examples.
func EvalSource(src string) (sexp.Value, error) {
	forms, err := sexp.ReadAll(src)
	if err != nil {
		return nil, err
	}
	c := convert.New()
	p, err := c.ConvertTopLevel(forms)
	if err != nil {
		return nil, err
	}
	return New().LoadProgram(p)
}
