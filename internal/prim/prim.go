// Package prim is the compiler's table of primitive-operation properties.
// The paper's compiler is "table-driven to a great extent"; this is the
// table. It records, per primitive: side effects, compile-time
// foldability, associativity/commutativity and identity operands (for the
// META-EVALUATE-ASSOC-COMMUT-CALL transformation), pdl-safety (§6.3), and
// representation signatures (§6.2).
package prim

import (
	"repro/internal/sexp"
	"repro/internal/tree"
)

// Info describes one primitive operation.
type Info struct {
	Name string
	// MinArgs/MaxArgs for compile-time arity checking; MaxArgs -1 means
	// variadic.
	MinArgs, MaxArgs int
	// Effects classifies side effects of a call.
	Effects tree.Effect
	// Foldable marks primitives "known to be free of side effects" whose
	// calls on constant operands the optimizer evaluates at compile time.
	Foldable bool
	// Assoc/Commut drive reduction of n-ary calls to binary compositions
	// and constant-first argument reordering.
	Assoc, Commut bool
	// Identity is the identity operand for table-driven elimination
	// ((+ x 0) => x), or nil.
	Identity sexp.Value
	// Safe marks pdl-safe operations: ones that may receive a pointer
	// into the stack (§6.3). Unsafe operations (rplaca, set) require
	// certification first.
	Safe bool
	// ArgRep/ResRep give the representation signature for type-specific
	// operations (SWFLO for +$f, SWFIX for +&); RepUnknown for generic.
	ArgRep, ResRep tree.Rep
	// Jumpable marks comparison primitives that can deliver their result
	// as a conditional jump (WANTREP = JUMP).
	Jumpable bool
}

var table = map[string]*Info{}

// Lookup returns the Info for a primitive name, or nil.
func Lookup(name *sexp.Symbol) *Info { return table[name.Name] }

// LookupString is Lookup by string name.
func LookupString(name string) *Info { return table[name] }

// IsPrimitive reports whether name denotes a known primitive.
func IsPrimitive(name *sexp.Symbol) bool { return table[name.Name] != nil }

// ReturnsArg reports whether a call of the named primitive with nargs
// arguments returns its argument itself — identity and (list* x) — so
// the argument goes wherever the call's value goes.
func ReturnsArg(name string, nargs int) bool {
	return name == "identity" || name == "list*" && nargs == 1
}

func def(i Info) {
	cp := i
	table[i.Name] = &cp
}

func init() {
	pureSafe := func(name string, min, max int) Info {
		return Info{Name: name, MinArgs: min, MaxArgs: max, Foldable: true, Safe: true}
	}

	// Lists and conses. cons allocates; car/cdr read mutable heap state.
	def(Info{Name: "cons", MinArgs: 2, MaxArgs: 2, Effects: tree.EffAlloc, Safe: true})
	def(Info{Name: "list", MinArgs: 0, MaxArgs: -1, Effects: tree.EffAlloc, Safe: true})
	def(Info{Name: "list*", MinArgs: 1, MaxArgs: -1, Effects: tree.EffAlloc, Safe: true})
	def(Info{Name: "append", MinArgs: 0, MaxArgs: -1, Effects: tree.EffAlloc | tree.EffRead, Safe: true})
	def(Info{Name: "reverse", MinArgs: 1, MaxArgs: 1, Effects: tree.EffAlloc | tree.EffRead, Safe: true})
	for _, n := range []string{"car", "cdr", "caar", "cadr", "cdar", "cddr",
		"caddr", "cdddr", "first", "second", "rest", "nth", "nthcdr", "last",
		"length", "assq", "assoc", "memq", "member"} {
		def(Info{Name: n, MinArgs: 1, MaxArgs: 2, Effects: tree.EffRead, Foldable: true, Safe: true})
	}
	// rplaca/rplacd store pointers into heap objects: the unsafe
	// archetypes of §6.3.
	def(Info{Name: "rplaca", MinArgs: 2, MaxArgs: 2, Effects: tree.EffWrite, Safe: false})
	def(Info{Name: "rplacd", MinArgs: 2, MaxArgs: 2, Effects: tree.EffWrite, Safe: false})

	// Predicates: pure, safe (type checking a pointer is safe).
	for _, n := range []string{"atom", "consp", "listp", "null", "not",
		"symbolp", "numberp", "integerp", "floatp", "stringp", "functionp",
		"zerop", "plusp", "minusp", "oddp", "evenp"} {
		i := pureSafe(n, 1, 1)
		i.Jumpable = true
		def(i)
	}
	def(Info{Name: "eq", MinArgs: 2, MaxArgs: 2, Foldable: true, Safe: true, Jumpable: true})
	def(Info{Name: "eql", MinArgs: 2, MaxArgs: 2, Foldable: true, Safe: true, Jumpable: true})
	def(Info{Name: "equal", MinArgs: 2, MaxArgs: 2, Effects: tree.EffRead, Foldable: true, Safe: true, Jumpable: true})

	// Generic arithmetic: pure, safe, assoc/commut where mathematically
	// sanctioned by the dialect ("the user-level semantics for such
	// operators explicitly permits such re-association").
	add := pureSafe("+", 0, -1)
	add.Assoc, add.Commut, add.Identity = true, true, sexp.Fixnum(0)
	def(add)
	mul := pureSafe("*", 0, -1)
	mul.Assoc, mul.Commut, mul.Identity = true, true, sexp.Fixnum(1)
	def(mul)
	def(pureSafe("-", 1, -1))
	def(pureSafe("/", 1, -1))
	def(pureSafe("1+", 1, 1))
	def(pureSafe("1-", 1, 1))
	mn := pureSafe("min", 1, -1)
	mn.Assoc, mn.Commut = true, true
	def(mn)
	mx := pureSafe("max", 1, -1)
	mx.Assoc, mx.Commut = true, true
	def(mx)
	def(pureSafe("abs", 1, 1))
	def(pureSafe("mod", 2, 2))
	def(pureSafe("rem", 2, 2))
	def(pureSafe("floor", 1, 2))
	def(pureSafe("ceiling", 1, 2))
	def(pureSafe("truncate", 1, 2))
	def(pureSafe("round", 1, 2))
	def(pureSafe("expt", 2, 2))
	def(pureSafe("gcd", 0, -1))
	for _, n := range []string{"=", "<", ">", "<=", ">=", "/="} {
		i := pureSafe(n, 1, -1)
		i.Jumpable = true
		def(i)
	}
	for _, n := range []string{"sqrt", "sin", "cos", "tan", "atan", "exp", "log"} {
		def(pureSafe(n, 1, 2))
	}

	// Type-specific float operators: SWFLO signatures (§6.2).
	flo := func(name string, min, max int) Info {
		i := pureSafe(name, min, max)
		i.ArgRep, i.ResRep = tree.RepSWFLO, tree.RepSWFLO
		return i
	}
	fadd := flo("+$f", 2, -1)
	fadd.Assoc, fadd.Commut, fadd.Identity = true, true, sexp.Flonum(0)
	def(fadd)
	fmul := flo("*$f", 2, -1)
	fmul.Assoc, fmul.Commut, fmul.Identity = true, true, sexp.Flonum(1)
	def(fmul)
	def(flo("-$f", 2, 2))
	def(flo("/$f", 2, 2))
	fmax := flo("max$f", 2, -1)
	fmax.Assoc, fmax.Commut = true, true
	def(fmax)
	fmin := flo("min$f", 2, -1)
	fmin.Assoc, fmin.Commut = true, true
	def(fmin)
	for _, n := range []string{"neg$f", "abs$f", "sqrt$f", "sin$f", "cos$f",
		"sinc$f", "cosc$f", "atan$f", "exp$f", "log$f"} {
		def(flo(n, 1, 1))
	}
	for _, n := range []string{"=$f", "<$f", ">$f", "<=$f", ">=$f"} {
		i := pureSafe(n, 2, 2)
		i.ArgRep, i.ResRep = tree.RepSWFLO, tree.RepUnknown
		i.Jumpable = true
		def(i)
	}
	cf := pureSafe("float", 1, 1)
	cf.ResRep = tree.RepSWFLO
	def(cf)
	fx := pureSafe("fix", 1, 1)
	fx.ResRep = tree.RepSWFIX
	def(fx)

	// Type-specific fixnum operators: SWFIX signatures.
	fixop := func(name string, min, max int) Info {
		i := pureSafe(name, min, max)
		i.ArgRep, i.ResRep = tree.RepSWFIX, tree.RepSWFIX
		return i
	}
	iadd := fixop("+&", 2, -1)
	iadd.Assoc, iadd.Commut, iadd.Identity = true, true, sexp.Fixnum(0)
	def(iadd)
	imul := fixop("*&", 2, -1)
	imul.Assoc, imul.Commut, imul.Identity = true, true, sexp.Fixnum(1)
	def(imul)
	def(fixop("-&", 2, 2))
	def(fixop("/&", 2, 2))
	def(fixop("1+&", 1, 1))
	def(fixop("1-&", 1, 1))
	for _, n := range []string{"=&", "<&", ">&", "<=&", ">=&"} {
		i := pureSafe(n, 2, 2)
		i.ArgRep, i.ResRep = tree.RepSWFIX, tree.RepUnknown
		i.Jumpable = true
		def(i)
	}

	// Arrays. aref reads mutable state; aset writes (unsafe: stores a
	// pointer into a heap object).
	def(Info{Name: "make-array", MinArgs: 1, MaxArgs: 2, Effects: tree.EffAlloc, Safe: true})
	def(Info{Name: "make-float-array", MinArgs: 1, MaxArgs: 1, Effects: tree.EffAlloc, Safe: true})
	def(Info{Name: "aref", MinArgs: 1, MaxArgs: -1, Effects: tree.EffRead, Safe: true})
	def(Info{Name: "aset", MinArgs: 2, MaxArgs: -1, Effects: tree.EffWrite, Safe: false})
	def(Info{Name: "array-dimensions", MinArgs: 1, MaxArgs: 1, Effects: tree.EffRead | tree.EffAlloc, Safe: true})
	arf := Info{Name: "aref$f", MinArgs: 1, MaxArgs: -1, Effects: tree.EffRead, Safe: true,
		ResRep: tree.RepSWFLO}
	def(arf)
	asf := Info{Name: "aset$f", MinArgs: 2, MaxArgs: -1, Effects: tree.EffWrite, Safe: true,
		ResRep: tree.RepSWFLO}
	// aset$f stores a *raw float*, never a pointer, so it is pdl-safe even
	// though it writes.
	def(asf)

	// Control and environment.
	def(Info{Name: "funcall", MinArgs: 1, MaxArgs: -1, Effects: tree.EffAny, Safe: true})
	def(Info{Name: "apply", MinArgs: 2, MaxArgs: -1, Effects: tree.EffAny, Safe: true})
	def(Info{Name: "throw", MinArgs: 2, MaxArgs: 2, Effects: tree.EffControl, Safe: false})
	def(Info{Name: "error", MinArgs: 1, MaxArgs: -1, Effects: tree.EffControl, Safe: true})
	def(Info{Name: "identity", MinArgs: 1, MaxArgs: 1, Foldable: true, Safe: true})
	def(Info{Name: "symbol-value", MinArgs: 1, MaxArgs: 1, Effects: tree.EffRead, Safe: true})
	def(Info{Name: "set", MinArgs: 2, MaxArgs: 2, Effects: tree.EffWrite, Safe: false})
	def(Info{Name: "boundp", MinArgs: 1, MaxArgs: 1, Effects: tree.EffRead, Safe: true})
	def(Info{Name: "gensym", MinArgs: 0, MaxArgs: 1, Effects: tree.EffAlloc, Safe: true})

	// Output.
	for _, n := range []string{"print", "prin1", "princ"} {
		def(Info{Name: n, MinArgs: 1, MaxArgs: 1, Effects: tree.EffWrite, Safe: true})
	}
	def(Info{Name: "terpri", MinArgs: 0, MaxArgs: 0, Effects: tree.EffWrite, Safe: true})
}

// BinaryFloatOp maps a type-specific float operator to its machine
// operation name for the code generator, or "" if it is not a two-operand
// float instruction.
func BinaryFloatOp(name string) string {
	switch name {
	case "+$f":
		return "FADD"
	case "-$f":
		return "FSUB"
	case "*$f":
		return "FMULT"
	case "/$f":
		return "FDIV"
	case "max$f":
		return "FMAX"
	case "min$f":
		return "FMIN"
	}
	return ""
}

// BinaryFixOp maps a type-specific fixnum operator to its machine
// operation.
func BinaryFixOp(name string) string {
	switch name {
	case "+&":
		return "ADD"
	case "-&":
		return "SUB"
	case "*&":
		return "MULT"
	case "/&":
		return "DIV"
	}
	return ""
}
