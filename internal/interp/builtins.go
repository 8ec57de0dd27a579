package interp

import (
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/sexp"
)

// builtins is the primitive function set, built once per process; New
// gives every interpreter its own copy of the table. Sharing the
// *Builtin values is safe because none is mutated after construction
// and every Fn reaches interpreter state only through its in argument:
// buildBuiltins has no interpreter in scope to capture.
var builtins = sync.OnceValue(buildBuiltins)

// ApplyPure applies the builtin named name to args when it is Pure,
// straight from the process-wide table: the optimizer's compile-time
// expression evaluation needs no interpreter of its own. Pure builtins
// never touch their interpreter argument, so they are called with nil.
// It reports false when name is no pure builtin, the arity is wrong, or
// the call fails; nothing is written either way.
func ApplyPure(name *sexp.Symbol, args []sexp.Value) (sexp.Value, bool) {
	b, _ := builtins()[name].(*Builtin)
	if b == nil || !b.Pure || len(args) < b.MinArgs || (b.MaxArgs >= 0 && len(args) > b.MaxArgs) {
		return nil, false
	}
	v, err := b.Fn(nil, args)
	return v, err == nil
}

// CallBuiltin applies the builtin named name to args straight from the
// process-wide table, printing to out: compiled code's fallback
// primitives need no interpreter of their own. Its global value cells
// start empty, so the machine answers symbol-value, set and boundp
// itself.
func CallBuiltin(out io.Writer, name *sexp.Symbol, args []sexp.Value) (sexp.Value, error) {
	b, _ := builtins()[name].(*Builtin)
	if b == nil {
		return nil, lerrf("undefined function %s", name.Name)
	}
	return (&Interp{Out: out}).callBuiltin(b, args)
}

// buildBuiltins makes the primitive function table. Pure builtins are
// eligible for the optimizer's compile-time expression evaluation.
func buildBuiltins() map[*sexp.Symbol]sexp.Value {
	funcs := map[*sexp.Symbol]sexp.Value{}
	def := func(name string, min, max int, pure bool,
		fn func(in *Interp, args []sexp.Value) (sexp.Value, error)) {
		funcs[sexp.Intern(name)] = &Builtin{
			Name: name, MinArgs: min, MaxArgs: max, Fn: fn, Pure: pure,
		}
	}

	// --- conses and lists ---
	def("cons", 2, 2, false, func(in *Interp, a []sexp.Value) (sexp.Value, error) {
		in.Stats.Conses++
		return sexp.NewCons(a[0], a[1]), nil
	})
	def("car", 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) { return carOf(a[0]) })
	def("cdr", 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) { return cdrOf(a[0]) })
	for _, spec := range []struct{ name, ops string }{
		{"caar", "aa"}, {"cadr", "ad"}, {"cdar", "da"}, {"cddr", "dd"},
		{"caddr", "add"}, {"cdddr", "ddd"},
	} {
		ops := spec.ops
		def(spec.name, 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
			v := a[0]
			var err error
			for i := len(ops) - 1; i >= 0; i-- {
				if ops[i] == 'a' {
					v, err = carOf(v)
				} else {
					v, err = cdrOf(v)
				}
				if err != nil {
					return nil, err
				}
			}
			return v, nil
		})
	}
	def("first", 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) { return carOf(a[0]) })
	def("rest", 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) { return cdrOf(a[0]) })
	def("second", 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		d, err := cdrOf(a[0])
		if err != nil {
			return nil, err
		}
		return carOf(d)
	})
	def("rplaca", 2, 2, false, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		c, ok := a[0].(*sexp.Cons)
		if !ok {
			return nil, lerrf("rplaca: not a cons: %s", sexp.Print(a[0]))
		}
		c.Car = a[1]
		return c, nil
	})
	def("rplacd", 2, 2, false, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		c, ok := a[0].(*sexp.Cons)
		if !ok {
			return nil, lerrf("rplacd: not a cons: %s", sexp.Print(a[0]))
		}
		c.Cdr = a[1]
		return c, nil
	})
	def("list", 0, -1, false, func(in *Interp, a []sexp.Value) (sexp.Value, error) {
		in.Stats.Conses += int64(len(a))
		return sexp.List(a...), nil
	})
	def("list*", 1, -1, false, func(in *Interp, a []sexp.Value) (sexp.Value, error) {
		out := a[len(a)-1]
		for i := len(a) - 2; i >= 0; i-- {
			in.Stats.Conses++
			out = sexp.NewCons(a[i], out)
		}
		return out, nil
	})
	def("append", 0, -1, false, func(in *Interp, a []sexp.Value) (sexp.Value, error) {
		if len(a) == 0 {
			return sexp.Nil, nil
		}
		out := a[len(a)-1]
		for i := len(a) - 2; i >= 0; i-- {
			items, err := sexp.ListToSlice(a[i])
			if err != nil {
				return nil, err
			}
			for j := len(items) - 1; j >= 0; j-- {
				in.Stats.Conses++
				out = sexp.NewCons(items[j], out)
			}
		}
		return out, nil
	})
	def("reverse", 1, 1, false, func(in *Interp, a []sexp.Value) (sexp.Value, error) {
		items, err := sexp.ListToSlice(a[0])
		if err != nil {
			return nil, err
		}
		var out sexp.Value = sexp.Nil
		for _, it := range items {
			in.Stats.Conses++
			out = sexp.NewCons(it, out)
		}
		return out, nil
	})
	def("length", 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		if n := sexp.Length(a[0]); n >= 0 {
			return sexp.Fixnum(n), nil
		}
		if s, ok := a[0].(sexp.String); ok {
			return sexp.Fixnum(len(s)), nil
		}
		if v, ok := a[0].(*sexp.Vector); ok {
			return sexp.Fixnum(len(v.Items)), nil
		}
		return nil, lerrf("length: improper list")
	})
	def("nth", 2, 2, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		n, err := sexp.ToInt64(a[0])
		if err != nil {
			return nil, err
		}
		v := a[1]
		for ; n > 0 && !sexp.IsNil(v); n-- { // the cdr of nil is nil
			if v, err = cdrOf(v); err != nil {
				return nil, err
			}
		}
		return carOf(v)
	})
	def("nthcdr", 2, 2, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		n, err := sexp.ToInt64(a[0])
		if err != nil {
			return nil, err
		}
		v := a[1]
		for ; n > 0 && !sexp.IsNil(v); n-- { // the cdr of nil is nil
			if v, err = cdrOf(v); err != nil {
				return nil, err
			}
		}
		return v, nil
	})
	def("last", 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		v := a[0]
		for {
			c, ok := v.(*sexp.Cons)
			if !ok {
				return v, nil
			}
			if _, ok := c.Cdr.(*sexp.Cons); !ok {
				return c, nil
			}
			v = c.Cdr
		}
	})
	def("assq", 2, 2, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		return assocBy(a[0], a[1], sexp.Eq)
	})
	def("assoc", 2, 2, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		return assocBy(a[0], a[1], sexp.Equal)
	})
	def("memq", 2, 2, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		return memberBy(a[0], a[1], sexp.Eq)
	})
	def("member", 2, 2, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		return memberBy(a[0], a[1], sexp.Equal)
	})

	// --- predicates ---
	def("atom", 1, 1, true, pred(func(v sexp.Value) bool {
		_, ok := v.(*sexp.Cons)
		return !ok
	}))
	def("consp", 1, 1, true, pred(func(v sexp.Value) bool {
		_, ok := v.(*sexp.Cons)
		return ok
	}))
	def("listp", 1, 1, true, pred(func(v sexp.Value) bool {
		_, ok := v.(*sexp.Cons)
		return ok || sexp.IsNil(v)
	}))
	def("null", 1, 1, true, pred(sexp.IsNil))
	def("not", 1, 1, true, pred(sexp.IsNil))
	def("symbolp", 1, 1, true, pred(func(v sexp.Value) bool {
		_, ok := v.(*sexp.Symbol)
		return ok
	}))
	def("numberp", 1, 1, true, pred(sexp.IsNumber))
	def("integerp", 1, 1, true, pred(sexp.IsInteger))
	def("floatp", 1, 1, true, pred(func(v sexp.Value) bool {
		_, ok := v.(sexp.Flonum)
		return ok
	}))
	def("stringp", 1, 1, true, pred(func(v sexp.Value) bool {
		_, ok := v.(sexp.String)
		return ok
	}))
	def("functionp", 1, 1, true, pred(func(v sexp.Value) bool {
		switch v.(type) {
		case *Closure, *Builtin:
			return true
		}
		return false
	}))
	def("eq", 2, 2, true, pred2(sexp.Eq))
	def("eql", 2, 2, true, pred2(sexp.Eql))
	def("equal", 2, 2, true, pred2(sexp.Equal))
	def("zerop", 1, 1, true, predErr(sexp.Zerop))
	def("plusp", 1, 1, true, predErr(sexp.Plusp))
	def("minusp", 1, 1, true, predErr(sexp.Minusp))
	def("oddp", 1, 1, true, predErr(sexp.Oddp))
	def("evenp", 1, 1, true, predErr(sexp.Evenp))

	// --- generic arithmetic ---
	def("+", 0, -1, true, fold(sexp.Fixnum(0), sexp.Add))
	def("*", 0, -1, true, fold(sexp.Fixnum(1), sexp.Mul))
	def("-", 1, -1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		if len(a) == 1 {
			return sexp.Neg(a[0])
		}
		out := a[0]
		var err error
		for _, v := range a[1:] {
			if out, err = sexp.Sub(out, v); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
	def("/", 1, -1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		if len(a) == 1 {
			return sexp.Div(sexp.Fixnum(1), a[0])
		}
		out := a[0]
		var err error
		for _, v := range a[1:] {
			if out, err = sexp.Div(out, v); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
	def("1+", 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		return sexp.Add(a[0], sexp.Fixnum(1))
	})
	def("1-", 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		return sexp.Sub(a[0], sexp.Fixnum(1))
	})
	def("min", 1, -1, true, fold1(sexp.Min))
	def("max", 1, -1, true, fold1(sexp.Max))
	def("abs", 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) { return sexp.Abs(a[0]) })
	def("mod", 2, 2, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) { return sexp.Mod(a[0], a[1]) })
	def("rem", 2, 2, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) { return sexp.Rem(a[0], a[1]) })
	divmode := func(name string, mode sexp.DivMode) {
		def(name, 1, 2, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
			if len(a) == 1 {
				q, _, err := sexp.IntDiv(mode, a[0], sexp.Fixnum(1))
				return q, err
			}
			q, _, err := sexp.IntDiv(mode, a[0], a[1])
			return q, err
		})
	}
	divmode("floor", sexp.DivFloor)
	divmode("ceiling", sexp.DivCeiling)
	divmode("truncate", sexp.DivTruncate)
	divmode("round", sexp.DivRound)
	def("expt", 2, 2, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		return exptGeneric(a[0], a[1])
	})
	def("gcd", 0, -1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		out := int64(0)
		for _, v := range a {
			n, err := sexp.ToInt64(v)
			if err != nil {
				return nil, err
			}
			out = gcd64(out, n)
		}
		return sexp.Fixnum(out), nil
	})

	cmpChain := func(name string, ok func(c int) bool) {
		def(name, 1, -1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
			for i := 0; i+1 < len(a); i++ {
				c, err := sexp.Compare(a[i], a[i+1])
				if err != nil {
					return nil, err
				}
				if !ok(c) {
					return sexp.Nil, nil
				}
			}
			return sexp.T, nil
		})
	}
	cmpChain("=", func(c int) bool { return c == 0 })
	cmpChain("<", func(c int) bool { return c < 0 })
	cmpChain(">", func(c int) bool { return c > 0 })
	cmpChain("<=", func(c int) bool { return c <= 0 })
	cmpChain(">=", func(c int) bool { return c >= 0 })
	def("/=", 2, 2, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		c, err := sexp.Compare(a[0], a[1])
		if err != nil {
			return nil, err
		}
		return sexp.Bool(c != 0), nil
	})

	// --- transcendental (generic) ---
	mathFn := func(name string, f func(float64) float64) {
		def(name, 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
			x, err := sexp.ToFloat(a[0])
			if err != nil {
				return nil, err
			}
			return sexp.Flonum(f(x)), nil
		})
	}
	mathFn("sqrt", math.Sqrt)
	mathFn("sin", math.Sin)
	mathFn("cos", math.Cos)
	mathFn("tan", math.Tan)
	mathFn("exp", math.Exp)
	mathFn("log", math.Log)
	def("atan", 1, 2, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		x, err := sexp.ToFloat(a[0])
		if err != nil {
			return nil, err
		}
		if len(a) == 2 {
			y, err := sexp.ToFloat(a[1])
			if err != nil {
				return nil, err
			}
			return sexp.Flonum(math.Atan2(x, y)), nil
		}
		return sexp.Flonum(math.Atan(x)), nil
	})

	// --- type-specific float operators (§6.2: "+$f" indicates
	// single-precision floating-point addition) ---
	// The associative ones take two or more arguments, as prim declares
	// them for the compiler, folded from the left.
	flo2 := func(name string, max int, f func(x, y float64) float64) {
		def(name, 2, max, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
			x, err := oneFloat(name, a[0])
			if err != nil {
				return nil, err
			}
			for _, v := range a[1:] {
				y, err := oneFloat(name, v)
				if err != nil {
					return nil, err
				}
				x = f(x, y)
			}
			return sexp.Flonum(x), nil
		})
	}
	flo2("+$f", -1, func(x, y float64) float64 { return x + y })
	flo2("-$f", 2, func(x, y float64) float64 { return x - y })
	flo2("*$f", -1, func(x, y float64) float64 { return x * y })
	flo2("/$f", 2, func(x, y float64) float64 { return x / y })
	flo2("max$f", -1, math.Max)
	flo2("min$f", -1, math.Min)
	floCmp := func(name string, ok func(x, y float64) bool) {
		def(name, 2, 2, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
			x, y, err := twoFloats(name, a)
			if err != nil {
				return nil, err
			}
			return sexp.Bool(ok(x, y)), nil
		})
	}
	floCmp("=$f", func(x, y float64) bool { return x == y })
	floCmp("<$f", func(x, y float64) bool { return x < y })
	floCmp(">$f", func(x, y float64) bool { return x > y })
	floCmp("<=$f", func(x, y float64) bool { return x <= y })
	floCmp(">=$f", func(x, y float64) bool { return x >= y })
	flo1 := func(name string, f func(float64) float64) {
		def(name, 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
			x, err := oneFloat(name, a[0])
			if err != nil {
				return nil, err
			}
			return sexp.Flonum(f(x)), nil
		})
	}
	flo1("neg$f", func(x float64) float64 { return -x })
	flo1("abs$f", math.Abs)
	flo1("sqrt$f", math.Sqrt)
	flo1("sin$f", math.Sin)
	flo1("cos$f", math.Cos)
	flo1("atan$f", math.Atan)
	flo1("exp$f", math.Exp)
	flo1("log$f", math.Log)
	// sinc$f/cosc$f take their argument in cycles: the S-1 SIN instruction
	// "assumes its argument to be in cycles" (§7).
	flo1("sinc$f", func(x float64) float64 { return math.Sin(2 * math.Pi * x) })
	flo1("cosc$f", func(x float64) float64 { return math.Cos(2 * math.Pi * x) })
	def("float", 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		return sexp.Float(a[0])
	})
	def("fix", 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		q, _, err := sexp.IntDiv(sexp.DivTruncate, a[0], sexp.Fixnum(1))
		if err != nil {
			return nil, err
		}
		if f, ok := q.(sexp.Flonum); ok {
			return sexp.Fixnum(int64(f)), nil
		}
		return q, nil
	})

	// --- type-specific fixnum operators ("+&" indicates addition of
	// machine integers) ---
	fix2 := func(name string, f func(x, y int64) int64) {
		def(name, 2, 2, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
			x, y, err := twoFixnums(name, a)
			if err != nil {
				return nil, err
			}
			return sexp.Fixnum(f(x, y)), nil
		})
	}
	fix2("+&", func(x, y int64) int64 { return x + y })
	fix2("-&", func(x, y int64) int64 { return x - y })
	fix2("*&", func(x, y int64) int64 { return x * y })
	def("/&", 2, 2, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		x, y, err := twoFixnums("/&", a)
		if err != nil {
			return nil, err
		}
		if y == 0 {
			return nil, lerrf("/&: division by zero")
		}
		return sexp.Fixnum(x / y), nil
	})
	fixCmp := func(name string, ok func(x, y int64) bool) {
		def(name, 2, 2, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
			x, y, err := twoFixnums(name, a)
			if err != nil {
				return nil, err
			}
			return sexp.Bool(ok(x, y)), nil
		})
	}
	fixCmp("=&", func(x, y int64) bool { return x == y })
	fixCmp("<&", func(x, y int64) bool { return x < y })
	fixCmp(">&", func(x, y int64) bool { return x > y })
	fixCmp("<=&", func(x, y int64) bool { return x <= y })
	fixCmp(">=&", func(x, y int64) bool { return x >= y })
	def("1+&", 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		x, err := oneFixnum("1+&", a[0])
		return sexp.Fixnum(x + 1), err
	})
	def("1-&", 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		x, err := oneFixnum("1-&", a[0])
		return sexp.Fixnum(x - 1), err
	})

	// --- arrays ---
	def("make-array", 1, 2, false, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		dims, err := dimsOf(a[0])
		if err != nil {
			return nil, err
		}
		initial := sexp.Value(sexp.Nil)
		if len(a) == 2 {
			initial = a[1]
		}
		return sexp.NewArray(dims, initial), nil
	})
	def("make-float-array", 1, 1, false, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		dims, err := dimsOf(a[0])
		if err != nil {
			return nil, err
		}
		return sexp.NewFloatArray(dims), nil
	})
	def("aref", 1, -1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		return arefGeneric(a[0], a[1:])
	})
	def("aset", 2, -1, false, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		return asetGeneric(a[0], a[1], a[2:])
	})
	def("aref$f", 1, -1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		fa, ok := a[0].(*sexp.FloatArray)
		if !ok {
			return nil, lerrf("aref$f: not a float array")
		}
		idx, err := subsIndex(fa.Dims, a[1:])
		if err != nil {
			return nil, err
		}
		return sexp.Flonum(fa.Data[idx]), nil
	})
	def("aset$f", 2, -1, false, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		fa, ok := a[0].(*sexp.FloatArray)
		if !ok {
			return nil, lerrf("aset$f: not a float array")
		}
		x, err := oneFloat("aset$f", a[1])
		if err != nil {
			return nil, err
		}
		idx, err := subsIndex(fa.Dims, a[2:])
		if err != nil {
			return nil, err
		}
		fa.Data[idx] = x
		return a[1], nil
	})
	def("array-dimensions", 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		var dims []int
		switch arr := a[0].(type) {
		case *sexp.Array:
			dims = arr.Dims
		case *sexp.FloatArray:
			dims = arr.Dims
		default:
			return nil, lerrf("array-dimensions: not an array")
		}
		out := make([]sexp.Value, len(dims))
		for i, d := range dims {
			out[i] = sexp.Fixnum(d)
		}
		return sexp.List(out...), nil
	})

	// --- control and environment ---
	def("funcall", 1, -1, false, func(in *Interp, a []sexp.Value) (sexp.Value, error) {
		return in.Apply(a[0], a[1:])
	})
	def("apply", 2, -1, false, func(in *Interp, a []sexp.Value) (sexp.Value, error) {
		spread, err := sexp.ListToSlice(a[len(a)-1])
		if err != nil {
			return nil, lerrf("apply: last argument must be a list")
		}
		args := append(append([]sexp.Value{}, a[1:len(a)-1]...), spread...)
		return in.Apply(a[0], args)
	})
	def("throw", 2, 2, false, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		return nil, &throwSignal{tag: a[0], val: a[1]}
	})
	def("error", 1, -1, false, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		parts := make([]string, len(a))
		for i, v := range a {
			parts[i] = sexp.Print(v)
		}
		return nil, lerrf("error: %s", fmt.Sprint(parts))
	})
	def("identity", 1, 1, true, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		return a[0], nil
	})
	def("symbol-value", 1, 1, false, func(in *Interp, a []sexp.Value) (sexp.Value, error) {
		sym, ok := a[0].(*sexp.Symbol)
		if !ok {
			return nil, lerrf("symbol-value: not a symbol")
		}
		return in.specialValue(sym)
	})
	def("set", 2, 2, false, func(in *Interp, a []sexp.Value) (sexp.Value, error) {
		sym, ok := a[0].(*sexp.Symbol)
		if !ok {
			return nil, lerrf("set: not a symbol")
		}
		in.setSpecial(sym, a[1])
		return a[1], nil
	})
	def("boundp", 1, 1, false, func(in *Interp, a []sexp.Value) (sexp.Value, error) {
		sym, ok := a[0].(*sexp.Symbol)
		if !ok {
			return nil, lerrf("boundp: not a symbol")
		}
		if i := in.specialLookup(sym); i >= 0 {
			return sexp.T, nil
		}
		_, ok = in.Globals[sym]
		return sexp.Bool(ok), nil
	})
	def("gensym", 0, 1, false, func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		prefix := "g"
		if len(a) == 1 {
			if s, ok := a[0].(sexp.String); ok {
				prefix = string(s)
			}
		}
		return sexp.Gensym(prefix), nil
	})

	// --- output ---
	def("print", 1, 1, false, func(in *Interp, a []sexp.Value) (sexp.Value, error) {
		fmt.Fprintf(in.Out, "\n%s ", sexp.Print(a[0]))
		return a[0], nil
	})
	def("prin1", 1, 1, false, func(in *Interp, a []sexp.Value) (sexp.Value, error) {
		fmt.Fprint(in.Out, sexp.Print(a[0]))
		return a[0], nil
	})
	def("princ", 1, 1, false, func(in *Interp, a []sexp.Value) (sexp.Value, error) {
		if s, ok := a[0].(sexp.String); ok {
			fmt.Fprint(in.Out, string(s))
		} else {
			fmt.Fprint(in.Out, sexp.Print(a[0]))
		}
		return a[0], nil
	})
	def("terpri", 0, 0, false, func(in *Interp, a []sexp.Value) (sexp.Value, error) {
		fmt.Fprintln(in.Out)
		return sexp.Nil, nil
	})
	return funcs
}

// --- helpers ---

func carOf(v sexp.Value) (sexp.Value, error) {
	if sexp.IsNil(v) {
		return sexp.Nil, nil // (car nil) = nil, MACLISP convention
	}
	c, ok := v.(*sexp.Cons)
	if !ok {
		return nil, lerrf("car: not a list: %s", sexp.Print(v))
	}
	return c.Car, nil
}

func cdrOf(v sexp.Value) (sexp.Value, error) {
	if sexp.IsNil(v) {
		return sexp.Nil, nil
	}
	c, ok := v.(*sexp.Cons)
	if !ok {
		return nil, lerrf("cdr: not a list: %s", sexp.Print(v))
	}
	return c.Cdr, nil
}

func pred(f func(sexp.Value) bool) func(*Interp, []sexp.Value) (sexp.Value, error) {
	return func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		return sexp.Bool(f(a[0])), nil
	}
}

func pred2(f func(a, b sexp.Value) bool) func(*Interp, []sexp.Value) (sexp.Value, error) {
	return func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		return sexp.Bool(f(a[0], a[1])), nil
	}
}

func predErr(f func(sexp.Value) (bool, error)) func(*Interp, []sexp.Value) (sexp.Value, error) {
	return func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		b, err := f(a[0])
		if err != nil {
			return nil, err
		}
		return sexp.Bool(b), nil
	}
}

func fold(zero sexp.Value, f func(a, b sexp.Value) (sexp.Value, error)) func(*Interp, []sexp.Value) (sexp.Value, error) {
	return func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		out := zero
		if len(a) > 0 {
			out = a[0]
			a = a[1:]
		}
		var err error
		for _, v := range a {
			if out, err = f(out, v); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

func fold1(f func(a, b sexp.Value) (sexp.Value, error)) func(*Interp, []sexp.Value) (sexp.Value, error) {
	return func(_ *Interp, a []sexp.Value) (sexp.Value, error) {
		out := a[0]
		var err error
		for _, v := range a[1:] {
			if out, err = f(out, v); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

func twoFloats(name string, a []sexp.Value) (float64, float64, error) {
	x, err := oneFloat(name, a[0])
	if err != nil {
		return 0, 0, err
	}
	y, err := oneFloat(name, a[1])
	if err != nil {
		return 0, 0, err
	}
	return x, y, nil
}

func oneFloat(name string, v sexp.Value) (float64, error) {
	f, ok := v.(sexp.Flonum)
	if !ok {
		return 0, lerrf("%s: not a flonum: %s", name, sexp.Print(v))
	}
	return float64(f), nil
}

func twoFixnums(name string, a []sexp.Value) (int64, int64, error) {
	x, err := oneFixnum(name, a[0])
	if err != nil {
		return 0, 0, err
	}
	y, err := oneFixnum(name, a[1])
	if err != nil {
		return 0, 0, err
	}
	return x, y, nil
}

func oneFixnum(name string, v sexp.Value) (int64, error) {
	f, ok := v.(sexp.Fixnum)
	if !ok {
		return 0, lerrf("%s: not a fixnum: %s", name, sexp.Print(v))
	}
	return int64(f), nil
}

func assocBy(key, alist sexp.Value, eq func(a, b sexp.Value) bool) (sexp.Value, error) {
	for !sexp.IsNil(alist) {
		c, ok := alist.(*sexp.Cons)
		if !ok {
			return nil, lerrf("assoc: improper alist")
		}
		if pair, ok := c.Car.(*sexp.Cons); ok && eq(pair.Car, key) {
			return pair, nil
		}
		alist = c.Cdr
	}
	return sexp.Nil, nil
}

func memberBy(key, list sexp.Value, eq func(a, b sexp.Value) bool) (sexp.Value, error) {
	for !sexp.IsNil(list) {
		c, ok := list.(*sexp.Cons)
		if !ok {
			return nil, lerrf("member: improper list")
		}
		if eq(c.Car, key) {
			return c, nil
		}
		list = c.Cdr
	}
	return sexp.Nil, nil
}

func dimsOf(v sexp.Value) ([]int, error) {
	if n, err := sexp.ToInt64(v); err == nil {
		return []int{int(n)}, nil
	}
	items, err := sexp.ListToSlice(v)
	if err != nil {
		return nil, lerrf("make-array: bad dimensions %s", sexp.Print(v))
	}
	dims := make([]int, len(items))
	for i, it := range items {
		n, err := sexp.ToInt64(it)
		if err != nil {
			return nil, err
		}
		dims[i] = int(n)
	}
	return dims, nil
}

func subsIndex(dims []int, subs []sexp.Value) (int, error) {
	is := make([]int, len(subs))
	for i, s := range subs {
		n, err := sexp.ToInt64(s)
		if err != nil {
			return 0, err
		}
		is[i] = int(n)
	}
	return sexp.RowMajorIndex(dims, is)
}

func arefGeneric(arr sexp.Value, subs []sexp.Value) (sexp.Value, error) {
	switch a := arr.(type) {
	case *sexp.Array:
		idx, err := subsIndex(a.Dims, subs)
		if err != nil {
			return nil, err
		}
		return a.Items[idx], nil
	case *sexp.FloatArray:
		idx, err := subsIndex(a.Dims, subs)
		if err != nil {
			return nil, err
		}
		return sexp.Flonum(a.Data[idx]), nil
	case *sexp.Vector:
		idx, err := subsIndex([]int{len(a.Items)}, subs)
		if err != nil {
			return nil, err
		}
		return a.Items[idx], nil
	}
	return nil, lerrf("aref: not an array: %s", sexp.Print(arr))
}

func asetGeneric(arr, val sexp.Value, subs []sexp.Value) (sexp.Value, error) {
	switch a := arr.(type) {
	case *sexp.Array:
		idx, err := subsIndex(a.Dims, subs)
		if err != nil {
			return nil, err
		}
		a.Items[idx] = val
		return val, nil
	case *sexp.FloatArray:
		idx, err := subsIndex(a.Dims, subs)
		if err != nil {
			return nil, err
		}
		f, err := sexp.ToFloat(val)
		if err != nil {
			return nil, err
		}
		a.Data[idx] = f
		return val, nil
	case *sexp.Vector:
		idx, err := subsIndex([]int{len(a.Items)}, subs)
		if err != nil {
			return nil, err
		}
		a.Items[idx] = val
		return val, nil
	}
	return nil, lerrf("aset: not an array: %s", sexp.Print(arr))
}

func exptGeneric(base, power sexp.Value) (sexp.Value, error) {
	if n, err := sexp.ToInt64(power); err == nil {
		if n < 0 {
			inv, err := exptGeneric(base, sexp.Fixnum(-n))
			if err != nil {
				return nil, err
			}
			return sexp.Div(sexp.Fixnum(1), inv)
		}
		out := sexp.Value(sexp.Fixnum(1))
		acc := base
		for n > 0 {
			var err error
			if n&1 == 1 {
				if out, err = sexp.Mul(out, acc); err != nil {
					return nil, err
				}
			}
			if acc, err = sexp.Mul(acc, acc); err != nil {
				return nil, err
			}
			n >>= 1
		}
		return out, nil
	}
	b, err := sexp.ToFloat(base)
	if err != nil {
		return nil, err
	}
	p, err := sexp.ToFloat(power)
	if err != nil {
		return nil, err
	}
	return sexp.Flonum(math.Pow(b, p)), nil
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
