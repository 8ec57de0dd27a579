package s1

import (
	"math"

	"repro/internal/sexp"
)

// Native fallback primitives. Codegen routes the pure library tail —
// list readers, type predicates, fixnum division and friends,
// transcendentals — through the *:SQ-PRIMITIVE gateway (SQPrim, and
// SQPrimFrame for the #'name stubs). Each entry here runs on the
// argument words in place, the way the S-1's SQ routines work on tagged
// words: a list reader returns the real heap structure, so identity and
// mutation behave as in the interpreter.
//
// The decline contract: an entry handles only its well-typed case and
// reports ok=false for anything else (a bignum or ratio, a zero or -1
// divisor, an improper or circular list, fixnum overflow, a word
// ToValue cannot convert), having changed nothing. The gateway then
// takes the marshaled path through the host hook, which produces every
// error text and exotic result exactly as the interpreter would.
//
// The pdl invariant (§6.3): an entry returns nil, t, a fixnum, a word
// read out of a heap cons, vector or value cell, or a flonum it
// allocated itself — never a pdl argument as such — so no
// stack-allocated flonum escapes through it.
//
// Cycle accounting does not depend on the path taken: enterSQ charges
// the gateway's sqCost before choosing.

// nativePrim is one word-level primitive: its arity (max -1 for any
// count) and implementation.
type nativePrim struct {
	min, max int
	run      func(m *Machine, a []Word) (Word, bool)
}

// apply runs the entry on args when their count fits its arity and
// ToValue could convert each; ok=false otherwise, when it declines, or
// for a nil entry.
func (np *nativePrim) apply(m *Machine, args []Word) (Word, bool) {
	if np == nil || len(args) < np.min || np.max >= 0 && len(args) > np.max {
		return Word{}, false
	}
	for _, w := range args {
		if !convertible(w) {
			return Word{}, false
		}
	}
	return np.run(m, args)
}

// nativePrims maps a primitive's name to its word-level implementation.
// InternSym and LoadImage resolve each symbol against it, and then
// against cellPrims, once.
var nativePrims = buildNativePrims()

// cellPrims are the entries that read or write the machine's symbol
// cells — the current dynamic binding, else the global value — the
// cells compiled special-variable references use. They keep out of
// nativePrims because their answers depend on machine state, so they
// cannot be checked against a stateless builtin; the Lisp-level
// differentials check them. Their searches charge no special-lookup
// meters, so cycles stay independent of the path a call takes. Each
// declines a non-symbol, and symbol-value an unbound symbol, leaving
// those error texts to the hook.
var cellPrims = map[string]*nativePrim{
	"symbol-value": {min: 1, max: 1, run: func(m *Machine, a []Word) (Word, bool) {
		if a[0].Tag != TagSymbol {
			return Word{}, false
		}
		return m.symbolValue(int(a[0].Bits))
	}},
	"boundp": {min: 1, max: 1, run: func(m *Machine, a []Word) (Word, bool) {
		if a[0].Tag != TagSymbol {
			return Word{}, false
		}
		_, bound := m.symbolValue(int(a[0].Bits))
		return boolWord(bound), true
	}},
	"set": {min: 2, max: 2, run: func(m *Machine, a []Word) (Word, bool) {
		if a[0].Tag != TagSymbol {
			return Word{}, false
		}
		v := a[1]
		if v.Tag == TagFlonum && IsStackAddr(v.Bits) {
			// A pdl number must not outlive its frame in a value cell
			// (§6.3): store, and return, a heap copy.
			f, ok := m.loadFast(v.Bits)
			if !ok {
				return Word{}, false
			}
			v = m.ConsFlonum(f.Float())
		}
		sym := int(a[0].Bits)
		for i := len(m.bindStack) - 1; i >= 0; i-- {
			if m.bindStack[i].sym == sym {
				m.bindStack[i].val = v
				return v, true
			}
		}
		m.Syms[sym].Value, m.Syms[sym].HasValue = v, true
		return v, true
	}},
}

// symbolValue returns symbol sym's current dynamic binding, else its
// global value; bound is false when it has neither.
func (m *Machine) symbolValue(sym int) (w Word, bound bool) {
	for i := len(m.bindStack) - 1; i >= 0; i-- {
		if m.bindStack[i].sym == sym {
			return m.bindStack[i].val, true
		}
	}
	c := &m.Syms[sym]
	return c.Value, c.HasValue
}

func buildNativePrims() map[string]*nativePrim {
	t := map[string]*nativePrim{}
	def := func(name string, min, max int, run func(m *Machine, a []Word) (Word, bool)) {
		t[name] = &nativePrim{min: min, max: max, run: run}
	}

	// --- list readers ---
	for name, ops := range map[string]string{
		"car": "a", "cdr": "d", "first": "a", "rest": "d", "second": "ad",
		"caar": "aa", "cadr": "ad", "cdar": "da", "cddr": "dd",
		"caddr": "add", "cdddr": "ddd",
	} {
		def(name, 1, 1, func(m *Machine, a []Word) (Word, bool) {
			w := a[0]
			for i := len(ops) - 1; i >= 0; i-- {
				var ok bool
				if w, ok = m.listStep(w, ops[i] == 'd'); !ok {
					return Word{}, false
				}
			}
			return w, true
		})
	}
	def("nthcdr", 2, 2, func(m *Machine, a []Word) (Word, bool) { return m.nthcdrWords(a[0], a[1]) })
	def("nth", 2, 2, func(m *Machine, a []Word) (Word, bool) {
		w, ok := m.nthcdrWords(a[0], a[1])
		if !ok {
			return Word{}, false
		}
		return m.listStep(w, false)
	})
	def("last", 1, 1, func(m *Machine, a []Word) (Word, bool) {
		w := a[0]
		if w.Tag == TagNil {
			return NilWord, true
		}
		for steps := m.listLimit(); w.Tag == TagCons && steps > 0; steps-- {
			cdr, ok := m.loadFast(w.Bits + 1)
			if !ok {
				return Word{}, false
			}
			if cdr.Tag != TagCons {
				return w, true
			}
			w = cdr
		}
		return Word{}, false
	})
	def("length", 1, 1, func(m *Machine, a []Word) (Word, bool) {
		w := a[0]
		switch w.Tag {
		case TagVector:
			n, ok := m.loadFast(w.Bits)
			return FixnumWord(n.Int()), ok
		case TagBoxed:
			if s, ok := m.Boxes[w.Bits].(sexp.String); ok {
				return FixnumWord(int64(len(s))), true
			}
			return Word{}, false
		}
		n := int64(0)
		for steps := m.listLimit(); w.Tag == TagCons && steps > 0; steps-- {
			var ok bool
			if w, ok = m.loadFast(w.Bits + 1); !ok {
				return Word{}, false
			}
			n++
		}
		if w.Tag != TagNil {
			return Word{}, false
		}
		return FixnumWord(n), true
	})
	def("memq", 2, 2, func(m *Machine, a []Word) (Word, bool) { return m.memberWords(a[0], a[1], false) })
	def("member", 2, 2, func(m *Machine, a []Word) (Word, bool) { return m.memberWords(a[0], a[1], true) })
	def("assq", 2, 2, func(m *Machine, a []Word) (Word, bool) { return m.assocWords(a[0], a[1], false) })
	def("assoc", 2, 2, func(m *Machine, a []Word) (Word, bool) { return m.assocWords(a[0], a[1], true) })

	// --- type predicates ---
	pred := func(name string, f func(m *Machine, w Word) bool) {
		def(name, 1, 1, func(m *Machine, a []Word) (Word, bool) {
			if a[0].Tag == TagBoxed {
				// Only FromValue's own boxed kinds: anything else came
				// back from the host hook and keeps its host semantics.
				switch m.Boxes[a[0].Bits].(type) {
				case *sexp.Bignum, *sexp.Ratio, sexp.String, sexp.Character:
				default:
					return Word{}, false
				}
			}
			return boolWord(f(m, a[0])), true
		})
	}
	pred("atom", func(_ *Machine, w Word) bool { return w.Tag != TagCons })
	pred("consp", func(_ *Machine, w Word) bool { return w.Tag == TagCons })
	pred("listp", func(_ *Machine, w Word) bool { return w.Tag == TagCons || w.Tag == TagNil })
	pred("null", func(_ *Machine, w Word) bool { return w.Tag == TagNil })
	pred("not", func(_ *Machine, w Word) bool { return w.Tag == TagNil })
	pred("symbolp", func(_ *Machine, w Word) bool {
		return w.Tag == TagNil || w.Tag == TagT || w.Tag == TagSymbol
	})
	pred("numberp", func(m *Machine, w Word) bool {
		return w.Tag == TagFixnum || w.Tag == TagFlonum || w.Tag == TagBoxed && sexp.IsNumber(m.Boxes[w.Bits])
	})
	pred("integerp", func(m *Machine, w Word) bool {
		return w.Tag == TagFixnum || w.Tag == TagBoxed && sexp.IsInteger(m.Boxes[w.Bits])
	})
	pred("floatp", func(_ *Machine, w Word) bool { return w.Tag == TagFlonum })
	pred("stringp", func(m *Machine, w Word) bool {
		if w.Tag != TagBoxed {
			return false
		}
		_, ok := m.Boxes[w.Bits].(sexp.String)
		return ok
	})
	pred("functionp", func(_ *Machine, w Word) bool { return w.Tag == TagFunc || w.Tag == TagClosure })

	// --- numeric predicates: sexp.Compare's three-way comparison with
	// 0, under which NaN compares "equal" (a fixnum keeps its sign as a
	// float) ---
	sign := func(name string, f func(c int) bool) {
		def(name, 1, 1, func(m *Machine, a []Word) (Word, bool) {
			x, ok := m.floatArg(a[0])
			c := 0
			if x < 0 {
				c = -1
			} else if x > 0 {
				c = 1
			}
			return boolWord(f(c)), ok
		})
	}
	sign("zerop", func(c int) bool { return c == 0 })
	sign("plusp", func(c int) bool { return c > 0 })
	sign("minusp", func(c int) bool { return c < 0 })
	parity := func(name string, odd bool) {
		def(name, 1, 1, func(_ *Machine, a []Word) (Word, bool) {
			if a[0].Tag != TagFixnum {
				return Word{}, false
			}
			return boolWord((a[0].Int()&1 == 1) == odd), true
		})
	}
	parity("oddp", true)
	parity("evenp", false)

	// --- fixnum arithmetic ---
	div := func(name string, r func(x, y int64) int64) {
		def(name, 2, 2, func(_ *Machine, a []Word) (Word, bool) {
			x, y, ok := divisorPair(a[0], a[1])
			if !ok {
				return Word{}, false
			}
			return FixnumWord(r(x, y)), true
		})
	}
	div("rem", func(x, y int64) int64 { return x % y })
	div("mod", func(x, y int64) int64 {
		r := x % y
		if r != 0 && (r < 0) != (y < 0) {
			r += y
		}
		return r
	})
	quo := func(name string, q func(x, y int64) int64) {
		def(name, 1, 2, func(_ *Machine, a []Word) (Word, bool) {
			d := FixnumWord(1)
			if len(a) == 2 {
				d = a[1]
			}
			x, y, ok := divisorPair(a[0], d)
			if !ok {
				return Word{}, false
			}
			return FixnumWord(q(x, y)), true
		})
	}
	quo("truncate", func(x, y int64) int64 { return x / y })
	quo("floor", func(x, y int64) int64 {
		if r := x % y; r != 0 && (r < 0) != (y < 0) {
			return x/y - 1
		}
		return x / y
	})
	quo("ceiling", func(x, y int64) int64 {
		if r := x % y; r != 0 && (r < 0) == (y < 0) {
			return x/y + 1
		}
		return x / y
	})
	quo("round", roundHalfEven)
	unary := func(name string, f func(x int64) (int64, bool)) {
		def(name, 1, 1, func(_ *Machine, a []Word) (Word, bool) {
			if a[0].Tag != TagFixnum {
				return Word{}, false
			}
			r, ok := f(a[0].Int())
			return FixnumWord(r), ok
		})
	}
	unary("abs", func(x int64) (int64, bool) {
		if x < 0 {
			return -x, x != math.MinInt64
		}
		return x, true
	})
	unary("1+", func(x int64) (int64, bool) { return x + 1, x != math.MaxInt64 })
	unary("1-", func(x int64) (int64, bool) { return x - 1, x != math.MinInt64 })
	extreme := func(name string, better func(x, y int64) bool) {
		def(name, 1, -1, func(_ *Machine, a []Word) (Word, bool) {
			out := a[0]
			for _, w := range a {
				if w.Tag != TagFixnum {
					return Word{}, false
				}
				if better(w.Int(), out.Int()) {
					out = w
				}
			}
			return out, true
		})
	}
	extreme("min", func(x, y int64) bool { return x < y })
	extreme("max", func(x, y int64) bool { return x > y })

	// --- transcendentals: a fresh flonum from a fixnum or flonum ---
	for name, f := range map[string]func(float64) float64{
		"sqrt": math.Sqrt, "sin": math.Sin, "cos": math.Cos, "tan": math.Tan,
		"exp": math.Exp, "log": math.Log,
	} {
		def(name, 1, 1, func(m *Machine, a []Word) (Word, bool) {
			x, ok := m.floatArg(a[0])
			if !ok {
				return Word{}, false
			}
			return m.ConsFlonum(f(x)), true
		})
	}
	def("atan", 1, 2, func(m *Machine, a []Word) (Word, bool) {
		x, ok := m.floatArg(a[0])
		if !ok {
			return Word{}, false
		}
		if len(a) == 1 {
			return m.ConsFlonum(math.Atan(x)), true
		}
		y, ok := m.floatArg(a[1])
		if !ok {
			return Word{}, false
		}
		return m.ConsFlonum(math.Atan2(x, y)), true
	})
	return t
}

// convertible reports whether ToValue can convert a word of w's tag.
func convertible(w Word) bool {
	switch w.Tag {
	case TagNil, TagT, TagFixnum, TagFlonum, TagSymbol, TagBoxed, TagCons,
		TagVector, TagArray, TagFArray, TagFunc, TagClosure:
		return true
	}
	return false
}

// divisorPair returns two fixnums whose quotient and remainder cannot
// overflow or fault: the divisor is neither 0 nor -1.
func divisorPair(a, b Word) (int64, int64, bool) {
	if a.Tag != TagFixnum || b.Tag != TagFixnum {
		return 0, 0, false
	}
	y := b.Int()
	return a.Int(), y, y != 0 && y != -1
}

// roundHalfEven is sexp.IntDiv's DivRound quotient on fixnums.
func roundHalfEven(x, y int64) int64 {
	q, r := x/y, x%y
	if r == 0 {
		return q
	}
	// |2r| against |y| in unsigned arithmetic: |y| may be 2^63.
	ar, ay := uint64(r), uint64(y)
	if r < 0 {
		ar = -ar
	}
	if y < 0 {
		ay = -ay
	}
	if twice := 2 * ar; twice > ay || twice == ay && q&1 == 1 {
		if (x < 0) != (y < 0) {
			return q - 1
		}
		return q + 1
	}
	return q
}

// listStep is car (cdr=false) or cdr of a list word: nil for nil, the
// cell's half for a cons, false for anything else.
func (m *Machine) listStep(w Word, cdr bool) (Word, bool) {
	switch w.Tag {
	case TagNil:
		return NilWord, true
	case TagCons:
		if cdr {
			return m.loadFast(w.Bits + 1)
		}
		return m.loadFast(w.Bits)
	}
	return Word{}, false
}

// listLimit bounds a list walk: a proper list has no more cells than
// the heap holds, so a walk that outlasts this is on a circular list.
func (m *Machine) listLimit() int { return len(m.heap)/2 + 1 }

// nthcdrWords is (nthcdr n list) for a fixnum n: the interpreter's cdr
// loop, stopping early at nil (whose cdr is nil).
func (m *Machine) nthcdrWords(n, list Word) (Word, bool) {
	if n.Tag != TagFixnum || list.Tag != TagCons && list.Tag != TagNil {
		return Word{}, false
	}
	w, steps := list, m.listLimit()
	for k := n.Int(); k > 0 && w.Tag != TagNil; k-- {
		if w.Tag != TagCons || steps == 0 {
			return Word{}, false
		}
		steps--
		var ok bool
		if w, ok = m.loadFast(w.Bits + 1); !ok {
			return Word{}, false
		}
	}
	return w, true
}

// memberWords is (member key list), or memq when equal is false: the
// tail whose car matches, or nil.
func (m *Machine) memberWords(key, list Word, equal bool) (Word, bool) {
	steps := m.listLimit()
	for w := list; w.Tag != TagNil; steps-- {
		if w.Tag != TagCons || steps == 0 {
			return Word{}, false
		}
		car, ok1 := m.loadFast(w.Bits)
		cdr, ok2 := m.loadFast(w.Bits + 1)
		if !ok1 || !ok2 {
			return Word{}, false
		}
		hit, ok := m.matchWords(car, key, equal, &steps)
		if !ok {
			return Word{}, false
		}
		if hit {
			return w, true
		}
		w = cdr
	}
	return NilWord, true
}

// assocWords is (assoc key alist), or assq when equal is false: the
// first cons element whose car matches, or nil. Non-cons elements are
// skipped, as in the interpreter.
func (m *Machine) assocWords(key, alist Word, equal bool) (Word, bool) {
	steps := m.listLimit()
	for w := alist; w.Tag != TagNil; steps-- {
		if w.Tag != TagCons || steps == 0 {
			return Word{}, false
		}
		pair, ok1 := m.loadFast(w.Bits)
		cdr, ok2 := m.loadFast(w.Bits + 1)
		if !ok1 || !ok2 {
			return Word{}, false
		}
		if pair.Tag == TagCons {
			k, ok := m.loadFast(pair.Bits)
			if !ok {
				return Word{}, false
			}
			hit, ok := m.matchWords(k, key, equal, &steps)
			if !ok {
				return Word{}, false
			}
			if hit {
				return pair, true
			}
		}
		w = cdr
	}
	return NilWord, true
}

// matchWords is sexp.Equal (equal) or sexp.Eq on two words; ok=false
// when an equal comparison ran out of steps.
func (m *Machine) matchWords(a, b Word, equal bool, steps *int) (bool, bool) {
	if equal {
		return m.equalWords(a, b, 0, steps)
	}
	return m.eqWords(a, b), true
}

// floatArg reads a fixnum or flonum argument (a pdl number included) as
// a float, the way sexp.ToFloat does.
func (m *Machine) floatArg(w Word) (float64, bool) {
	switch w.Tag {
	case TagFixnum:
		return float64(w.Int()), true
	case TagFlonum:
		v, ok := m.loadFast(w.Bits)
		return v.Float(), ok
	}
	return 0, false
}

// eqWords is sexp.Eq on the values two words denote: word identity,
// except that flonums compare by value (a boxed host float has no
// identity) and boxed objects by their host values.
func (m *Machine) eqWords(a, b Word) bool {
	switch {
	case a.Tag == TagFlonum && b.Tag == TagFlonum:
		x, ok1 := m.loadFast(a.Bits)
		y, ok2 := m.loadFast(b.Bits)
		return ok1 && ok2 && x.Float() == y.Float()
	case a.Tag == TagBoxed && b.Tag == TagBoxed:
		return sexp.Eq(m.Boxes[a.Bits], m.Boxes[b.Bits])
	}
	return a == b
}

// eqlWords is sexp.Eql on the values two words denote.
func (m *Machine) eqlWords(a, b Word) bool {
	switch {
	case a.Tag == TagBoxed && b.Tag == TagBoxed:
		return sexp.Eql(m.Boxes[a.Bits], m.Boxes[b.Bits])
	case a.Tag == TagBoxed && b.Tag == TagFixnum:
		return sexp.Eql(m.Boxes[a.Bits], sexp.Fixnum(b.Int()))
	case a.Tag == TagFixnum && b.Tag == TagBoxed:
		return sexp.Eql(sexp.Fixnum(a.Int()), m.Boxes[b.Bits])
	}
	return m.eqWords(a, b)
}

// maxEqualDepth bounds equalWords' recursion on cars.
const maxEqualDepth = 10_000

// equalWords is sexp.Equal on the values two words denote: eql, or
// conses with equal cars and cdrs, strings with equal contents, vectors
// with equal items. Each cell visited spends one of *steps; ok=false
// (nothing decided) when they run out or the car nesting is too deep,
// so a circular structure declines instead of looping.
func (m *Machine) equalWords(a, b Word, depth int, steps *int) (bool, bool) {
	if depth > maxEqualDepth {
		return false, false
	}
	for {
		if m.eqlWords(a, b) {
			return true, true
		}
		if *steps <= 0 {
			return false, false
		}
		*steps--
		switch {
		case a.Tag == TagCons && b.Tag == TagCons:
			ac, ok1 := m.loadFast(a.Bits)
			bc, ok2 := m.loadFast(b.Bits)
			ad, ok3 := m.loadFast(a.Bits + 1)
			bd, ok4 := m.loadFast(b.Bits + 1)
			if !ok1 || !ok2 || !ok3 || !ok4 {
				return false, false
			}
			if eq, ok := m.equalWords(ac, bc, depth+1, steps); !eq || !ok {
				return eq, ok
			}
			a, b = ad, bd
		case a.Tag == TagBoxed && b.Tag == TagBoxed:
			return sexp.Equal(m.Boxes[a.Bits], m.Boxes[b.Bits]), true
		case a.Tag == TagVector && b.Tag == TagVector:
			na, ok1 := m.loadFast(a.Bits)
			nb, ok2 := m.loadFast(b.Bits)
			if !ok1 || !ok2 {
				return false, false
			}
			if na != nb {
				return false, true
			}
			for i := uint64(1); i <= uint64(na.Int()); i++ {
				x, ok1 := m.loadFast(a.Bits + i)
				y, ok2 := m.loadFast(b.Bits + i)
				if !ok1 || !ok2 {
					return false, false
				}
				if eq, ok := m.equalWords(x, y, depth+1, steps); !eq || !ok {
					return eq, ok
				}
			}
			return true, true
		default:
			return false, true
		}
	}
}
