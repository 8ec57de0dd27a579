package s1

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sexp"
)

// Hardware math. FSIN/FCOS take their arguments in cycles, as the S-1's
// instructions do (§7: "the S-1 SIN instruction assumes its argument to
// be in cycles").
func sinCycles(x float64) float64 { return math.Sin(2 * math.Pi * x) }
func cosCycles(x float64) float64 { return math.Cos(2 * math.Pi * x) }
func sqrt(x float64) float64      { return math.Sqrt(x) }
func atan(x float64) float64      { return math.Atan(x) }
func exp(x float64) float64       { return math.Exp(x) }
func logf(x float64) float64      { return math.Log(x) }
func fabs(x float64) float64      { return math.Abs(x) }
func fmax(x, y float64) float64   { return math.Max(x, y) }
func fmin(x, y float64) float64   { return math.Min(x, y) }

// SQ system routines (the *:SQ-... world of Table 4). Conventions:
// binary routines take arguments in A and B and return in A; THROW takes
// tag in A and value in B; the variadic routines take counts from the
// instruction's B operand.
const (
	SQWrongArgs = iota
	SQWrongType
	SQAdd
	SQSub
	SQMul
	SQDiv
	SQNumEq
	SQLt
	SQGt
	SQLe
	SQGe
	SQEql
	SQEqual
	SQCons
	SQCar
	SQCdr
	SQRplaca
	SQRplacd
	SQList
	SQFlonumCons
	SQFixnumCons
	SQCertify
	SQSpecFind
	SQSpecRead
	SQSpecWrite
	SQSpecReadSym
	SQSpecWriteSym
	SQThrow
	SQRestify
	SQApplyList
	SQPrim
	SQPrimFrame
	SQPrint
	SQError
	SQCount // number of routines
)

var sqNames = [SQCount]string{
	"*:SQ-WRONG-NUMBER-OF-ARGUMENTS", "*:SQ-WRONG-TYPE", "*:SQ-ADD",
	"*:SQ-SUB", "*:SQ-MUL", "*:SQ-DIV", "*:SQ-NUM-EQUAL", "*:SQ-LESS",
	"*:SQ-GREATER", "*:SQ-LESS-EQ", "*:SQ-GREATER-EQ", "*:SQ-EQL",
	"*:SQ-EQUAL", "*:SQ-CONS", "*:SQ-CAR", "*:SQ-CDR", "*:SQ-RPLACA",
	"*:SQ-RPLACD", "*:SQ-LIST", "*:SQ-SINGLE-FLONUM-CONS",
	"*:SQ-FIXNUM-CONS", "*:SQ-CERTIFY", "*:SQ-SPECIAL-FIND",
	"*:SQ-SPECIAL-READ", "*:SQ-SPECIAL-WRITE", "*:SQ-SPECIAL-READ-DEEP",
	"*:SQ-SPECIAL-WRITE-DEEP", "*:SQ-THROW", "*:SQ-RESTIFY",
	"*:SQ-APPLY-LIST", "*:SQ-PRIMITIVE", "*:SQ-PRIMITIVE-FRAME",
	"*:SQ-PRINT", "*:SQ-ERROR",
}

// SQName renders an SQ routine index.
func SQName(i int) string {
	if i >= 0 && i < SQCount {
		return sqNames[i]
	}
	return fmt.Sprintf("*:SQ-%d", i)
}

// sqCost approximates each routine's cycle cost beyond the CALLSQ
// dispatch.
var sqCost = [SQCount]int64{
	2, 2, 25, 25, 28, 40, 20, 20, 20, 20, 20, 10, 40, 12, 4, 4, 4, 4, 10,
	8, 6, 6, 8, 2, 2, 10, 10, 20, 20, 15, 60, 60, 80, 10,
}

// PrimHook lets the host supply implementations for primitives without a
// native SQ routine or word-level entry (native.go), and for the cases a
// native entry declines: append, reverse, bignum arithmetic, every error
// text. Wired to the process-wide builtin table by the core package
// (interp.CallBuiltin). name is
// the symbol's interned host symbol. args is the machine's scratch
// (primArgs): the hook may read it while it runs but must not keep it
// after returning.
type PrimHook func(name *sexp.Symbol, args []sexp.Value) (sexp.Value, error)

// pushPrimArgs reserves n zeroed argument slots on the machine's
// primitive-argument stack and returns them with the stack's previous
// depth, which popPrimArgs restores. A stack, not one buffer, so that a
// hook re-entering the machine gets its own region; the slots are capped
// so nothing appends over a neighbour.
func (m *Machine) pushPrimArgs(n int) ([]sexp.Value, int) {
	base := len(m.primArgs)
	m.primArgs = slices.Grow(m.primArgs, n)[:base+n]
	return m.primArgs[base : base+n : base+n], base
}

// popPrimArgs releases the slots above base, dropping their values so
// the scratch keeps no host object alive.
func (m *Machine) popPrimArgs(base int) {
	clear(m.primArgs[base:])
	m.primArgs = m.primArgs[:base]
}

// SetPrimHook installs the fallback primitive implementation.
func (m *Machine) SetPrimHook(h PrimHook) { m.primHook = h }

// stackWords returns the n pushed stack words from address lo in place.
func (m *Machine) stackWords(lo uint64, n int64) ([]Word, error) {
	if n == 0 {
		return nil, nil // SP may sit past the stack's end after ADD SP
	}
	i, end := lo-StackBase, lo-StackBase+uint64(n)
	if n < 0 || i > end || end > uint64(len(m.stack)) {
		return nil, &RuntimeError{PC: m.pc, Msg: "primitive arguments outside the stack"}
	}
	return m.stack[i:end:end], nil
}

// callPrim applies the fallback primitive named by symbol sym to args,
// stack words that stay there (GC roots) until the caller pops them. A
// native entry runs on them in place unless it declines; otherwise the
// arguments are marshaled to host values for the hook and its result
// copied back. A compiled definition of the name never gets here: the
// gateways call it instead (shadowingFn).
func (m *Machine) callPrim(sym int, args []Word) (Word, error) {
	c := &m.Syms[sym]
	if out, ok := c.native.apply(m, args); ok {
		return out, nil
	}
	m.Stats.MarshaledPrims++
	if m.primHook == nil {
		return Word{}, &RuntimeError{PC: m.pc, Msg: "no primitive hook installed"}
	}
	vals, base := m.pushPrimArgs(len(args))
	for i, w := range args {
		v, err := m.ToValue(w)
		if err != nil {
			m.popPrimArgs(base)
			return Word{}, err
		}
		vals[i] = v
	}
	out, err := m.primHook(c.host, vals)
	m.popPrimArgs(base)
	if err != nil {
		return Word{}, &RuntimeError{PC: m.pc, Msg: err.Error()}
	}
	return m.FromValue(out), nil
}

// shadowingFn returns the function cell of primitive symbol sym when a
// compiled definition has bound it: the gateways then call that
// definition on the machine, under the same budgets as any other call.
func (m *Machine) shadowingFn(sym int) (Word, bool) {
	fn := m.Syms[sym].Function
	return fn, fn.Tag != TagNil
}

// gatewayReturn encodes a frame's return address for a call the
// *:SQ-PRIMITIVE gateway made to a compiled definition of the
// primitive's name: negative, so ret knows to leave the value in A and
// the arguments popped, the gateway's own convention, instead of
// pushing it, and to restore the registers gatewayCall saved. Real
// return addresses are never negative.
func gatewayReturn(pc int) int { return -pc }

// gatewaySaves reports whether the *:SQ-PRIMITIVE gateway keeps
// register r for its caller across a call to a compiled definition.
// The code generator treats the gateway as a system routine, which
// preserves the general registers, while the definition's code
// allocates from the same registers; SP, FP and EP come back through
// the frame and A carries the value.
func gatewaySaves(r int) bool { return r != RegA && r != RegSP && r != RegFP && r != RegEP }

// gatewayCall calls fn, a compiled definition of the primitive whose
// *:SQ-PRIMITIVE gateway is at pc, on args, the words on top of the
// stack. The saved registers go on the stack under the arguments (GC
// roots there, and discarded with the stack by a throw past the call);
// the callee's return pops the arguments, restores the registers and
// leaves the value in A, as the gateway would (gatewayReturn).
func (m *Machine) gatewayCall(args []Word, fn Word) error {
	args = slices.Clone(args) // the saved registers overwrite these stack words
	m.regs[RegSP] = RawInt(int64(m.regs[RegSP].Bits) - int64(len(args)))
	for r := range m.regs {
		if gatewaySaves(r) {
			if err := m.push(m.regs[r]); err != nil {
				return err
			}
		}
	}
	for _, a := range args {
		if err := m.push(a); err != nil {
			return err
		}
	}
	return m.enterFrame(len(args), gatewayReturn(m.pc+1), fn, false)
}

// callSQ executes a system routine with its CALLSQ operands b and c,
// which it only reads; jumped reports that control transferred (pc already set).
func (m *Machine) callSQ(idx int, b, c *Operand) (bool, error) {
	A := m.regs[RegA]
	B := m.regs[RegB]
	setA := func(w Word) { m.regs[RegA] = w }

	lispErr := func(format string, args ...any) error {
		return &RuntimeError{PC: m.pc, Msg: fmt.Sprintf(format, args...)}
	}

	switch idx {
	case SQWrongArgs:
		return false, lispErr("wrong number of arguments")
	case SQWrongType:
		return false, lispErr("wrong type of argument: %s", A)

	case SQAdd, SQSub, SQMul, SQDiv, SQNumEq, SQLt, SQGt, SQLe, SQGe:
		return false, m.sqArith(idx)

	case SQEql, SQEqual:
		// On the words themselves, so conses keep their identity; only
		// a comparison that cannot decide in place (a circular
		// structure, a word that does not convert) compares host copies.
		eq, ok := false, convertible(A) && convertible(B)
		if ok && idx == SQEql {
			eq = m.eqlWords(A, B)
		} else if ok {
			steps := m.listLimit()
			eq, ok = m.equalWords(A, B, 0, &steps)
		}
		if !ok {
			x, err := m.ToValue(A)
			if err != nil {
				return false, err
			}
			y, err := m.ToValue(B)
			if err != nil {
				return false, err
			}
			if idx == SQEql {
				eq = sexp.Eql(x, y)
			} else {
				eq = sexp.Equal(x, y)
			}
		}
		setA(boolWord(eq))

	case SQCons:
		setA(m.consHeap(A, B))

	case SQCar, SQCdr:
		if A.Tag == TagNil {
			setA(NilWord)
			break
		}
		if A.Tag != TagCons {
			return false, lispErr("car/cdr of non-list %s", A)
		}
		off := uint64(0)
		if idx == SQCdr {
			off = 1
		}
		w, err := m.load(A.Bits + off)
		if err != nil {
			return false, err
		}
		setA(w)

	case SQRplaca, SQRplacd:
		if A.Tag != TagCons {
			return false, lispErr("rplaca/rplacd of non-cons %s", A)
		}
		off := uint64(0)
		if idx == SQRplacd {
			off = 1
		}
		if err := m.store(A.Bits+off, B); err != nil {
			return false, err
		}

	case SQList:
		n, err := m.value(b)
		if err != nil {
			return false, err
		}
		// Popped words sit above SP and the growing chain lives only in a
		// host local; both are invisible to the collector, so shield them
		// in temp-root slots across each Cons allocation.
		out := NilWord
		depth := m.protect(NilWord)
		wSlot := m.protect(NilWord)
		for i := int64(0); i < n.Int(); i++ {
			w, err := m.pop()
			if err != nil {
				m.release(depth)
				return false, err
			}
			m.tempRoots[depth] = out
			w = m.heapWord(w)
			m.tempRoots[wSlot] = w
			out = m.Cons(w, out)
		}
		m.release(depth)
		setA(out)

	case SQFlonumCons:
		setA(m.ConsFlonum(A.Float()))

	case SQFixnumCons:
		setA(FixnumWord(A.Int()))

	case SQCertify:
		// §6.3: before an unsafe operation, a potentially unsafe pointer
		// must be certified — shown safe, or copied into the heap.
		m.Stats.Certifies++
		setA(m.heapWord(A))

	case SQSpecFind:
		symOp, err := m.value(b)
		if err != nil {
			return false, err
		}
		setA(RawInt(m.specFind(int(symOp.Int()))))

	case SQSpecRead:
		w, err := m.specRead(A.Int())
		if err != nil {
			return false, err
		}
		setA(w)

	case SQSpecWrite:
		if err := m.specWrite(A.Int(), B); err != nil {
			return false, err
		}
		setA(B)

	case SQSpecReadSym:
		symOp, err := m.value(b)
		if err != nil {
			return false, err
		}
		w, err := m.specRead(m.specFind(int(symOp.Int())))
		if err != nil {
			return false, err
		}
		setA(w)

	case SQSpecWriteSym:
		symOp, err := m.value(b)
		if err != nil {
			return false, err
		}
		if err := m.specWrite(m.specFind(int(symOp.Int())), A); err != nil {
			return false, err
		}

	case SQThrow:
		return m.throw(A, B)

	case SQRestify:
		k, err := m.value(b)
		if err != nil {
			return false, err
		}
		if err := m.restify(int(k.Int())); err != nil {
			return false, err
		}

	case SQApplyList:
		// A = function, B = argument list. Push the spread arguments and
		// enter the function; return lands after this instruction.
		n := 0
		for w := B; w.Tag != TagNil; {
			if w.Tag != TagCons {
				return false, lispErr("apply: improper argument list")
			}
			car, err := m.load(w.Bits)
			if err != nil {
				return false, err
			}
			if err := m.push(car); err != nil {
				return false, err
			}
			n++
			if w, err = m.load(w.Bits + 1); err != nil {
				return false, err
			}
		}
		if err := m.enterFrame(n, m.pc+1, A, false); err != nil {
			return false, err
		}
		return true, nil

	case SQPrint:
		v, err := m.ToValue(A)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(m.Out, "\n%s ", sexp.Print(v))

	case SQError:
		v, _ := m.ToValue(A)
		return false, lispErr("error: %s", sexp.Print(v))

	default:
		return false, lispErr("bad SQ routine %d", idx)
	}
	return false, nil
}

// pdlNumber reports whether w is a pdl number (§6.3): a flonum pointer
// into the stack, valid only while its frame lives.
func pdlNumber(w Word) bool { return w.Tag == TagFlonum && IsStackAddr(w.Bits) }

// heapWord returns w, with a pdl number first copied into the heap —
// the copy SQCertify makes, counted in CertifyCopies. The routines that
// store their operands into new heap objects (cons, list, &rest) pass
// each operand through it, since the object can outlive the frame; any
// other word is returned as it is, at no cost.
func (m *Machine) heapWord(w Word) Word {
	if !pdlNumber(w) {
		return w
	}
	v, _ := m.load(w.Bits) // a stack address always loads
	m.Stats.CertifyCopies++
	return m.ConsFlonum(v.Float())
}

// consHeap is SQCons: a cons of a and b, each passed through heapWord.
func (m *Machine) consHeap(a, b Word) Word {
	if !pdlNumber(a) && !pdlNumber(b) {
		return m.Cons(a, b)
	}
	a = m.heapWord(a)
	depth := m.protect(a) // across the allocations that follow
	b = m.heapWord(b)
	m.protect(b)
	w := m.Cons(a, b)
	m.release(depth)
	return w
}

// chargeSQ adds system routine idx's own cost to the meters; the
// CALLSQ dispatch was already counted, and the routine's cost lands on
// the same opcode bucket and function in the profile.
func (m *Machine) chargeSQ(idx int) {
	m.Stats.Cycles += sqCost[idx]
	if p := m.prof; p != nil {
		p.noteExtra(OpCALLSQ, sqCost[idx])
	}
}

// sqPrim is SQPrim, the *:SQ-PRIMITIVE gateway: apply the fallback
// primitive of symbol sym to the argc words on top of the stack, or
// enter the compiled definition that shadows it. jumped is as for
// callSQ.
func (m *Machine) sqPrim(sym int, argc int64) (jumped bool, err error) {
	sp := m.regs[RegSP].Bits
	args, err := m.stackWords(sp-uint64(argc), argc)
	if err != nil {
		return false, err
	}
	if fn, ok := m.shadowingFn(sym); ok {
		return true, m.gatewayCall(args, fn)
	}
	out, err := m.callPrim(sym, args)
	m.regs[RegSP] = RawInt(int64(sp) - argc)
	if err != nil {
		return false, err
	}
	m.regs[RegA] = out
	return false, nil
}

// sqPrimFrame is SQPrimFrame, the body of a primitive stub function:
// apply the fallback primitive of symbol sym to this frame's arguments.
func (m *Machine) sqPrimFrame(sym int) (jumped bool, err error) {
	fp := m.regs[RegFP].Bits
	nw, err := m.load(fp - 4)
	if err != nil {
		return false, err
	}
	args, err := m.stackWords(fp-4-uint64(nw.Int()), nw.Int())
	if err != nil {
		return false, err
	}
	if fn, ok := m.shadowingFn(sym); ok {
		// Replace the stub's frame with the definition's.
		for _, a := range args {
			if err := m.push(a); err != nil {
				return false, err
			}
		}
		return true, m.tailCall(len(args), fn)
	}
	out, err := m.callPrim(sym, args)
	if err != nil {
		return false, err
	}
	m.regs[RegA] = out
	return false, nil
}

func boolWord(b bool) Word {
	if b {
		return TWord
	}
	return NilWord
}

// fastNum handles the dominant numeric SQ cases — both operands fixnums,
// or both flonums — without boxing through host sexp values (the same
// boxing elimination the lowered engine performs for open-coded
// arithmetic; see DESIGN.md §10). Results are bit-identical to the
// generic path: fixnum overflow, inexact fixnum division, and any other
// case whose result would not be a fixnum/flonum reports ok=false and
// falls back to numValue/genericNum. Flonum comparisons replicate
// sexp.Compare's three-way float semantics (NaN compares "equal") rather
// than raw ==.
func (m *Machine) fastNum(idx int, a, b Word) (Word, bool) {
	if a.Tag == TagFixnum && b.Tag == TagFixnum {
		x, y := a.Int(), b.Int()
		switch idx {
		case SQAdd:
			s := x + y
			if (x > 0 && y > 0 && s < 0) || (x < 0 && y < 0 && s >= 0) {
				return Word{}, false // promotes to bignum
			}
			return FixnumWord(s), true
		case SQSub:
			d := x - y
			if (x >= 0 && y < 0 && d < 0) || (x < 0 && y > 0 && d >= 0) {
				return Word{}, false
			}
			return FixnumWord(d), true
		case SQMul:
			if x == 0 || y == 0 {
				return FixnumWord(0), true
			}
			p := x * y
			if p/y != x || (x == -1 && y == math.MinInt64) || (y == -1 && x == math.MinInt64) {
				return Word{}, false
			}
			return FixnumWord(p), true
		case SQDiv:
			if y == 0 || x%y != 0 {
				return Word{}, false // error or exact ratio
			}
			return FixnumWord(x / y), true
		case SQNumEq:
			return boolWord(x == y), true
		case SQLt:
			return boolWord(x < y), true
		case SQGt:
			return boolWord(x > y), true
		case SQLe:
			return boolWord(x <= y), true
		case SQGe:
			return boolWord(x >= y), true
		}
		return Word{}, false
	}
	// Float path: both flonums, or flonum/fixnum mixed — sexp's binop
	// contaminates to float when either operand is a Flonum, and
	// sexp.Compare uses three-way float comparison, so converting the
	// fixnum side mirrors the generic result exactly.
	var x, y float64
	switch {
	case a.Tag == TagFlonum:
		xw, ok := m.loadFast(a.Bits)
		if !ok {
			return Word{}, false
		}
		x = xw.Float()
	case a.Tag == TagFixnum:
		x = float64(a.Int())
	default:
		return Word{}, false
	}
	switch {
	case b.Tag == TagFlonum:
		yw, ok := m.loadFast(b.Bits)
		if !ok {
			return Word{}, false
		}
		y = yw.Float()
	case b.Tag == TagFixnum:
		y = float64(b.Int())
	default:
		return Word{}, false
	}
	{
		switch idx {
		case SQAdd:
			return m.ConsFlonum(x + y), true
		case SQSub:
			return m.ConsFlonum(x - y), true
		case SQMul:
			return m.ConsFlonum(x * y), true
		case SQDiv:
			// IEEE semantics, like sexp.Div on flonums: /0 gives Inf/NaN.
			return m.ConsFlonum(x / y), true
		case SQNumEq:
			return boolWord(!(x < y) && !(x > y)), true
		case SQLt:
			return boolWord(x < y), true
		case SQGt:
			return boolWord(x > y), true
		case SQLe:
			return boolWord(!(x > y)), true
		case SQGe:
			return boolWord(!(x < y)), true
		}
	}
	return Word{}, false
}

// sqArith is a numeric SQ routine on A and B, result in A: fastNum's
// word-level path, else the generic host arithmetic.
func (m *Machine) sqArith(idx int) error {
	a, b := m.regs[RegA], m.regs[RegB]
	if out, ok := m.fastNum(idx, a, b); ok {
		m.regs[RegA] = out
		return nil
	}
	return m.genericArith(idx, a, b)
}

// genericArith is sqArith's host-number path.
func (m *Machine) genericArith(idx int, a, b Word) error {
	x, err := m.numValue(a)
	if err != nil {
		return err
	}
	y, err := m.numValue(b)
	if err != nil {
		return err
	}
	out, err := m.genericNum(idx, x, y)
	if err != nil {
		return &RuntimeError{PC: m.pc, Msg: err.Error()}
	}
	m.regs[RegA] = out
	return nil
}

// numValue converts a pointer-world word to a host number for the
// generic arithmetic routines.
func (m *Machine) numValue(w Word) (sexp.Value, error) {
	switch w.Tag {
	case TagFixnum:
		return sexp.Fixnum(w.Int()), nil
	case TagFlonum:
		v, err := m.load(w.Bits)
		if err != nil {
			return nil, err
		}
		return sexp.Flonum(v.Float()), nil
	case TagBoxed:
		b := m.Boxes[w.Bits]
		if sexp.IsNumber(b) {
			return b, nil
		}
	}
	return nil, &RuntimeError{PC: m.pc, Msg: "not a number: " + w.String()}
}

func (m *Machine) genericNum(idx int, x, y sexp.Value) (Word, error) {
	switch idx {
	case SQAdd:
		v, err := sexp.Add(x, y)
		if err != nil {
			return Word{}, err
		}
		return m.FromValue(v), nil
	case SQSub:
		v, err := sexp.Sub(x, y)
		if err != nil {
			return Word{}, err
		}
		return m.FromValue(v), nil
	case SQMul:
		v, err := sexp.Mul(x, y)
		if err != nil {
			return Word{}, err
		}
		return m.FromValue(v), nil
	case SQDiv:
		v, err := sexp.Div(x, y)
		if err != nil {
			return Word{}, err
		}
		return m.FromValue(v), nil
	}
	c, err := sexp.Compare(x, y)
	if err != nil {
		return Word{}, err
	}
	switch idx {
	case SQNumEq:
		return boolWord(c == 0), nil
	case SQLt:
		return boolWord(c < 0), nil
	case SQGt:
		return boolWord(c > 0), nil
	case SQLe:
		return boolWord(c <= 0), nil
	case SQGe:
		return boolWord(c >= 0), nil
	}
	return Word{}, fmt.Errorf("bad numeric SQ %d", idx)
}

// specFind performs the deep-binding search: a linear scan of the
// binding stack, newest first (§4.4). The returned handle is a binding
// stack index, or -(sym+1) for the global value cell.
func (m *Machine) specFind(sym int) int64 {
	m.Stats.SpecialLookups++
	for i := len(m.bindStack) - 1; i >= 0; i-- {
		m.Stats.SpecialSearchSteps++
		m.Stats.Cycles += 2 // two cycles per probe
		if m.bindStack[i].sym == sym {
			return int64(i)
		}
	}
	return -int64(sym) - 1
}

func (m *Machine) specRead(handle int64) (Word, error) {
	if handle >= 0 {
		if int(handle) >= len(m.bindStack) {
			return Word{}, &RuntimeError{PC: m.pc, Msg: "stale special handle"}
		}
		return m.bindStack[handle].val, nil
	}
	sym := int(-handle - 1)
	if !m.Syms[sym].HasValue {
		return Word{}, &RuntimeError{PC: m.pc, Msg: "unbound variable " + m.Syms[sym].Name}
	}
	return m.Syms[sym].Value, nil
}

func (m *Machine) specWrite(handle int64, v Word) error {
	if handle >= 0 {
		if int(handle) >= len(m.bindStack) {
			return &RuntimeError{PC: m.pc, Msg: "stale special handle"}
		}
		m.bindStack[handle].val = v
		return nil
	}
	sym := int(-handle - 1)
	m.Syms[sym].Value = v
	m.Syms[sym].HasValue = true
	return nil
}

// throw unwinds to the innermost catch frame with an eql tag.
func (m *Machine) throw(tag, val Word) (bool, error) {
	for i := len(m.catchStack) - 1; i >= 0; i-- {
		f := m.catchStack[i]
		if m.eqlWords(f.tag, tag) {
			m.catchStack = m.catchStack[:i]
			m.regs[RegSP] = f.sp
			m.regs[RegFP] = f.fp
			m.regs[RegEP] = f.ep
			m.bindStack = m.bindStack[:f.bindDepth]
			m.regs[RegA] = val
			m.pc = f.handler
			if p := m.prof; p != nil {
				p.truncate(m, f.fnDepth)
			}
			return true, nil
		}
	}
	tv, _ := m.ToValue(tag)
	return false, &RuntimeError{PC: m.pc, Msg: "uncaught throw to " + sexp.Print(tv)}
}

// restify rebuilds the just-entered frame of a &rest function: arguments
// beyond the first k are collected into a list, giving the normalized
// layout [arg0..argk-1, restlist] with nargs = k+1. Called at the top of
// the prologue, when SP == FP.
func (m *Machine) restify(k int) error {
	fp := m.regs[RegFP].Bits
	nw, err := m.load(fp - 4)
	if err != nil {
		return err
	}
	n := int(nw.Int())
	if n < k {
		return &RuntimeError{PC: m.pc, Msg: "wrong number of arguments"}
	}
	base := fp - 4 - uint64(n)
	// Collect args k..n-1 into a list (backwards for order). The args
	// themselves live below SP and are marked; the growing chain exists
	// only in this local, so keep it in a temp-root slot across the
	// allocations.
	rest := NilWord
	depth := m.protect(NilWord)
	wSlot := m.protect(NilWord)
	for i := n - 1; i >= k; i-- {
		w, err := m.load(base + uint64(i))
		if err != nil {
			m.release(depth)
			return err
		}
		m.tempRoots[depth] = rest
		w = m.heapWord(w)
		m.tempRoots[wSlot] = w
		rest = m.Cons(w, rest)
	}
	m.release(depth)
	saved := make([]Word, 4)
	for i := 0; i < 4; i++ {
		w, err := m.load(fp - 4 + uint64(i))
		if err != nil {
			return err
		}
		saved[i] = w
	}
	// Rebuild: [arg0..argk-1, rest, nargs=k+1, ret, fp, ep].
	if err := m.store(base+uint64(k), rest); err != nil {
		return err
	}
	saved[0] = RawInt(int64(k + 1))
	for i := 0; i < 4; i++ {
		if err := m.store(base+uint64(k)+1+uint64(i), saved[i]); err != nil {
			return err
		}
	}
	newFP := base + uint64(k) + 5
	m.regs[RegFP] = RawInt(int64(newFP))
	m.regs[RegSP] = m.regs[RegFP]
	m.regs[RegR3] = RawInt(int64(k + 1))
	return nil
}

// BindingDepth reports the current depth of the deep-binding stack.
func (m *Machine) BindingDepth() int { return len(m.bindStack) }
