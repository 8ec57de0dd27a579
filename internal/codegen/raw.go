package codegen

import (
	"repro/internal/prim"
	"repro/internal/s1"
	"repro/internal/sexp"
	"repro/internal/tn"
	"repro/internal/tree"
)

// noWantReg means the caller has no preference for a subscript register.
const noWantReg uint8 = 0

func fix0() sexp.Value { return sexp.Fixnum(0) }
func fix1() sexp.Value { return sexp.Fixnum(1) }

// emitRawBinary compiles a type-specific two-operand arithmetic call —
// the heart of the §6.1 code-quality story. The left operand may be a
// deferred indexed operand whose subscript lives in RTA, the right one in
// RTB; the destination TN prefers an RT register, so the common result is
// the paper's zero-MOV pattern:
//
//	MULT RTA,I,#A1 / ADD RTA,J / FMULT RTA, A(RTA), B(RTB) / …
func (f *fc) emitRawBinary(op s1.Op, a1, a2 tree.Node, argRep tree.Rep) (absOperand, error) {
	// The left operand may stay deferred only if emitting the right side
	// cannot disturb it: the right side must be a pure raw expression
	// (no stores, no full calls, no observable effects).
	materializeLeft := !pureRawTree(a2, argRep)
	left, err := f.rawOperand(a1, argRep, s1.RegRTA, materializeLeft)
	if err != nil {
		return noOperand, err
	}
	right, err := f.rawOperand(a2, argRep, s1.RegRTB, false)
	if err != nil {
		return noOperand, err
	}
	// Chains accumulate: when the left value is a dead temporary from a
	// nested operation, use the two-operand form (acc := acc op src) —
	// the paper's FMULT RTA,… / FADD RTA,C(RTB) sequence. The 2½-address
	// rule does not restrict two-operand forms.
	if left.tn != nil && isRawTemp(a1) {
		f.emit(op, left, right, noOperand, 0, "")
		return left, nil
	}
	res := f.newTN("arith")
	res.PreferRT = true
	f.emit(op, tnOp(res), left, right, 0, "")
	return tnOp(res), nil
}

// isRawTemp reports nodes whose emitted value is a single-use temporary
// (safe to clobber as an accumulator).
func isRawTemp(n tree.Node) bool {
	_, ok := n.(*tree.Call)
	return ok
}

// pureRawTree reports expressions whose emission produces only raw
// arithmetic and memory reads (no calls, no stores, no coercion traps
// taken on the happy path aside, no deferred-state clobbering beyond its
// own RT register).
func pureRawTree(n tree.Node, argRep tree.Rep) bool {
	switch x := n.(type) {
	case *tree.Literal:
		return true
	case *tree.VarRef:
		return true
	case *tree.Call:
		fr, ok := x.Fn.(*tree.FunRef)
		if !ok {
			return false
		}
		p := prim.Lookup(fr.Name)
		if p == nil {
			return false
		}
		if prim.BinaryFloatOp(fr.Name.Name) != "" || prim.BinaryFixOp(fr.Name.Name) != "" {
			for _, a := range x.Args {
				if !simpleRawLeaf(a) {
					return false
				}
			}
			return true
		}
		// A static aref$f with simple subscripts emits only subscript
		// arithmetic on its own RT register.
		if fr.Name.Name == "aref$f" && len(x.Args) >= 2 {
			if lit, ok := x.Args[0].(*tree.Literal); ok {
				if _, ok := lit.Value.(*sexp.FloatArray); ok {
					for _, s := range x.Args[1:] {
						if !simpleRawLeaf(s) {
							return false
						}
					}
					return true
				}
			}
		}
		return false
	}
	return false
}

// simpleRawLeaf: literals and variable references.
func simpleRawLeaf(n tree.Node) bool {
	switch n.(type) {
	case *tree.Literal, *tree.VarRef:
		return true
	}
	return false
}

// rawOperand produces an operand for one side of a raw binary operation.
// idxReg is the RT register this side may pin for a deferred subscript.
func (f *fc) rawOperand(n tree.Node, rep tree.Rep, idxReg uint8, materialize bool) (absOperand, error) {
	switch x := n.(type) {
	case *tree.Literal:
		if x.Info().IsRep == rep {
			return f.literalOperand(x, rep)
		}
	case *tree.VarRef:
		if !x.Var.Special && !x.Var.Closed && f.vr.Rep(x.Var) == rep {
			return f.varRead(x.Var)
		}
	case *tree.Call:
		if fr, ok := x.Fn.(*tree.FunRef); ok && fr.Name.Name == "aref$f" &&
			rep == tree.RepSWFLO && !materialize {
			if op, ok, err := f.tryStaticAref(x, idxReg); err != nil {
				return noOperand, err
			} else if ok {
				return op, nil
			}
		}
	}
	v, err := f.emitCoercedTo(n, rep)
	if err != nil {
		return noOperand, err
	}
	return f.stabilize(v)
}

// constArrayWord interns a compile-time-constant float array in the heap
// once.
func (f *fc) constArrayWord(fa *sexp.FloatArray) s1.Word {
	if f.c.constArrays == nil {
		f.c.constArrays = map[*sexp.FloatArray]s1.Word{}
	}
	if w, ok := f.c.constArrays[fa]; ok {
		return w
	}
	w := f.c.M.Pin(f.c.M.FromValue(fa))
	f.c.constArrays[fa] = w
	return w
}

// tryStaticAref emits the paper's static-array subscript pattern for
// (aref$f <constant-array> subs…): the subscript accumulates in the
// pinned RT register and the element is fetched through one indexed
// operand with an absolute base — no MOV instructions at all when the
// subscripts are variables or raw expressions.
func (f *fc) tryStaticAref(call *tree.Call, idxReg uint8) (absOperand, bool, error) {
	lit, ok := call.Args[0].(*tree.Literal)
	if !ok || idxReg == noWantReg {
		return noOperand, false, nil
	}
	fa, ok := lit.Value.(*sexp.FloatArray)
	if !ok {
		return noOperand, false, nil
	}
	subs := call.Args[1:]
	if len(subs) != len(fa.Dims) || len(subs) == 0 {
		return noOperand, false, nil
	}
	for _, s := range subs {
		if !pureRawTree(s, tree.RepSWFIX) {
			return noOperand, false, nil
		}
	}
	w := f.constArrayWord(fa)
	dataBase := int64(w.Bits) + 1 + int64(len(fa.Dims))

	idx := f.newTN("subscript")
	idx.Fixed = idxReg
	if err := f.emitSubscript(idx, idxReg, fa.Dims, subs); err != nil {
		return noOperand, false, err
	}
	idx.Touch(f.alloc.Now() + 1) // alive through the consuming instruction
	return conc(s1.Idx(s1.NoReg, dataBase, idxReg, 0)), true, nil
}

// emitSubscript computes the row-major index of subs into the pinned
// register: acc = s1; acc = acc*d_k + s_k.
func (f *fc) emitSubscript(idx *tn.TN, idxReg uint8, dims []int, subs []tree.Node) error {
	first, err := f.simpleFixOperand(subs[0])
	if err != nil {
		return err
	}
	if len(subs) == 1 {
		f.emit(s1.OpMOV, tnOp(idx), first, noOperand, 0, "subscript")
		return nil
	}
	// First step fuses the multiply: MULT RT, s1, #d2.
	f.emit(s1.OpMULT, tnOp(idx), first, conc(s1.ImmInt(int64(dims[1]))), 0,
		"prepare subscript")
	for k := 1; k < len(subs); k++ {
		sk, err := f.simpleFixOperand(subs[k])
		if err != nil {
			return err
		}
		f.emit(s1.OpADD, tnOp(idx), sk, noOperand, 0, "")
		if k+1 < len(subs) {
			f.emit(s1.OpMULT, tnOp(idx), conc(s1.ImmInt(int64(dims[k+1]))), noOperand, 0, "")
		}
	}
	return nil
}

// simpleFixOperand yields a raw-integer operand for a simple subscript.
func (f *fc) simpleFixOperand(n tree.Node) (absOperand, error) {
	switch x := n.(type) {
	case *tree.Literal:
		if fx, ok := x.Value.(sexp.Fixnum); ok {
			return conc(s1.ImmInt(int64(fx))), nil
		}
	case *tree.VarRef:
		if !x.Var.Special && !x.Var.Closed && f.vr.Rep(x.Var) == tree.RepSWFIX {
			return f.varRead(x.Var)
		}
	}
	v, err := f.emitCoercedTo(n, tree.RepSWFIX)
	if err != nil {
		return noOperand, err
	}
	return f.stabilize(v)
}

// emitArefF handles aref$f in value position.
func (f *fc) emitArefF(call *tree.Call) (absOperand, error) {
	if op, ok, err := f.tryStaticAref(call, s1.RegRTB); err != nil {
		return noOperand, err
	} else if ok {
		// Materialize: the deferred operand is only valid for one
		// consuming instruction, and here we are the consumer.
		res := f.newTN("aref")
		f.emit(s1.OpMOV, tnOp(res), op, noOperand, 0, "fetch element")
		return tnOp(res), nil
	}
	addr, err := f.emitDynamicElementAddr(call.Args[0], call.Args[1:])
	if err != nil {
		return noOperand, err
	}
	res := f.newTN("aref")
	f.emit(s1.OpMOV, tnOp(res), addr, noOperand, 0, "fetch element")
	return tnOp(res), nil
}

// emitAsetF compiles (aset$f array value subs…).
func (f *fc) emitAsetF(call *tree.Call) (absOperand, error) {
	if len(call.Args) < 3 {
		return noOperand, cgerrf("aset$f needs array, value and subscripts")
	}
	arr := call.Args[0]
	valNode := call.Args[1]
	subs := call.Args[2:]

	// Static path: compute the value first (it may use both RT
	// registers), then the subscript into RTA, then one store.
	if lit, ok := arr.(*tree.Literal); ok {
		if fa, ok := lit.Value.(*sexp.FloatArray); ok && len(subs) == len(fa.Dims) {
			staticOK := true
			for _, s := range subs {
				if !pureRawTree(s, tree.RepSWFIX) {
					staticOK = false
				}
			}
			if staticOK {
				val, err := f.emitCoercedTo(valNode, tree.RepSWFLO)
				if err != nil {
					return noOperand, err
				}
				if val, err = f.stabilize(val); err != nil {
					return noOperand, err
				}
				w := f.constArrayWord(fa)
				dataBase := int64(w.Bits) + 1 + int64(len(fa.Dims))
				idx := f.newTN("subscript")
				idx.Fixed = s1.RegRTB
				if err := f.emitSubscript(idx, s1.RegRTB, fa.Dims, subs); err != nil {
					return noOperand, err
				}
				idx.Touch(f.alloc.Now() + 1)
				f.emit(s1.OpMOV, conc(s1.Idx(s1.NoReg, dataBase, s1.RegRTB, 0)),
					val, noOperand, 0, "store element")
				return val, nil
			}
		}
	}
	val, err := f.emitCoercedTo(valNode, tree.RepSWFLO)
	if err != nil {
		return noOperand, err
	}
	if val, err = f.stabilize(val); err != nil {
		return noOperand, err
	}
	addr, err := f.emitDynamicElementAddr(arr, subs)
	if err != nil {
		return noOperand, err
	}
	f.emit(s1.OpMOV, addr, val, noOperand, 0, "store element")
	return val, nil
}

// emitDynamicElementAddr computes a float-array element operand for an
// array known only at run time, using the reserved scratch registers:
// R2 holds the array base, R3 the accumulated subscript. The returned
// operand must be consumed by the next instruction.
func (f *fc) emitDynamicElementAddr(arrNode tree.Node, subs []tree.Node) (absOperand, error) {
	arrv, err := f.emitCoercedTo(arrNode, tree.RepPOINTER)
	if err != nil {
		return noOperand, err
	}
	if arrv, err = f.stabilize(arrv); err != nil {
		return noOperand, err
	}
	// Subscripts first (they may themselves use R2/R3 via coercions).
	subOps := make([]absOperand, len(subs))
	for i, s := range subs {
		v, err := f.emitCoercedTo(s, tree.RepSWFIX)
		if err != nil {
			return noOperand, err
		}
		if subOps[i], err = f.stabilize(v); err != nil {
			return noOperand, err
		}
	}
	// Type check.
	okL := f.label("farr")
	f.emit(s1.OpJTAG, arrv, conc(s1.Lbl(okL)), noOperand, int64(s1.TagFArray),
		"float-array check")
	f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), arrv, noOperand, 0, "")
	f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, s1.SQWrongType, "")
	f.emitLabel(okL)
	f.emit(s1.OpMOV, conc(s1.R(s1.RegR2)), arrv, noOperand, 0, "array base")
	f.emit(s1.OpMOV, conc(s1.R(s1.RegR3)), subOps[0], noOperand, 0, "subscript")
	for k := 1; k < len(subs); k++ {
		// acc = acc*dims[k] + sub[k]; dims live in the header at base+k.
		f.emit(s1.OpMULT, conc(s1.R(s1.RegR3)), conc(s1.Mem(s1.RegR2, int64(1+k))),
			noOperand, 0, "scale by dimension")
		f.emit(s1.OpADD, conc(s1.R(s1.RegR3)), subOps[k], noOperand, 0, "")
	}
	return conc(s1.Idx(s1.RegR2, int64(1+len(subs)), s1.RegR3, 0)), nil
}
