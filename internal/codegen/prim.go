package codegen

import (
	"repro/internal/prim"
	"repro/internal/s1"
	"repro/internal/tree"
)

// sq2 maps generic two-argument primitives to SQ routines.
var sq2 = map[string]int64{
	"cons": s1.SQCons, "rplaca": s1.SQRplaca, "rplacd": s1.SQRplacd,
	"eql": s1.SQEql, "equal": s1.SQEqual,
	"=": s1.SQNumEq, "<": s1.SQLt, ">": s1.SQGt, "<=": s1.SQLe, ">=": s1.SQGe,
}

// sqFold maps n-ary generic arithmetic to its pairwise SQ routine.
var sqFold = map[string]int64{
	"+": s1.SQAdd, "-": s1.SQSub, "*": s1.SQMul, "/": s1.SQDiv,
}

// unaryFloatOp maps type-specific unary float primitives to opcodes.
// sin$f/cos$f take radians and need a compile-time cycles conversion; the
// optimizer normally rewrites them to sinc$f first.
var unaryFloatOp = map[string]s1.Op{
	"neg$f": s1.OpFNEG, "abs$f": s1.OpFABS, "sqrt$f": s1.OpFSQRT,
	"sinc$f": s1.OpFSIN, "cosc$f": s1.OpFCOS,
	"atan$f": s1.OpFATAN, "exp$f": s1.OpFEXP, "log$f": s1.OpFLOG,
}

// emitPrimCall compiles a call to a known primitive in value position,
// delivering the result in the node's annotated ISREP.
func (f *fc) emitPrimCall(name string, x *tree.Call) (absOperand, error) {
	v, produced, err := f.primCallInner(name, x)
	if err != nil {
		return noOperand, err
	}
	return f.coerce(x, v, produced, effectiveRep(x.Info().IsRep))
}

// primCallInner emits the call and reports the representation it actually
// delivered.
func (f *fc) primCallInner(name string, x *tree.Call) (absOperand, tree.Rep, error) {
	p := prim.LookupString(name)

	// Type-specific binary arithmetic: the RT-register world.
	if mop := prim.BinaryFloatOp(name); mop != "" && len(x.Args) == 2 {
		v, err := f.emitRawBinary(floatOpcode(mop), x.Args[0], x.Args[1], tree.RepSWFLO)
		return v, tree.RepSWFLO, err
	}
	if mop := prim.BinaryFixOp(name); mop != "" && len(x.Args) == 2 {
		v, err := f.emitRawBinary(fixOpcode(mop), x.Args[0], x.Args[1], tree.RepSWFIX)
		return v, tree.RepSWFIX, err
	}
	if op, ok := unaryFloatOp[name]; ok && len(x.Args) == 1 {
		v, err := f.emitCoercedTo(x.Args[0], tree.RepSWFLO)
		if err != nil {
			return noOperand, 0, err
		}
		res := f.newTN(name)
		res.PreferRT = true
		f.emit(op, tnOp(res), v, noOperand, 0, name)
		return tnOp(res), tree.RepSWFLO, err
	}
	switch name {
	case "sin$f", "cos$f":
		// Radians: scale to cycles at run time, then the hardware
		// instruction. (With the optimizer on, this path is never
		// reached: META-SIN-TO-SINC folds the scaling constant.)
		v, err := f.emitCoercedTo(x.Args[0], tree.RepSWFLO)
		if err != nil {
			return noOperand, 0, err
		}
		scaled := f.newTN("cycles")
		scaled.PreferRT = true
		f.emit(s1.OpFMULT, tnOp(scaled), v,
			conc(s1.Imm(s1.RawFloat(0.15915494309189535))), 0, "radians to cycles")
		op := s1.OpFSIN
		if name == "cos$f" {
			op = s1.OpFCOS
		}
		res := f.newTN(name)
		res.PreferRT = true
		f.emit(op, tnOp(res), tnOp(scaled), noOperand, 0, name)
		return tnOp(res), tree.RepSWFLO, nil

	case "1+&", "1-&":
		v, err := f.emitCoercedTo(x.Args[0], tree.RepSWFIX)
		if err != nil {
			return noOperand, 0, err
		}
		res := f.newTN(name)
		res.PreferRT = true
		op := s1.OpADD
		if name == "1-&" {
			op = s1.OpSUB
		}
		f.emit(op, tnOp(res), v, conc(s1.ImmInt(1)), 0, name)
		return tnOp(res), tree.RepSWFIX, nil

	case "float":
		if len(x.Args) == 1 && x.Args[0].Info().IsRep == tree.RepSWFIX {
			v, err := f.emitCoercedTo(x.Args[0], tree.RepSWFIX)
			if err != nil {
				return noOperand, 0, err
			}
			res := f.newTN("float")
			f.emit(s1.OpFLT, tnOp(res), v, noOperand, 0, "float")
			return tnOp(res), tree.RepSWFLO, nil
		}

	case "fix":
		if len(x.Args) == 1 && x.Args[0].Info().IsRep == tree.RepSWFLO {
			v, err := f.emitCoercedTo(x.Args[0], tree.RepSWFLO)
			if err != nil {
				return noOperand, 0, err
			}
			res := f.newTN("fix")
			f.emit(s1.OpFIX, tnOp(res), v, noOperand, 0, "fix")
			return tnOp(res), tree.RepSWFIX, nil
		}

	case "aref$f":
		v, err := f.emitArefF(x)
		return v, tree.RepSWFLO, err

	case "aset$f":
		v, err := f.emitAsetF(x)
		return v, tree.RepSWFLO, err

	case "car", "cdr":
		sq := int64(s1.SQCar)
		if name == "cdr" {
			sq = s1.SQCdr
		}
		v, err := f.emitSQ1(x.Args[0], sq, name)
		return v, tree.RepPOINTER, err

	case "not", "null", "eq", "consp", "zerop":
		// Comparisons/predicates in value position: materialize T/NIL
		// through the test emitter.
		v, err := f.emitBoolValue(x)
		return v, tree.RepPOINTER, err

	case "throw":
		a, err := f.emitCoercedTo(x.Args[0], tree.RepPOINTER)
		if err != nil {
			return noOperand, 0, err
		}
		if a, err = f.stabilize(a); err != nil {
			return noOperand, 0, err
		}
		b, err := f.emitCoercedTo(x.Args[1], tree.RepPOINTER)
		if err != nil {
			return noOperand, 0, err
		}
		f.emit(s1.OpMOV, conc(s1.R(s1.RegB)), b, noOperand, 0, "")
		f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), a, noOperand, 0, "")
		f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, s1.SQThrow, "throw")
		return conc(s1.Imm(s1.NilWord)), tree.RepPOINTER, nil

	case "list":
		if err := f.pushArgs(x.Args); err != nil {
			return noOperand, 0, err
		}
		f.emit(s1.OpCALLSQ, noOperand, conc(s1.ImmInt(int64(len(x.Args)))),
			noOperand, s1.SQList, "list")
		v, err := f.fromA("list")
		return v, tree.RepPOINTER, err

	case "list*":
		if len(x.Args) >= 1 {
			v, err := f.emitListStar(x.Args)
			return v, tree.RepPOINTER, err
		}

	case "apply":
		if len(x.Args) >= 2 {
			fn, err := f.emitCoercedTo(x.Args[0], tree.RepPOINTER)
			if err != nil {
				return noOperand, 0, err
			}
			if fn, err = f.stabilize(fn); err != nil {
				return noOperand, 0, err
			}
			// (apply f a … lst) spreads (list* a … lst).
			lst, err := f.emitListStar(x.Args[1:])
			if err != nil {
				return noOperand, 0, err
			}
			f.emit(s1.OpMOV, conc(s1.R(s1.RegB)), lst, noOperand, 0, "")
			f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), fn, noOperand, 0, "")
			f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, s1.SQApplyList, "apply")
			res := f.newTN("apply")
			f.emit(s1.OpPOP, tnOp(res), noOperand, noOperand, 0, "")
			return tnOp(res), tree.RepPOINTER, nil
		}

	case "funcall":
		// (funcall f args…) with the head not lexically resolvable.
		if len(x.Args) >= 1 {
			fnv, err := f.emitCoercedTo(x.Args[0], tree.RepPOINTER)
			if err != nil {
				return noOperand, 0, err
			}
			v, err := f.emitFullCall(fnv, x.Args[1:], s1.OpCALL, "funcall")
			return v, tree.RepPOINTER, err
		}

	case "print", "prin1", "princ":
		v, err := f.emitSQ1(x.Args[0], s1.SQPrint, name)
		return v, tree.RepPOINTER, err

	case "error":
		a, err := f.emitCoercedTo(x.Args[0], tree.RepPOINTER)
		if err != nil {
			return noOperand, 0, err
		}
		f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), a, noOperand, 0, "")
		f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, s1.SQError, "error")
		return conc(s1.Imm(s1.NilWord)), tree.RepPOINTER, nil

	case "identity":
		v, err := f.emitCoercedTo(x.Args[0], tree.RepPOINTER)
		return v, tree.RepPOINTER, err
	}

	// Generic pairwise arithmetic.
	if sq, ok := sqFold[name]; ok && len(x.Args) >= 1 {
		v, err := f.emitGenericFold(name, sq, x.Args)
		return v, tree.RepPOINTER, err
	}
	// Generic binary SQ routines (possibly with certification for unsafe
	// stores).
	if sq, ok := sq2[name]; ok && len(x.Args) == 2 {
		certify := p != nil && !p.Safe && f.c.Opts.PdlNumbers
		v, err := f.emitSQ2(x.Args[0], x.Args[1], sq, name, certify)
		return v, tree.RepPOINTER, err
	}
	// Everything else goes through the fallback primitive gateway.
	v, err := f.emitSQPrim(name, x.Args)
	return v, tree.RepPOINTER, err
}

// emitListStar conses args but the last onto the last, right to left:
// (list* a … lst). A lone argument is the list itself. An element that
// may be a pdl number is certified before a cons holds it (§6.3).
func (f *fc) emitListStar(args []tree.Node) (absOperand, error) {
	elems := make([]absOperand, len(args)-1)
	for i, a := range args[:len(args)-1] {
		v, err := f.emitCoercedTo(a, tree.RepPOINTER)
		if err != nil {
			return noOperand, err
		}
		if f.c.Opts.PdlNumbers && maybeUnsafe(a) {
			f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), v, noOperand, 0, "")
			f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, s1.SQCertify,
				"certify pointer before consing it")
			v, err = f.fromA("certified")
		} else {
			v, err = f.stabilize(v)
		}
		if err != nil {
			return noOperand, err
		}
		elems[i] = v
	}
	acc, err := f.emitCoercedTo(args[len(args)-1], tree.RepPOINTER)
	if err != nil {
		return noOperand, err
	}
	for i := len(elems) - 1; i >= 0; i-- {
		f.emit(s1.OpMOV, conc(s1.R(s1.RegB)), acc, noOperand, 0, "")
		f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), elems[i], noOperand, 0, "")
		f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, s1.SQCons, "list*")
		if acc, err = f.fromA("list*"); err != nil {
			return noOperand, err
		}
	}
	return acc, nil
}

// fromA copies the SQ result register into a fresh TN.
func (f *fc) fromA(name string) (absOperand, error) {
	res := f.newTN(name)
	f.emit(s1.OpMOV, tnOp(res), conc(s1.R(s1.RegA)), noOperand, 0, "")
	return tnOp(res), nil
}

func (f *fc) emitSQ1(arg tree.Node, sq int64, name string) (absOperand, error) {
	a, err := f.emitCoercedTo(arg, tree.RepPOINTER)
	if err != nil {
		return noOperand, err
	}
	f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), a, noOperand, 0, "")
	f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, sq, name)
	return f.fromA(name)
}

func (f *fc) emitSQ2(a1, a2 tree.Node, sq int64, name string, certifySecond bool) (absOperand, error) {
	a, err := f.emitCoercedTo(a1, tree.RepPOINTER)
	if err != nil {
		return noOperand, err
	}
	if a, err = f.stabilize(a); err != nil {
		return noOperand, err
	}
	b, err := f.emitCoercedTo(a2, tree.RepPOINTER)
	if err != nil {
		return noOperand, err
	}
	if certifySecond && maybeUnsafe(a2) {
		// §6.3: before an unsafe operation (storing a pointer into a heap
		// object), the pointer must be certified.
		f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), b, noOperand, 0, "")
		f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, s1.SQCertify,
			"certify pointer before unsafe "+name)
		b, err = f.fromA("certified")
		if err != nil {
			return noOperand, err
		}
	}
	f.emit(s1.OpMOV, conc(s1.R(s1.RegB)), b, noOperand, 0, "")
	f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), a, noOperand, 0, "")
	f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, sq, name)
	return f.fromA(name)
}

func (f *fc) emitGenericFold(name string, sq int64, args []tree.Node) (absOperand, error) {
	if len(args) == 1 {
		switch name {
		case "-":
			return f.emitSQ2(tree.NewLiteral(fix0()), args[0], s1.SQSub, "negate", false)
		case "/":
			return f.emitSQ2(tree.NewLiteral(fix1()), args[0], s1.SQDiv, "invert", false)
		default:
			return f.emitCoercedTo(args[0], tree.RepPOINTER)
		}
	}
	acc, err := f.emitCoercedTo(args[0], tree.RepPOINTER)
	if err != nil {
		return noOperand, err
	}
	if acc, err = f.stabilize(acc); err != nil {
		return noOperand, err
	}
	for _, a := range args[1:] {
		b, err := f.emitCoercedTo(a, tree.RepPOINTER)
		if err != nil {
			return noOperand, err
		}
		f.emit(s1.OpMOV, conc(s1.R(s1.RegB)), b, noOperand, 0, "")
		f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), acc, noOperand, 0, "")
		f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, sq, name)
		if acc, err = f.fromA(name); err != nil {
			return noOperand, err
		}
	}
	return acc, nil
}

// emitSQPrim is the fallback: push converted arguments, call the
// primitive gateway with the symbol and count.
func (f *fc) emitSQPrim(name string, args []tree.Node) (absOperand, error) {
	if err := f.pushArgs(args); err != nil {
		return noOperand, err
	}
	sym := f.c.M.InternSym(name)
	f.emit(s1.OpCALLSQ, noOperand, conc(s1.ImmInt(int64(sym))),
		conc(s1.ImmInt(int64(len(args)))), s1.SQPrim, name)
	return f.fromA(name)
}

// emitBoolValue materializes a T/NIL value through the jump emitter.
func (f *fc) emitBoolValue(x *tree.Call) (absOperand, error) {
	falseL := f.label("bfalse")
	joinL := f.label("bjoin")
	res := f.newTN("bool")
	if err := f.emitTest(x, falseL); err != nil {
		return noOperand, err
	}
	f.emit(s1.OpMOV, tnOp(res), conc(s1.Imm(s1.TWord)), noOperand, 0, "")
	f.emit(s1.OpJMP, conc(s1.Lbl(joinL)), noOperand, noOperand, 0, "")
	f.emitLabel(falseL)
	f.emit(s1.OpMOV, tnOp(res), conc(s1.Imm(s1.NilWord)), noOperand, 0, "")
	f.emitLabel(joinL)
	res.Touch(f.alloc.Now())
	return tnOp(res), nil
}

func floatOpcode(mop string) s1.Op {
	switch mop {
	case "FADD":
		return s1.OpFADD
	case "FSUB":
		return s1.OpFSUB
	case "FMULT":
		return s1.OpFMULT
	case "FDIV":
		return s1.OpFDIV
	case "FMAX":
		return s1.OpFMAX
	case "FMIN":
		return s1.OpFMIN
	}
	return s1.OpNOP
}

func fixOpcode(mop string) s1.Op {
	switch mop {
	case "ADD":
		return s1.OpADD
	case "SUB":
		return s1.OpSUB
	case "MULT":
		return s1.OpMULT
	case "DIV":
		return s1.OpDIV
	}
	return s1.OpNOP
}
