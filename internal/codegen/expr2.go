package codegen

import (
	"fmt"

	"repro/internal/prim"
	"repro/internal/s1"
	"repro/internal/sexp"
	"repro/internal/tree"
)

// emitNode evaluates n and returns an operand holding its value in n's
// ISREP.
func (f *fc) emitNode(n tree.Node) (absOperand, error) {
	f.maybeEmitSpecFinds(n)
	switch x := n.(type) {
	case *tree.Literal:
		return f.literalOperand(x, n.Info().IsRep)

	case *tree.VarRef:
		return f.varRead(x.Var)

	case *tree.FunRef:
		return f.funRefOperand(x)

	case *tree.Setq:
		want := n.Info().IsRep
		v, err := f.emitCoercedTo(x.Value, want)
		if err != nil {
			return noOperand, err
		}
		// Stabilize env/scratch operands before storing.
		v, err = f.stabilize(v)
		if err != nil {
			return noOperand, err
		}
		if err := f.varWrite(x.Var, v); err != nil {
			return noOperand, err
		}
		return v, nil

	case *tree.If:
		return f.emitIfValue(x)

	case *tree.Progn:
		if len(x.Forms) == 0 {
			return conc(s1.Imm(s1.NilWord)), nil
		}
		for _, form := range x.Forms[:len(x.Forms)-1] {
			if err := f.emitEffect(form); err != nil {
				return noOperand, err
			}
		}
		return f.emitNode(x.Forms[len(x.Forms)-1])

	case *tree.Call:
		return f.emitCall(x, false)

	case *tree.Lambda:
		return f.emitClosure(x)

	case *tree.ProgBody:
		return f.emitProgBody(x)

	case *tree.Go:
		return noOperand, cgerrf("go outside progbody emission")

	case *tree.Return:
		return noOperand, cgerrf("return outside progbody emission")

	case *tree.Catcher:
		return f.emitCatcher(x)

	case *tree.Caseq:
		return f.emitCaseq(x)
	}
	return noOperand, cgerrf("cannot emit %T", n)
}

// stabilize copies a volatile operand (register A/B/R2-based memory) into
// a TN so later emissions cannot clobber it.
func (f *fc) stabilize(v absOperand) (absOperand, error) {
	if v.tn != nil {
		return v, nil
	}
	switch v.op.Mode {
	case s1.MImm:
		return v, nil
	case s1.MReg:
		if v.op.Base != s1.RegA && v.op.Base != s1.RegB && v.op.Base != s1.RegR2 && v.op.Base != s1.RegR3 {
			return v, nil
		}
	case s1.MMem, s1.MIdx:
		if v.op.Base != s1.RegR2 && v.op.Base != s1.RegR3 {
			return v, nil
		}
	default:
		return v, nil
	}
	t := f.newTN("tmp")
	f.emit(s1.OpMOV, tnOp(t), v, noOperand, 0, "")
	return tnOp(t), nil
}

func (f *fc) funRefOperand(x *tree.FunRef) (absOperand, error) {
	// A function value: prefer the direct descriptor when compiled,
	// otherwise late-bind through the symbol's function cell. Primitives
	// get callable stub functions that route through the primitive
	// gateway.
	if idx := f.c.funcNamed(x.Name.Name); idx >= 0 {
		return conc(s1.Imm(s1.Ptr(s1.TagFunc, uint64(idx)))), nil
	}
	if prim.Lookup(x.Name) != nil {
		idx, err := f.c.primStub(x.Name.Name)
		if err != nil {
			return noOperand, err
		}
		return conc(s1.Imm(s1.Ptr(s1.TagFunc, uint64(idx)))), nil
	}
	sym := f.c.M.InternSym(x.Name.Name)
	return conc(s1.Imm(s1.Ptr(s1.TagSymbol, uint64(sym)))), nil
}

// emitIfValue compiles a conditional in value position.
func (f *fc) emitIfValue(x *tree.If) (absOperand, error) {
	elseL := f.label("else")
	joinL := f.label("join")
	res := f.newTN("if")
	target := x.Info().IsRep
	if err := f.emitTest(x.Test, elseL); err != nil {
		return noOperand, err
	}
	tv, err := f.emitCoercedTo(x.Then, target)
	if err != nil {
		return noOperand, err
	}
	f.emit(s1.OpMOV, tnOp(res), tv, noOperand, 0, "")
	f.emit(s1.OpJMP, conc(s1.Lbl(joinL)), noOperand, noOperand, 0, "")
	f.emitLabel(elseL)
	ev, err := f.emitCoercedTo(x.Else, target)
	if err != nil {
		return noOperand, err
	}
	f.emit(s1.OpMOV, tnOp(res), ev, noOperand, 0, "")
	f.emitLabel(joinL)
	res.Touch(f.alloc.Now())
	return tnOp(res), nil
}

// emitEffect evaluates n for side effects only.
func (f *fc) emitEffect(n tree.Node) error {
	f.maybeEmitSpecFinds(n)
	switch x := n.(type) {
	case *tree.Literal, *tree.FunRef:
		return nil
	case *tree.VarRef:
		if !x.Var.Special {
			return nil // pure
		}
	case *tree.Progn:
		for _, form := range x.Forms {
			if err := f.emitEffect(form); err != nil {
				return err
			}
		}
		return nil
	case *tree.If:
		elseL := f.label("else")
		joinL := f.label("join")
		if err := f.emitTest(x.Test, elseL); err != nil {
			return err
		}
		if err := f.emitEffect(x.Then); err != nil {
			return err
		}
		f.emit(s1.OpJMP, conc(s1.Lbl(joinL)), noOperand, noOperand, 0, "")
		f.emitLabel(elseL)
		if err := f.emitEffect(x.Else); err != nil {
			return err
		}
		f.emitLabel(joinL)
		return nil
	}
	_, err := f.emitNode(n)
	return err
}

// emitTest compiles n as a conditional: control falls through when the
// value is true and jumps to falseL otherwise. This is the JUMP
// representation of Table 3.
func (f *fc) emitTest(n tree.Node, falseL string) error {
	f.maybeEmitSpecFinds(n)
	switch x := n.(type) {
	case *tree.Literal:
		if !sexp.Truthy(x.Value) {
			f.emit(s1.OpJMP, conc(s1.Lbl(falseL)), noOperand, noOperand, 0, "")
		}
		return nil

	case *tree.Call:
		if fr, ok := x.Fn.(*tree.FunRef); ok {
			if done, err := f.emitPrimTest(fr.Name.Name, x, falseL); done || err != nil {
				return err
			}
		}

	case *tree.Progn:
		if len(x.Forms) > 0 {
			for _, form := range x.Forms[:len(x.Forms)-1] {
				if err := f.emitEffect(form); err != nil {
					return err
				}
			}
			return f.emitTest(x.Forms[len(x.Forms)-1], falseL)
		}
		f.emit(s1.OpJMP, conc(s1.Lbl(falseL)), noOperand, noOperand, 0, "")
		return nil

	case *tree.Lambda:
		// Function values are true; evaluate for the (allocation) effect.
		if _, err := f.emitNode(x); err != nil {
			return err
		}
		return nil
	}
	v, err := f.emitCoercedTo(n, tree.RepPOINTER)
	if err != nil {
		return err
	}
	f.emit(s1.OpJNIL, v, conc(s1.Lbl(falseL)), noOperand, 0, "")
	return nil
}

// emitPrimTest open-codes comparisons in test position; done=false means
// the caller should fall back to the generic truthiness test.
func (f *fc) emitPrimTest(name string, x *tree.Call, falseL string) (bool, error) {
	// Inverse jumps: fall through on true.
	type cmp struct {
		op  s1.Op // jump-if-false opcode
		rep tree.Rep
	}
	table := map[string]cmp{
		"=$f": {s1.OpFJNE, tree.RepSWFLO}, "<$f": {s1.OpFJGE, tree.RepSWFLO},
		">$f": {s1.OpFJLE, tree.RepSWFLO}, "<=$f": {s1.OpFJGT, tree.RepSWFLO},
		">=$f": {s1.OpFJLT, tree.RepSWFLO},
		"=&":   {s1.OpJNE, tree.RepSWFIX}, "<&": {s1.OpJGE, tree.RepSWFIX},
		">&": {s1.OpJLE, tree.RepSWFIX}, "<=&": {s1.OpJGT, tree.RepSWFIX},
		">=&": {s1.OpJLT, tree.RepSWFIX},
	}
	if c, ok := table[name]; ok && len(x.Args) == 2 {
		a, err := f.emitCoercedTo(x.Args[0], c.rep)
		if err != nil {
			return true, err
		}
		a, err = f.stabilize(a)
		if err != nil {
			return true, err
		}
		b, err := f.emitCoercedTo(x.Args[1], c.rep)
		if err != nil {
			return true, err
		}
		f.emit(c.op, a, b, conc(s1.Lbl(falseL)), 0, name)
		return true, nil
	}
	switch name {
	case "not", "null":
		if len(x.Args) != 1 {
			break
		}
		v, err := f.emitCoercedTo(x.Args[0], tree.RepPOINTER)
		if err != nil {
			return true, err
		}
		f.emit(s1.OpJNNIL, v, conc(s1.Lbl(falseL)), noOperand, 0, "(not x)")
		return true, nil
	case "eq":
		if len(x.Args) != 2 {
			break
		}
		a, err := f.emitCoercedTo(x.Args[0], tree.RepPOINTER)
		if err != nil {
			return true, err
		}
		a, err = f.stabilize(a)
		if err != nil {
			return true, err
		}
		b, err := f.emitCoercedTo(x.Args[1], tree.RepPOINTER)
		if err != nil {
			return true, err
		}
		f.emit(s1.OpJNEW, a, b, conc(s1.Lbl(falseL)), 0, "eq")
		return true, nil
	case "consp":
		if len(x.Args) != 1 {
			break
		}
		v, err := f.emitCoercedTo(x.Args[0], tree.RepPOINTER)
		if err != nil {
			return true, err
		}
		f.emit(s1.OpJNTAG, v, conc(s1.Lbl(falseL)), noOperand,
			int64(s1.TagCons), "consp")
		return true, nil
	case "zerop", "=", "<", ">", "<=", ">=":
		if len(x.Args) > 2 || len(x.Args) == 0 {
			break
		}
		sq := map[string]int64{"zerop": s1.SQNumEq, "=": s1.SQNumEq,
			"<": s1.SQLt, ">": s1.SQGt, "<=": s1.SQLe, ">=": s1.SQGe}[name]
		a, err := f.emitCoercedTo(x.Args[0], tree.RepPOINTER)
		if err != nil {
			return true, err
		}
		a, err = f.stabilize(a)
		if err != nil {
			return true, err
		}
		b := conc(s1.Imm(s1.FixnumWord(0)))
		if len(x.Args) == 2 {
			if b, err = f.emitCoercedTo(x.Args[1], tree.RepPOINTER); err != nil {
				return true, err
			}
			b, err = f.stabilize(b)
			if err != nil {
				return true, err
			}
		}
		f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), a, noOperand, 0, "")
		f.emit(s1.OpMOV, conc(s1.R(s1.RegB)), b, noOperand, 0, "")
		f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, sq, name)
		f.emit(s1.OpJNIL, conc(s1.R(s1.RegA)), conc(s1.Lbl(falseL)), noOperand, 0, "")
		return true, nil
	}
	return false, nil
}

// emitTail compiles n in tail position: the emitted code ends with RET,
// TCALL or a jump.
func (f *fc) emitTail(n tree.Node) error {
	f.maybeEmitSpecFinds(n)
	switch x := n.(type) {
	case *tree.If:
		elseL := f.label("else")
		if err := f.emitTest(x.Test, elseL); err != nil {
			return err
		}
		if err := f.emitTail(x.Then); err != nil {
			return err
		}
		f.emitLabel(elseL)
		return f.emitTail(x.Else)

	case *tree.Progn:
		if len(x.Forms) == 0 {
			return f.emitReturnValue(conc(s1.Imm(s1.NilWord)), false)
		}
		for _, form := range x.Forms[:len(x.Forms)-1] {
			if err := f.emitEffect(form); err != nil {
				return err
			}
		}
		return f.emitTail(x.Forms[len(x.Forms)-1])

	case *tree.Call:
		return f.emitCallTail(x)
	}
	v, err := f.emitCoercedTo(n, tree.RepPOINTER)
	if err != nil {
		return err
	}
	return f.emitReturnValue(v, maybeUnsafe(n))
}

// emitReturnValue moves v into A, certifying potentially unsafe pointers
// ("pointers obtained from … values returned by procedures … are
// guaranteed safe"), and jumps to the epilogue.
func (f *fc) emitReturnValue(v absOperand, unsafe bool) error {
	f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), v, noOperand, 0, "return value")
	if unsafe && f.c.Opts.PdlNumbers {
		// Only flonum pointers can be pdl numbers; the common case pays a
		// single tag-dispatch cycle.
		skip := f.label("safe")
		f.emit(s1.OpJNTAG, conc(s1.R(s1.RegA)), conc(s1.Lbl(skip)), noOperand,
			int64(s1.TagFlonum), "only flonums can be pdl numbers")
		f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, s1.SQCertify,
			"certify returned pointer")
		f.emitLabel(skip)
	}
	f.emit(s1.OpJMP, conc(s1.Lbl(f.retLabel)), noOperand, noOperand, 0, "")
	return nil
}

// maybeUnsafe reports whether a node's pointer value might point into the
// stack (a pdl number or a caller-frame argument).
func maybeUnsafe(n tree.Node) bool {
	switch x := n.(type) {
	case *tree.Literal, *tree.FunRef, *tree.Lambda:
		return false
	case *tree.VarRef:
		return true // parameters and let variables may hold unsafe pointers
	case *tree.Setq:
		return maybeUnsafe(x.Value)
	case *tree.If:
		return maybeUnsafe(x.Then) || maybeUnsafe(x.Else)
	case *tree.Progn:
		return len(x.Forms) > 0 && maybeUnsafe(x.Forms[len(x.Forms)-1])
	case *tree.Call:
		if lam, ok := x.Fn.(*tree.Lambda); ok && lam.Strategy == tree.StrategyOpen {
			return maybeUnsafe(lam.Body)
		}
		if fr, ok := x.Fn.(*tree.FunRef); ok {
			p := prim.Lookup(fr.Name)
			if p != nil {
				// A primitive producing a fresh number boxed at the
				// conversion point: unsafe exactly when pdl-allocated,
				// which WantsPdlSlot decides; conservatively report the
				// numeric producers and those returning their argument.
				return p.ResRep.Numeric() || prim.ReturnsArg(fr.Name.Name, len(x.Args))
			}
			return false // user-call results are certified by the callee
		}
		return false
	case *tree.Caseq:
		for _, cl := range x.Clauses {
			if maybeUnsafe(cl.Body) {
				return true
			}
		}
		return x.Default != nil && maybeUnsafe(x.Default)
	case *tree.ProgBody, *tree.Catcher:
		return true // conservative
	}
	return true
}

func (f *fc) emitCallTail(x *tree.Call) error {
	switch fn := x.Fn.(type) {
	case *tree.Lambda:
		if fn.Strategy == tree.StrategyOpen {
			unbind, err := f.emitOpenBindings(x, fn)
			if err != nil {
				return err
			}
			if unbind == 0 {
				return f.emitTail(fn.Body)
			}
			// Dynamic bindings must unwind before returning: compile the
			// body non-tail.
			v, err := f.emitCoercedTo(fn.Body, tree.RepPOINTER)
			if err != nil {
				return err
			}
			v, err = f.stabilize(v)
			if err != nil {
				return err
			}
			f.emit(s1.OpSPECUNBIND, noOperand, noOperand, noOperand,
				int64(unbind), "unbind let specials")
			f.dynSpecialsAdjust(-unbind)
			return f.emitReturnValue(v, maybeUnsafe(fn.Body))
		}

	case *tree.VarRef:
		if jb := f.jumpBlockFor(fn.Var); jb != nil {
			return f.emitJumpCall(x, fn.Var, jb)
		}

	case *tree.FunRef:
		if prim.Lookup(fn.Name) == nil && f.dynSpecials == 0 && f.catchDepth == 0 {
			// Tail call to a user function: "compiled as a simple
			// unconditional branch" — frame-reusing TCALL.
			if err := f.pushArgs(x.Args); err != nil {
				return err
			}
			op, err := f.funRefOperand(fn)
			if err != nil {
				return err
			}
			f.emit(s1.OpTCALL, op, noOperand, noOperand, int64(len(x.Args)),
				"tail call "+fn.Name.Name)
			return nil
		}
	}
	// Computed function in tail position.
	if _, okFR := x.Fn.(*tree.FunRef); !okFR {
		if _, okL := x.Fn.(*tree.Lambda); !okL && f.dynSpecials == 0 && f.catchDepth == 0 {
			fnv, err := f.emitCoercedTo(x.Fn, tree.RepPOINTER)
			if err != nil {
				return err
			}
			fnv, err = f.stabilize(fnv)
			if err != nil {
				return err
			}
			if err := f.pushArgs(x.Args); err != nil {
				return err
			}
			f.emit(s1.OpTCALL, fnv, noOperand, noOperand, int64(len(x.Args)),
				"tail call")
			return nil
		}
	}
	v, err := f.emitCall(x, false)
	if err != nil {
		return err
	}
	v, err = f.coerce(x, v, effectiveRep(x.Info().IsRep), tree.RepPOINTER)
	if err != nil {
		return err
	}
	return f.emitReturnValue(v, maybeUnsafe(x))
}

func (f *fc) pushArgs(args []tree.Node) error {
	ops := make([]absOperand, len(args))
	for i, a := range args {
		v, err := f.emitCoercedTo(a, tree.RepPOINTER)
		if err != nil {
			return err
		}
		if v, err = f.stabilize(v); err != nil {
			return err
		}
		ops[i] = v
	}
	for i, v := range ops {
		f.emit(s1.OpPUSH, v, noOperand, noOperand, 0,
			fmt.Sprintf("argument %d", i))
	}
	return nil
}

func (f *fc) dynSpecialsAdjust(d int) { f.dynSpecials += d }
