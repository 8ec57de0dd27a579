package codegen

import (
	"fmt"

	"repro/internal/prim"
	"repro/internal/s1"
	"repro/internal/sexp"
	"repro/internal/tree"
)

// emitOpenBindings evaluates a let's initializers and binds them; the
// returned count is the number of dynamic bindings made (to be unbound
// after the body).
func (f *fc) emitOpenBindings(call *tree.Call, lam *tree.Lambda) (int, error) {
	if len(call.Args) != len(lam.Required) {
		return 0, cgerrf("%s: open call arity mismatch", f.name)
	}
	type bound struct {
		v  *tree.Var
		op absOperand
	}
	var pending []bound
	specials := 0
	for i, v := range lam.Required {
		arg := call.Args[i]
		// Jump-strategy lambdas are not values: register their block.
		if argLam, ok := arg.(*tree.Lambda); ok && argLam.Strategy == tree.StrategyJump {
			f.registerJumpBlock(v, argLam)
			continue
		}
		want := f.vr.Rep(v)
		if v.Special {
			want = tree.RepPOINTER
		}
		val, err := f.emitCoercedTo(arg, want)
		if err != nil {
			return 0, err
		}
		if val, err = f.stabilize(val); err != nil {
			return 0, err
		}
		pending = append(pending, bound{v: v, op: val})
	}
	// Bind after all initializers (let is parallel).
	for _, b := range pending {
		if b.v.Special {
			sym := f.c.M.InternSym(b.v.Name.Name)
			f.emit(s1.OpSPECBIND, b.op, noOperand, noOperand, int64(sym),
				"bind special "+b.v.Name.Name)
			specials++
			f.dynSpecialsAdjust(1)
			continue
		}
		if err := f.varWrite(b.v, b.op); err != nil {
			return 0, err
		}
	}
	return specials, nil
}

// registerJumpBlock creates the label and parameter TNs for a
// jump-strategy lambda and queues its body for emission.
func (f *fc) registerJumpBlock(v *tree.Var, lam *tree.Lambda) {
	jb := &jumpBlock{label: f.label("jump_" + v.Name.Name)}
	for _, p := range lam.Required {
		t := f.newTN("jparam:" + p.Name.Name)
		t.WantFrame = true // reached from several sites; keep it simple
		jb.params = append(jb.params, t)
		f.varTN[p] = t
	}
	f.jumpBlocks[lam] = jb
	f.pending = append(f.pending, lam)
}

// jumpBlockFor finds the block for a variable bound to a jump lambda.
func (f *fc) jumpBlockFor(v *tree.Var) *jumpBlock {
	for lam, jb := range f.jumpBlocks {
		if lam.SelfVar == v {
			return jb
		}
	}
	return nil
}

// emitJumpCall compiles a call to a jump-strategy lambda: parameter
// moves plus an unconditional branch — "in effect such calls represent
// simple goto's".
func (f *fc) emitJumpCall(call *tree.Call, v *tree.Var, jb *jumpBlock) error {
	var vals []absOperand
	for _, a := range call.Args {
		val, err := f.emitCoercedTo(a, tree.RepPOINTER)
		if err != nil {
			return err
		}
		if val, err = f.stabilize(val); err != nil {
			return err
		}
		vals = append(vals, val)
	}
	if len(vals) != len(jb.params) {
		return cgerrf("%s: jump call arity mismatch for %s", f.name, v)
	}
	for i, val := range vals {
		f.emit(s1.OpMOV, tnOp(jb.params[i]), val, noOperand, 0, "jump parameter")
	}
	f.emit(s1.OpJMP, conc(s1.Lbl(jb.label)), noOperand, noOperand, 0,
		"parameter-passing goto "+v.Name.Name)
	if jb.startTick > 0 {
		// The block was already emitted: this is a backward jump.
		f.alloc.AddLoopRegion(jb.startTick, f.alloc.Now())
	}
	return nil
}

// emitClosure compiles an escaping lambda as a separate function and
// emits the closure construction.
func (f *fc) emitClosure(lam *tree.Lambda) (absOperand, error) {
	name := f.c.gensym(f.name + "$closure")
	idx, _, err := f.c.compileLambda(name, lam, f.closureParentCtx(), f.vr)
	if err != nil {
		return noOperand, err
	}
	env, err := f.currentEnvOperand()
	if err != nil {
		return noOperand, err
	}
	res := f.newTN("closure")
	f.emit(s1.OpCLOSE, tnOp(res), env, noOperand, int64(idx),
		"construct closure "+name)
	return tnOp(res), nil
}

// closureParentCtx is the frame chain inner closures capture: this frame
// if it has an environment, else our parent chain.
func (f *fc) closureParentCtx() *frameCtx {
	if f.hasEnv {
		return f.frame
	}
	return f.frame.parent
}

// currentEnvOperand is the environment a new closure should capture.
func (f *fc) currentEnvOperand() (absOperand, error) {
	if f.hasEnv {
		return tnOp(f.envTN), nil
	}
	return conc(s1.R(s1.RegEP)), nil
}

// emitProgBody compiles tagged statements with go/return.
func (f *fc) emitProgBody(pb *tree.ProgBody) (absOperand, error) {
	endL := f.label("pbend")
	res := f.newTN("pb")
	res.WantFrame = true // live across arbitrary control flow
	tagLabels := map[*sexp.Symbol]string{}
	for _, t := range pb.Tags {
		tagLabels[t.Name] = f.label("tag_" + t.Name.Name)
	}
	tagTicks := map[*sexp.Symbol]int{}
	old := f.pbCtxs
	f.pbCtxs = append(f.pbCtxs, pbCtx{pb: pb, end: endL, res: res,
		tags: tagLabels, tagTicks: tagTicks})
	defer func() { f.pbCtxs = old }()

	ti := 0
	for i := 0; i <= len(pb.Forms); i++ {
		for ti < len(pb.Tags) && pb.Tags[ti].Index == i {
			f.emitLabel(tagLabels[pb.Tags[ti].Name])
			tagTicks[pb.Tags[ti].Name] = f.alloc.Now()
			ti++
		}
		if i < len(pb.Forms) {
			if err := f.emitStatement(pb.Forms[i]); err != nil {
				return noOperand, err
			}
		}
	}
	f.emit(s1.OpMOV, tnOp(res), conc(s1.Imm(s1.NilWord)), noOperand, 0,
		"progbody falls off the end")
	f.emitLabel(endL)
	res.Touch(f.alloc.Now())
	return tnOp(res), nil
}

// emitStatement is emitEffect plus go/return handling.
func (f *fc) emitStatement(n tree.Node) error {
	switch x := n.(type) {
	case *tree.Go:
		ctx := f.findPBCtx(x.Target)
		if ctx == nil {
			return cgerrf("go to unknown progbody")
		}
		lbl, ok := ctx.tags[x.Tag]
		if !ok {
			return cgerrf("go to unknown tag %s", x.Tag.Name)
		}
		f.emit(s1.OpJMP, conc(s1.Lbl(lbl)), noOperand, noOperand, 0,
			"go "+x.Tag.Name)
		if start, seen := ctx.tagTicks[x.Tag]; seen {
			// Backward jump: everything in [tag, here] may re-execute.
			f.alloc.AddLoopRegion(start, f.alloc.Now())
		}
		return nil
	case *tree.Return:
		ctx := f.findPBCtx(x.Target)
		if ctx == nil {
			return cgerrf("return to unknown progbody")
		}
		v, err := f.emitCoercedTo(x.Value, tree.RepPOINTER)
		if err != nil {
			return err
		}
		f.emit(s1.OpMOV, tnOp(ctx.res), v, noOperand, 0, "return value")
		f.emit(s1.OpJMP, conc(s1.Lbl(ctx.end)), noOperand, noOperand, 0, "return")
		return nil
	case *tree.If:
		// Statements containing go/return in arms.
		elseL := f.label("else")
		joinL := f.label("join")
		if err := f.emitTest(x.Test, elseL); err != nil {
			return err
		}
		if err := f.emitStatement(x.Then); err != nil {
			return err
		}
		f.emit(s1.OpJMP, conc(s1.Lbl(joinL)), noOperand, noOperand, 0, "")
		f.emitLabel(elseL)
		if err := f.emitStatement(x.Else); err != nil {
			return err
		}
		f.emitLabel(joinL)
		return nil
	case *tree.Progn:
		for _, form := range x.Forms {
			if err := f.emitStatement(form); err != nil {
				return err
			}
		}
		return nil
	}
	return f.emitEffect(n)
}

func (f *fc) findPBCtx(pb *tree.ProgBody) *pbCtx {
	for i := len(f.pbCtxs) - 1; i >= 0; i-- {
		if f.pbCtxs[i].pb == pb {
			return &f.pbCtxs[i]
		}
	}
	return nil
}

// emitCatcher compiles catch: a catch frame, the body, and a handler
// join.
func (f *fc) emitCatcher(x *tree.Catcher) (absOperand, error) {
	handlerL := f.label("handler")
	joinL := f.label("catchjoin")
	res := f.newTN("catch")
	res.WantFrame = true
	tag, err := f.emitCoercedTo(x.Tag, tree.RepPOINTER)
	if err != nil {
		return noOperand, err
	}
	f.emit(s1.OpCATCH, tag, conc(s1.Lbl(handlerL)), noOperand, 0, "establish catch")
	f.catchDepth++
	v, err := f.emitCoercedTo(x.Body, tree.RepPOINTER)
	f.catchDepth--
	if err != nil {
		return noOperand, err
	}
	f.emit(s1.OpMOV, tnOp(res), v, noOperand, 0, "")
	f.emit(s1.OpENDCATCH, noOperand, noOperand, noOperand, 0, "")
	f.emit(s1.OpJMP, conc(s1.Lbl(joinL)), noOperand, noOperand, 0, "")
	f.emitLabel(handlerL)
	f.emit(s1.OpMOV, tnOp(res), conc(s1.R(s1.RegA)), noOperand, 0,
		"thrown value arrives in A")
	f.emitLabel(joinL)
	res.Touch(f.alloc.Now())
	return tnOp(res), nil
}

// emitCaseq dispatches on an eql key.
func (f *fc) emitCaseq(x *tree.Caseq) (absOperand, error) {
	key, err := f.emitCoercedTo(x.Key, tree.RepPOINTER)
	if err != nil {
		return noOperand, err
	}
	keyTN := f.newTN("key")
	f.emit(s1.OpMOV, tnOp(keyTN), key, noOperand, 0, "caseq key")
	res := f.newTN("caseq")
	res.WantFrame = true
	joinL := f.label("cqjoin")
	var clauseLabels []string
	for i, cl := range x.Clauses {
		lbl := f.label(fmt.Sprintf("cq%d", i))
		clauseLabels = append(clauseLabels, lbl)
		for _, k := range cl.Keys {
			if eqlImmediate(k) {
				f.emit(s1.OpJEQW, tnOp(keyTN), conc(s1.Imm(f.c.M.Pin(f.c.M.FromValue(k)))),
					conc(s1.Lbl(lbl)), 0, "caseq key "+sexp.Print(k))
			} else {
				f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), tnOp(keyTN), noOperand, 0, "")
				f.emit(s1.OpMOV, conc(s1.R(s1.RegB)), conc(s1.Imm(f.c.M.Pin(f.c.M.FromValue(k)))),
					noOperand, 0, "")
				f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, s1.SQEql, "")
				f.emit(s1.OpJNNIL, conc(s1.R(s1.RegA)), conc(s1.Lbl(lbl)), noOperand, 0, "")
			}
		}
	}
	// Default.
	if x.Default != nil {
		v, err := f.emitCoercedTo(x.Default, tree.RepPOINTER)
		if err != nil {
			return noOperand, err
		}
		f.emit(s1.OpMOV, tnOp(res), v, noOperand, 0, "")
	} else {
		f.emit(s1.OpMOV, tnOp(res), conc(s1.Imm(s1.NilWord)), noOperand, 0, "")
	}
	f.emit(s1.OpJMP, conc(s1.Lbl(joinL)), noOperand, noOperand, 0, "")
	for i, cl := range x.Clauses {
		f.emitLabel(clauseLabels[i])
		v, err := f.emitCoercedTo(cl.Body, tree.RepPOINTER)
		if err != nil {
			return noOperand, err
		}
		f.emit(s1.OpMOV, tnOp(res), v, noOperand, 0, "")
		f.emit(s1.OpJMP, conc(s1.Lbl(joinL)), noOperand, noOperand, 0, "")
	}
	f.emitLabel(joinL)
	res.Touch(f.alloc.Now())
	return tnOp(res), nil
}

// eqlImmediate reports keys comparable with a full-word JEQW.
func eqlImmediate(k sexp.Value) bool {
	switch k.(type) {
	case sexp.Fixnum, *sexp.Symbol, sexp.Character:
		return true
	}
	return false
}

// emitCall compiles a call node in value (non-tail) position.
func (f *fc) emitCall(x *tree.Call, _ bool) (absOperand, error) {
	switch fn := x.Fn.(type) {
	case *tree.Lambda:
		if fn.Strategy == tree.StrategyOpen {
			unbind, err := f.emitOpenBindings(x, fn)
			if err != nil {
				return noOperand, err
			}
			v, err := f.emitNode(fn.Body)
			if err != nil {
				return noOperand, err
			}
			if unbind > 0 {
				if v, err = f.stabilize(v); err != nil {
					return noOperand, err
				}
				f.emit(s1.OpSPECUNBIND, noOperand, noOperand, noOperand,
					int64(unbind), "unbind let specials")
				f.dynSpecialsAdjust(-unbind)
			}
			return v, nil
		}
		// Fast-linkage lambda called directly.
		cl, err := f.emitClosure(fn)
		if err != nil {
			return noOperand, err
		}
		return f.emitFullCall(cl, x.Args, s1.OpCALLF, "direct lambda call")

	case *tree.VarRef:
		if jb := f.jumpBlockFor(fn.Var); jb != nil {
			// A jump-lambda call in non-tail position would need a
			// continuation; binding annotation only assigns JUMP when all
			// calls are tail, so this is a compiler bug.
			return noOperand, cgerrf("jump lambda called in non-tail position")
		}
		fnv, err := f.varRead(fn.Var)
		if err != nil {
			return noOperand, err
		}
		return f.emitFullCall(fnv, x.Args, s1.OpCALL, "call through "+fn.Var.Name.Name)

	case *tree.FunRef:
		if prim.Lookup(fn.Name) != nil {
			return f.emitPrimCall(fn.Name.Name, x)
		}
		op, err := f.funRefOperand(fn)
		if err != nil {
			return noOperand, err
		}
		return f.emitFullCall(op, x.Args, s1.OpCALL, "call "+fn.Name.Name)
	}
	fnv, err := f.emitCoercedTo(x.Fn, tree.RepPOINTER)
	if err != nil {
		return noOperand, err
	}
	if fnv, err = f.stabilize(fnv); err != nil {
		return noOperand, err
	}
	return f.emitFullCall(fnv, x.Args, s1.OpCALL, "computed call")
}

// emitFullCall pushes arguments and performs a standard (or fast) call;
// the result comes back on the stack.
func (f *fc) emitFullCall(fn absOperand, args []tree.Node, op s1.Op, comment string) (absOperand, error) {
	fn, err := f.stabilize(fn)
	if err != nil {
		return noOperand, err
	}
	if err := f.pushArgs(args); err != nil {
		return noOperand, err
	}
	f.emit(op, fn, noOperand, noOperand, int64(len(args)), comment)
	res := f.newTN("callres")
	f.emit(s1.OpPOP, tnOp(res), noOperand, noOperand, 0, "returned value")
	return tnOp(res), nil
}
