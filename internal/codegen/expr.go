package codegen

import (
	"fmt"
	"sort"

	"repro/internal/pdl"
	"repro/internal/s1"
	"repro/internal/sexp"
	"repro/internal/tree"
)

// CgError is a code-generation failure.
type CgError struct{ Msg string }

func (e *CgError) Error() string { return "codegen: " + e.Msg }

func cgerrf(format string, args ...any) error {
	return &CgError{Msg: fmt.Sprintf(format, args...)}
}

// emitFunction produces the whole function: prologue, body in tail
// position, pending jump blocks, epilogue.
func (f *fc) emitFunction() error {
	if err := f.emitPrologue(); err != nil {
		return err
	}
	if err := f.emitTail(f.lam.Body); err != nil {
		return err
	}
	// Jump-strategy blocks are placed after the main body; their bodies
	// are in tail position (all their calls were).
	for len(f.pending) > 0 {
		lam := f.pending[0]
		f.pending = f.pending[1:]
		jb := f.jumpBlocks[lam]
		f.emitLabel(jb.label)
		jb.startTick = f.alloc.Now()
		if err := f.emitTail(lam.Body); err != nil {
			return err
		}
	}
	// Common epilogue.
	f.emitLabel(f.retLabel)
	if f.specialsBound > 0 {
		f.emit(s1.OpSPECUNBIND, noOperand, noOperand, noOperand,
			int64(f.specialsBound), "unbind dynamic parameters")
	}
	f.emit(s1.OpRET, noOperand, noOperand, noOperand, 0, "function exit")
	return nil
}

// emitPrologue handles argument-count checking, &optional dispatch (the
// Table 4 shape), &rest normalization, frame reservation, dynamic
// parameter binding and environment construction.
func (f *fc) emitPrologue() error {
	lam := f.lam
	f.retLabel = f.label("ret")
	nreq := len(lam.Required)
	nopt := len(lam.Optional)

	errL := f.label("wrongargs")
	bodyL := f.label("body")

	if lam.Rest != nil {
		// SQRestify checks the minimum and normalizes to fixed arity
		// nreq+nopt+1 … optionals with &rest take their defaults only
		// when fewer than nreq+nopt args arrive; normalize in two steps:
		// restify collects everything past the declared parameters.
		if nopt > 0 {
			return cgerrf("%s: &optional together with &rest is not supported by this compiler", f.name)
		}
		f.emit(s1.OpCALLSQ, noOperand, conc(s1.ImmInt(int64(nreq))), noOperand,
			s1.SQRestify, "collect &rest arguments")
		ntot := nreq + 1
		for i, v := range lam.Params() {
			f.paramHome[v] = s1.Mem(s1.RegFP, int64(-4-ntot+i))
		}
		f.emit(s1.OpJMP, conc(s1.Lbl(bodyL)), noOperand, noOperand, 0, "")
	} else if nopt == 0 {
		// Fixed arity: one check, direct frame addressing.
		f.emit(s1.OpJNE, conc(s1.R(s1.RegR3)), conc(s1.ImmInt(int64(nreq))),
			conc(s1.Lbl(errL)), 0, fmt.Sprintf("check %d arguments", nreq))
		for i, v := range lam.Required {
			f.paramHome[v] = s1.Mem(s1.RegFP, int64(-4-nreq+i))
		}
		f.emit(s1.OpJMP, conc(s1.Lbl(bodyL)), noOperand, noOperand, 0, "")
	} else {
		// Optional parameters: dispatch on the number of arguments, with
		// code customized to each count ("it must be replicated in
		// general, because the initialization for an optional parameter
		// may be any LISP computation whatsoever").
		ntot := nreq + nopt
		params := lam.Params()
		// Normalized homes: reserved local slots FP+0..ntot-1.
		for i, v := range params {
			f.paramHome[v] = s1.Mem(s1.RegFP, int64(i))
		}
		f.nReserved = ntot
		// Reserve the local slots before running defaults.
		f.emit(s1.OpADD, conc(s1.R(s1.RegSP)), conc(s1.ImmInt(int64(ntot))),
			noOperand, 0, "reserve normalized parameter slots")
		var countLabels []string
		for k := nreq; k <= ntot; k++ {
			countLabels = append(countLabels, f.label(fmt.Sprintf("args%d", k)))
		}
		for k := nreq; k <= ntot; k++ {
			f.emit(s1.OpJEQ, conc(s1.R(s1.RegR3)), conc(s1.ImmInt(int64(k))),
				conc(s1.Lbl(countLabels[k-nreq])), 0,
				fmt.Sprintf("dispatch: %d arguments supplied", k))
		}
		f.emit(s1.OpJMP, conc(s1.Lbl(errL)), noOperand, noOperand, 0,
			"wrong number of arguments")
		for k := nreq; k <= ntot; k++ {
			f.emitLabel(countLabels[k-nreq])
			// Copy the k supplied arguments into their slots. The k
			// arguments sit at FP-4-k … FP-5; note the slots were
			// reserved above, so SP-relative offsets shifted — we use FP,
			// which is stable.
			for i := 0; i < k; i++ {
				f.emit(s1.OpMOV, conc(s1.Mem(s1.RegFP, int64(i))),
					conc(s1.Mem(s1.RegFP, int64(-4-k+i))), noOperand, 0,
					fmt.Sprintf("parameter %s", params[i].Name.Name))
			}
			// Compute defaults for the missing ones, in order.
			for j := k; j < ntot; j++ {
				op := lam.Optional[j-nreq]
				v, err := f.emitCoercedTo(op.Default, tree.RepPOINTER)
				if err != nil {
					return err
				}
				f.emit(s1.OpMOV, conc(s1.Mem(s1.RegFP, int64(j))), v, noOperand, 0,
					fmt.Sprintf("default value for parameter %s", op.Var.Name.Name))
			}
			f.emit(s1.OpJMP, conc(s1.Lbl(bodyL)), noOperand, noOperand, 0, "")
		}
	}

	f.emitLabel(errL)
	f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, s1.SQWrongArgs,
		"wrong number of arguments")
	f.emitLabel(bodyL)

	// Frame reservation for packed TNs; the operand is patched after
	// TN packing.
	f.frameSizePatch = len(f.code)
	f.emit(s1.OpADD, conc(s1.R(s1.RegSP)), conc(s1.ImmInt(0)), noOperand, 0,
		"reserve frame slots (patched)")

	// Heap environment for closed-over variables.
	if f.hasEnv {
		f.envTN = f.newTN("env")
		f.envTN.WantFrame = true
		f.emit(s1.OpENV, tnOp(f.envTN), conc(s1.R(s1.RegEP)), noOperand,
			int64(len(f.frame.envVars)), "allocate heap environment")
		// Move closed parameters into their env slots.
		for _, v := range f.lam.Params() {
			if !v.Closed {
				continue
			}
			_, slot, ok := f.frame.find(v)
			if !ok {
				return cgerrf("closed param %s missing from env", v)
			}
			f.emit(s1.OpMOV, conc(s1.R(s1.RegR2)), tnOp(f.envTN), noOperand, 0, "env base")
			f.emit(s1.OpMOV, conc(s1.Mem(s1.RegR2, int64(1+slot))),
				conc(f.paramHome[v]), noOperand, 0,
				fmt.Sprintf("heap-allocate parameter %s", v.Name.Name))
		}
	}

	// Dynamically bind special parameters.
	for _, v := range f.lam.Params() {
		if !v.Special {
			continue
		}
		sym := f.c.M.InternSym(v.Name.Name)
		f.emit(s1.OpSPECBIND, conc(f.paramHome[v]), noOperand, noOperand,
			int64(sym), fmt.Sprintf("bind special %s", v.Name.Name))
		f.specialsBound++
	}
	return nil
}

// finish packs TNs, patches the frame-size reservation and lowers the
// abstract code.
func (f *fc) finish() ([]s1.Item, int, int, error) {
	// Pdl-number data must survive as long as any pointer to it may be
	// used; extend those slots to the end of the function.
	for _, t := range f.pdlSlots {
		t.Touch(f.alloc.Now())
	}
	slots := f.alloc.Pack(f.nReserved)
	total := f.nReserved + slots
	f.code[f.frameSizePatch].b = conc(s1.ImmInt(int64(total)))
	items, err := f.lower()
	if err != nil {
		return nil, 0, 0, err
	}
	return items, f.lam.MinArgs(), f.lam.MaxArgs(), nil
}

// --- variable access ---

// varRead yields an operand holding the variable's value in its chosen
// representation. The result is stable (TN, param home) or freshly
// materialized (env slots, specials).
func (f *fc) varRead(v *tree.Var) (absOperand, error) {
	if v.Special {
		return f.specialRead(v)
	}
	if home, ok := f.paramHome[v]; ok && !v.Closed {
		return conc(home), nil
	}
	if t, ok := f.varTN[v]; ok {
		return tnOp(t), nil
	}
	if v.Closed {
		return f.envRead(v)
	}
	return noOperand, cgerrf("%s: variable %s has no location", f.name, v)
}

func (f *fc) envRead(v *tree.Var) (absOperand, error) {
	depth, slot, ok := f.frame.find(v)
	if !ok {
		return noOperand, cgerrf("%s: closed variable %s not in any env", f.name, v)
	}
	res := f.newTN("env:" + v.Name.Name)
	src, err := f.envSlotOperand(depth, slot, v.Name.Name)
	if err != nil {
		return noOperand, err
	}
	f.emit(s1.OpMOV, tnOp(res), src, noOperand, 0, "read "+v.Name.Name)
	return tnOp(res), nil
}

// envSlotOperand computes the operand for an environment slot, using R2
// as chase scratch. The operand must be consumed by the next emitted
// instruction.
func (f *fc) envSlotOperand(depth, slot int, name string) (absOperand, error) {
	if f.hasEnv && depth == 0 {
		// Our own environment object, held in a local.
		f.emit(s1.OpMOV, conc(s1.R(s1.RegR2)), tnOp(f.envTN), noOperand, 0, "env base")
		return conc(s1.Mem(s1.RegR2, int64(1+slot))), nil
	}
	// Otherwise the chain starts at EP, which corresponds to the frame at
	// depth 1 (our lexical parent context).
	hops := depth - 1
	if hops == 0 {
		return conc(s1.Mem(s1.RegEP, int64(1+slot))), nil
	}
	f.emit(s1.OpMOV, conc(s1.R(s1.RegR2)), conc(s1.Mem(s1.RegEP, 0)), noOperand, 0,
		"chase environment chain")
	for i := 1; i < hops; i++ {
		f.emit(s1.OpMOV, conc(s1.R(s1.RegR2)), conc(s1.Mem(s1.RegR2, 0)), noOperand, 0, "")
	}
	return conc(s1.Mem(s1.RegR2, int64(1+slot))), nil
}

// varWrite stores src (already in the variable's representation) into v.
// src must not itself be an env-slot operand.
func (f *fc) varWrite(v *tree.Var, src absOperand) error {
	if v.Special {
		return f.specialWrite(v, src)
	}
	if v.Closed {
		depth, slot, ok := f.frame.find(v)
		if !ok {
			return cgerrf("closed variable %s not in env", v)
		}
		dst, err := f.envSlotOperand(depth, slot, v.Name.Name)
		if err != nil {
			return err
		}
		f.emit(s1.OpMOV, dst, src, noOperand, 0, "store "+v.Name.Name)
		return nil
	}
	if home, ok := f.paramHome[v]; ok {
		f.emit(s1.OpMOV, conc(home), src, noOperand, 0, "store "+v.Name.Name)
		return nil
	}
	t, ok := f.varTN[v]
	if !ok {
		t = f.newTN(v.Name.Name)
		f.varTN[v] = t
	}
	f.emit(s1.OpMOV, tnOp(t), src, noOperand, 0, "store "+v.Name.Name)
	return nil
}

// --- specials ---

func (f *fc) symIndex(v *tree.Var) int64 {
	return int64(f.c.M.InternSym(v.Name.Name))
}

// maybeEmitSpecFinds emits cached deep-binding lookups when n is the
// placement point ("the smallest subtree that contains all the
// references").
func (f *fc) maybeEmitSpecFinds(n tree.Node) {
	if f.placements == nil {
		return
	}
	// Iterate in symbol-name order: several specials may share a placement
	// point, and the emitted lookup sequence (and its interned symbol
	// indices) must not depend on map iteration order.
	syms := make([]*sexp.Symbol, 0, len(f.placements))
	for sym := range f.placements {
		syms = append(syms, sym)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].Name < syms[j].Name })
	for _, sym := range syms {
		if f.placements[sym] != n || f.specCache[sym] != nil {
			continue
		}
		idx := int64(f.c.M.InternSym(sym.Name))
		cache := f.newTN("cache:" + sym.Name)
		cache.WantFrame = true
		f.emit(s1.OpCALLSQ, noOperand, conc(s1.ImmInt(idx)), noOperand,
			s1.SQSpecFind, "look up special "+sym.Name)
		f.emit(s1.OpMOV, tnOp(cache), conc(s1.R(s1.RegA)), noOperand, 0,
			"cache binding pointer")
		f.specCache[sym] = cache
	}
}

func (f *fc) specialRead(v *tree.Var) (absOperand, error) {
	res := f.newTN("spec:" + v.Name.Name)
	if cache := f.specCache[v.Name]; cache != nil {
		f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), tnOp(cache), noOperand, 0, "")
		f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, s1.SQSpecRead,
			"read special "+v.Name.Name+" (cached)")
	} else {
		f.emit(s1.OpCALLSQ, noOperand, conc(s1.ImmInt(f.symIndex(v))), noOperand,
			s1.SQSpecReadSym, "read special "+v.Name.Name)
	}
	f.emit(s1.OpMOV, tnOp(res), conc(s1.R(s1.RegA)), noOperand, 0, "")
	return tnOp(res), nil
}

func (f *fc) specialWrite(v *tree.Var, src absOperand) error {
	if cache := f.specCache[v.Name]; cache != nil {
		f.emit(s1.OpMOV, conc(s1.R(s1.RegB)), src, noOperand, 0, "")
		f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), tnOp(cache), noOperand, 0, "")
		f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, s1.SQSpecWrite,
			"write special "+v.Name.Name+" (cached)")
		return nil
	}
	f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), src, noOperand, 0, "")
	f.emit(s1.OpCALLSQ, noOperand, conc(s1.ImmInt(f.symIndex(v))), noOperand,
		s1.SQSpecWriteSym, "write special "+v.Name.Name)
	return nil
}

// --- literals ---

func (f *fc) literalOperand(lit *tree.Literal, r tree.Rep) (absOperand, error) {
	switch r {
	case tree.RepSWFLO:
		fl, ok := lit.Value.(sexp.Flonum)
		if !ok {
			return noOperand, cgerrf("literal %s is not a flonum", sexp.Print(lit.Value))
		}
		return conc(s1.Imm(s1.RawFloat(float64(fl)))), nil
	case tree.RepSWFIX:
		fx, ok := lit.Value.(sexp.Fixnum)
		if !ok {
			return noOperand, cgerrf("literal %s is not a fixnum", sexp.Print(lit.Value))
		}
		return conc(s1.Imm(s1.RawInt(int64(fx)))), nil
	default:
		return conc(s1.Imm(f.c.M.Pin(f.c.M.FromValue(lit.Value)))), nil
	}
}

// --- coercions (the WANTTN/ISTN machinery of §6.2) ---

// emitCoercedTo evaluates n and delivers its value in representation
// want.
func (f *fc) emitCoercedTo(n tree.Node, want tree.Rep) (absOperand, error) {
	v, err := f.emitNode(n)
	if err != nil {
		return noOperand, err
	}
	return f.coerce(n, v, effectiveRep(n.Info().IsRep), want)
}

// effectiveRep maps the bookkeeping representations to what emission
// actually delivers: JUMP-rep nodes materialize to T/NIL pointers in
// value position, and unannotated nodes are pointers.
func effectiveRep(r tree.Rep) tree.Rep {
	if r == tree.RepJUMP || r == tree.RepUnknown || r == tree.RepNONE {
		return tree.RepPOINTER
	}
	return r
}

// emitCoerced delivers n in its annotated WANTREP.
func (f *fc) emitCoerced(n tree.Node) (absOperand, error) {
	w := n.Info().WantRep
	if w == tree.RepNONE || w == tree.RepUnknown || w == tree.RepJUMP {
		w = tree.RepPOINTER
	}
	return f.emitCoercedTo(n, w)
}

// coerce converts a value between representations, emitting the
// conversion code. This is where pdl numbers happen: a raw numeric value
// that must become a pointer is MOVP'd into a stack scratch slot when the
// pdl analysis authorized it, and heap-allocated otherwise.
func (f *fc) coerce(n tree.Node, v absOperand, from, to tree.Rep) (absOperand, error) {
	if from == to || to == tree.RepNONE || to == tree.RepUnknown {
		return v, nil
	}
	switch {
	case from == tree.RepPOINTER && to == tree.RepSWFLO:
		return f.derefNumber(v, s1.TagFlonum, true)
	case from == tree.RepPOINTER && to == tree.RepSWFIX:
		return f.derefNumber(v, s1.TagFixnum, false)
	case from == tree.RepSWFLO && to == tree.RepPOINTER:
		if f.c.Opts.PdlNumbers && pdl.WantsPdlSlot(n) {
			slot := f.newTN("pdl")
			slot.WantFrame = true
			f.pdlSlots = append(f.pdlSlots, slot)
			res := f.newTN("pdlptr")
			f.emit(s1.OpMOV, tnOp(slot), v, noOperand, 0,
				"install value for PDL-allocated number")
			f.emit(s1.OpMOVP, tnOp(res), tnOp(slot), noOperand,
				int64(s1.TagFlonum), "pointer to PDL slot")
			return tnOp(res), nil
		}
		res := f.newTN("boxed")
		f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), v, noOperand, 0, "")
		f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, s1.SQFlonumCons,
			"heap-allocate flonum")
		f.emit(s1.OpMOV, tnOp(res), conc(s1.R(s1.RegA)), noOperand, 0, "")
		return tnOp(res), nil
	case from == tree.RepSWFIX && to == tree.RepPOINTER:
		// A fixnum pointer is an immediate: retag the raw bits.
		reg, err := f.ensureReg(v)
		if err != nil {
			return noOperand, err
		}
		res := f.newTN("fixptr")
		f.emit(s1.OpMOVP, tnOp(res), conc(s1.Idx(reg, 0, s1.NoReg, 0)), noOperand,
			int64(s1.TagFixnum), "make immediate fixnum")
		return tnOp(res), nil
	case from == tree.RepSWFLO && to == tree.RepSWFIX:
		res := f.newTN("fixed")
		f.emit(s1.OpFIX, tnOp(res), v, noOperand, 0, "")
		return tnOp(res), nil
	case from == tree.RepSWFIX && to == tree.RepSWFLO:
		res := f.newTN("floated")
		f.emit(s1.OpFLT, tnOp(res), v, noOperand, 0, "")
		return tnOp(res), nil
	}
	return noOperand, cgerrf("cannot coerce %v to %v", from, to)
}

// derefNumber converts POINTER→raw with a run-time type check.
func (f *fc) derefNumber(v absOperand, tag s1.Tag, deref bool) (absOperand, error) {
	okL := f.label("typeok")
	f.emit(s1.OpJTAG, v, conc(s1.Lbl(okL)), noOperand, int64(tag),
		"type check")
	f.emit(s1.OpMOV, conc(s1.R(s1.RegA)), v, noOperand, 0, "")
	f.emit(s1.OpCALLSQ, noOperand, noOperand, noOperand, s1.SQWrongType, "")
	f.emitLabel(okL)
	res := f.newTN("raw")
	if deref {
		reg, err := f.ensureReg(v)
		if err != nil {
			return noOperand, err
		}
		f.emit(s1.OpMOV, tnOp(res), conc(s1.Mem(reg, 0)), noOperand, 0,
			"dereference")
	} else {
		// Fixnum: the payload bits are the value.
		f.emit(s1.OpMOV, tnOp(res), v, noOperand, 0, "untag fixnum")
	}
	return tnOp(res), nil
}

// ensureReg materializes an operand's value into a register usable as an
// address base, returning the register. Uses R2 (reserved scratch) for
// non-register operands; the result must be consumed before the next
// ensureReg/env access.
func (f *fc) ensureReg(v absOperand) (uint8, error) {
	if v.tn == nil && v.op.Mode == s1.MReg {
		return v.op.Base, nil
	}
	f.emit(s1.OpMOV, conc(s1.R(s1.RegR2)), v, noOperand, 0, "to address register")
	return s1.RegR2, nil
}
