package s1

import "fmt"

// The execution engine (DESIGN.md §10). The assembler's []Instr stays
// the architectural program — listings, the profiler, diagnostics and
// the GC's immediate scan all read it — but the machine runs ops, a
// stream of lowered instructions parallel to Code and indexed by the
// same PC. Each instruction is lowered once, when its function is
// installed (AddFunction, AddBody, LoadImage; LoadFrom copies a
// template's stream), into a plain lop struct: operand shape resolved
// into register numbers, an immediate word or an effective-address
// recipe, cycle cost baked in. A lop holds no Go pointer, so a stream
// is copied between machines by value and an arena recycles one without
// clearing it.
//
// Run executes the stream (run, fast, exec below):
//
//   - Most kinds have a fast form: register moves and arithmetic,
//     in-bounds loads, stores, pushes and pops, jumps, and the SQ
//     routines that neither allocate nor fail. fast runs them in a
//     switch loop that calls nothing, keeping the meters (one packed
//     word) and the PC in registers; jumps move the loop's index.
//   - Everything else — an allocating SQ routine, a call, a return, a
//     shape lowered to lStep, or a fast form that declines (a bad
//     address, a stack that must grow, a routine's error case) — runs
//     with the meters spilled to Stats and m.pc materialized, so
//     errors, GC, the profiler and the safepoint hook always see exact
//     meters and the faulting instruction's PC. lStep, and a declined
//     fast form, take step's generic operand path over Code[pc]. So
//     does every instruction of a profiled run, where the profiler
//     notes it.
//   - Each instruction retires exactly once; one that can fail is
//     counted before its work runs, so a faulting instruction is
//     already counted.
//   - The step limit and the safepoint poll are checked every
//     interruptEvery retired instructions and at the limit itself, so
//     -max-steps trips at the exact instruction count and an interrupt
//     lands with bounded latency.
//   - CALL/CALLF/TCALL/TCALLF sites to a symbol, a register or a memory
//     word carry an inline cache: the function word last resolved there,
//     validated against the symbol's function cell (or the word) at
//     every call, so SetSymbolFunction rebinds invalidate it naturally.
//     The cache is a value field of the machine's own stream, so no two
//     machines share one.

// DefaultHotThreshold was the invocation count at which the old tiered
// engine re-optimized a function.
//
// Deprecated: every function runs lowered from install; nothing reads
// this value.
const DefaultHotThreshold = 64

// TierStats is a snapshot of the engine's install and call-site meters.
//
// Deprecated: use Machine.CacheFills; the type keeps the fields callers
// of the old tiered engine read.
type TierStats struct {
	// Deprecated: nothing is promoted any more; always zero.
	Promotions int64
	// Deprecated: nothing is re-fused any more; always zero.
	Refusions int64
	// LoweredInstrs counts the instructions installed in the lowered
	// stream.
	LoweredInstrs int64
	// CacheFills counts call-site inline-cache fills (Machine.CacheFills).
	CacheFills int64
}

// TierStats snapshots the engine's meters.
//
// Deprecated: see TierStats.
func (m *Machine) TierStats() TierStats {
	return TierStats{LoweredInstrs: int64(len(m.ops)), CacheFills: m.cacheFills}
}

// CacheFills reports how many times a call site's inline cache was
// filled or refilled (a first call, or a call after a rebind).
func (m *Machine) CacheFills() int64 { return m.cacheFills }

type lopKind uint8

// The kinds up to lSqSpecWrite have fast forms; the rest run in exec.
const (
	lNop      lopKind = iota
	lMovRR            // reg := reg
	lMovRI            // reg := imm
	lMovRX            // reg := mem[addr]
	lMovXR            // mem[addr] := reg
	lMovXI            // mem[addr] := imm
	lMovXX            // mem[addr2] := mem[addr]
	lMovP             // reg := Ptr(tag, addr)
	lAddRI            // reg := reg + k (SUB pre-negated)
	lIArith           // ADD/SUB/MULT/ASH, register operands
	lIArithRI         // reg := reg op imm
	lIArithIR         // reg := imm op reg
	lIArithRX         // reg := reg op mem[addr]
	lIArithXR         // reg := mem[addr] op reg
	lFArith           // FADD/FSUB/FMULT/FDIV, register operands
	lFArithRX         // reg := reg fop mem[addr]
	lFArithXR         // reg := mem[addr] fop reg
	lFArithRI         // reg := reg fop imm
	lFArithIR         // reg := imm fop reg
	lFArithXX         // reg := mem[addr] fop mem[addr2]
	lJmp
	lJccRI // int cond jump, reg vs imm
	lJccRR // int cond jump, reg vs reg
	lFJcc  // float cond jump, reg vs reg
	lJNil  // JNIL/JNNIL reg
	lJTag  // JTAG/JNTAG reg
	lJTagX // JTAG/JNTAG mem[addr]
	lJEqW  // JEQW/JNEW reg, reg
	lPushR
	lPushI
	lPushX // push mem[addr]
	lPopR
	lPop0
	lSqCarCdr    // CALLSQ car/cdr
	lSqFixCons   // CALLSQ fixnum-cons
	lSqSpecRead  // CALLSQ special-read through a handle
	lSqSpecWrite // CALLSQ special-write through a handle
	lFUnary      // FSIN..FIX, register operands (the math calls out)
	lSqArith     // numeric CALLSQ through fastNum
	lSqCons      // CALLSQ kons
	lSqCertify   // CALLSQ certify
	lSqFlonum    // CALLSQ single-flonum-cons
	lStep        // any other shape: step's generic operand path
	lSqPrim      // CALLSQ primitive gateway, operands resolved
	lSqPrimFrame // CALLSQ primitive stub body, symbol resolved
	lCall        // CALL/CALLF through an inline cache
	lTCall       // TCALL/TCALLF through an inline cache
	lRet
)

// lop is one lowered instruction. Memory addressing reuses the MIdx
// shape (off + R[s] + R[x]<<shift, NoReg slots skipped), which also
// covers MMem (x=NoReg) and MAbs (s=x=NoReg). lMovXX carries a second
// address (the store side) in the *2 fields.
type lop struct {
	kind   lopKind
	op     Op
	d      uint8 // dst register / compared register / pushed register
	s      uint8 // src register / addr base / left operand
	x      uint8 // addr index / right operand
	shift  uint8
	s2     uint8 // second-address base
	x2     uint8 // second-address index
	shift2 uint8
	want   bool
	tag    Tag
	mode   Mode // a call's callee operand: MReg, MImm, or a memory mode
	target int32
	aux    int32 // SQ routine or symbol / call nargs / mem-arith register operand
	meter  int64 // the instruction's contribution to run's meters
	imm    Word
	off    int64 // addr offset / immediate operand / car-cdr offset / argc
	off2   int64 // second-address offset
	// cache is a call site's inline cache: the TagFunc word it last
	// resolved (the zero word, which is no function, when empty).
	cache Word
}

// lowerCode lowers the instructions appended to Code since the stream
// last caught up with it. The stream takes Code's capacity, so a batch
// of installs sized in advance (ReserveCode) grows it at most once.
func (m *Machine) lowerCode() {
	m.ops = reserve(m.ops, cap(m.Code)-len(m.ops))
	for pc := len(m.ops); pc < len(m.Code); pc++ {
		m.ops = append(m.ops, lower(&m.Code[pc]))
	}
}

func intCondVal(op Op, x, y int64) bool {
	switch op {
	case OpJEQ:
		return x == y
	case OpJNE:
		return x != y
	case OpJLT:
		return x < y
	case OpJLE:
		return x <= y
	case OpJGT:
		return x > y
	}
	return x >= y
}

func floatCondVal(op Op, x, y float64) bool {
	switch op {
	case OpFJEQ:
		return x == y
	case OpFJNE:
		return x != y
	case OpFJLT:
		return x < y
	case OpFJLE:
		return x <= y
	case OpFJGT:
		return x > y
	}
	return x >= y
}

// memShaped reports o names a memory location the lowered address form
// can compute (never fails; loads/stores still bounds-check).
func memShaped(o Operand) bool {
	return o.Mode == MMem || o.Mode == MAbs || o.Mode == MIdx
}

// setAddr fills the lowered address fields from a Mem/Abs/Idx operand.
func (o *lop) setAddr(src Operand) {
	switch src.Mode {
	case MMem:
		o.s, o.x, o.shift, o.off = src.Base, NoReg, 0, src.Off
	case MAbs:
		o.s, o.x, o.shift, o.off = NoReg, NoReg, 0, src.Off
	case MIdx:
		o.s, o.x, o.shift, o.off = src.Base, src.Index, src.Shift, src.Off
	}
}

// setAddr2 fills the second address (lMovXX's store side).
func (o *lop) setAddr2(src Operand) {
	switch src.Mode {
	case MMem:
		o.s2, o.x2, o.shift2, o.off2 = src.Base, NoReg, 0, src.Off
	case MAbs:
		o.s2, o.x2, o.shift2, o.off2 = NoReg, NoReg, 0, src.Off
	case MIdx:
		o.s2, o.x2, o.shift2, o.off2 = src.Base, src.Index, src.Shift, src.Off
	}
}

func (m *Machine) lAddr(op *lop) uint64 {
	a := op.off
	if op.s != NoReg {
		a += int64(m.regs[op.s].Bits)
	}
	if op.x != NoReg {
		a += int64(m.regs[op.x].Bits) << op.shift
	}
	return uint64(a)
}

func (m *Machine) lAddr2(op *lop) uint64 {
	a := op.off2
	if op.s2 != NoReg {
		a += int64(m.regs[op.s2].Bits)
	}
	if op.x2 != NoReg {
		a += int64(m.regs[op.x2].Bits) << op.shift2
	}
	return uint64(a)
}

// loadFast is the inlinable no-error slice of Machine.load: ok=false
// (a bad address) sends the caller to the full load for its diagnostic.
func (m *Machine) loadFast(addr uint64) (Word, bool) {
	if i := addr - StackBase; i < uint64(len(m.stack)) {
		return m.stack[i], true
	}
	if h := addr - HeapBase; h < uint64(len(m.heap)) {
		return m.heap[h], true
	}
	// A stack word the stack has not grown to yet reads zero.
	return Word{}, IsStackAddr(addr)
}

// storeFast is the inlinable no-error slice of Machine.store, write
// barrier included: the card dirty must match Machine.store exactly or
// the generational differential suite diverges. ok=false (a bad
// address, or a stack address past the stack's end) sends the caller to
// the full store, which grows the stack or reports the address.
func (m *Machine) storeFast(addr uint64, w Word) bool {
	if i := addr - StackBase; i < uint64(len(m.stack)) {
		m.stack[i] = w
		return true
	}
	if h := addr - HeapBase; h < uint64(len(m.heap)) {
		m.heap[h] = w
		m.cards[h>>cardShift] = 1
		return true
	}
	return false
}

func intArithVal(op Op, x, y int64) int64 {
	switch op {
	case OpADD:
		return x + y
	case OpSUB:
		return x - y
	case OpMULT:
		return x * y
	}
	// OpASH
	if y >= 0 {
		return x << uint(y&63)
	}
	return x >> uint((-y)&63)
}

// floatArithVal is FADD, FSUB, FMULT or FDIV; FMAX and FMIN, which
// call out, run through step.
func floatArithVal(op Op, x, y float64) float64 {
	switch op {
	case OpFADD:
		return x + y
	case OpFSUB:
		return x - y
	case OpFMULT:
		return x * y
	}
	return x / y
}

func unaryVal(op Op, v Word) Word {
	switch op {
	case OpFSIN:
		return RawFloat(sinCycles(v.Float()))
	case OpFCOS:
		return RawFloat(cosCycles(v.Float()))
	case OpFSQRT:
		return RawFloat(sqrt(v.Float()))
	case OpFATAN:
		return RawFloat(atan(v.Float()))
	case OpFEXP:
		return RawFloat(exp(v.Float()))
	case OpFLOG:
		return RawFloat(logf(v.Float()))
	case OpFABS:
		return RawFloat(fabs(v.Float()))
	case OpFNEG:
		return RawFloat(-v.Float())
	case OpFLT:
		return RawFloat(float64(v.Int()))
	}
	// OpFIX
	return RawInt(int64(v.Float()))
}

// lower selects the lowered form of one instruction. It reads ins only:
// jump targets are already resolved, and a shape without a fast form
// becomes lStep, which interprets Code[pc] at run time.
func lower(ins *Instr) lop {
	o := lop{kind: lStep, op: ins.Op, target: int32(ins.target), meter: meterInstr}
	if int(ins.Op) < NumOps {
		o.meter += cycleCost[ins.Op]
	}

	switch ins.Op {
	case OpNOP:
		o.kind = lNop
	case OpMOV:
		switch {
		case ins.A.Mode == MReg && ins.B.Mode == MReg:
			o.kind, o.d, o.s = lMovRR, ins.A.Base, ins.B.Base
		case ins.A.Mode == MReg && ins.B.Mode == MImm:
			o.kind, o.d, o.imm = lMovRI, ins.A.Base, ins.B.Imm
		case ins.A.Mode == MReg && memShaped(ins.B):
			o.kind, o.d = lMovRX, ins.A.Base
			o.setAddr(ins.B)
		case memShaped(ins.A) && ins.B.Mode == MReg:
			o.kind, o.d = lMovXR, ins.B.Base
			o.setAddr(ins.A)
		case memShaped(ins.A) && ins.B.Mode == MImm:
			o.kind, o.imm = lMovXI, ins.B.Imm
			o.setAddr(ins.A)
		case memShaped(ins.A) && memShaped(ins.B):
			o.kind = lMovXX
			o.setAddr(ins.B)
			o.setAddr2(ins.A)
		}
	case OpMOVP:
		if ins.A.Mode == MReg && memShaped(ins.B) {
			o.kind, o.d, o.tag = lMovP, ins.A.Base, Tag(ins.TagArg)
			o.setAddr(ins.B)
		}
	case OpADD, OpSUB, OpMULT, OpASH:
		lowerIntArith(&o, ins)
	case OpFADD, OpFSUB, OpFMULT, OpFDIV:
		lowerFloatArith(&o, ins)
	case OpFSIN, OpFCOS, OpFSQRT, OpFATAN, OpFEXP, OpFLOG, OpFABS, OpFNEG, OpFLT, OpFIX:
		if ins.A.Mode == MReg && ins.B.Mode == MReg {
			o.kind, o.d, o.s = lFUnary, ins.A.Base, ins.B.Base
		}
	case OpJMP:
		o.kind = lJmp
	case OpJEQ, OpJNE, OpJLT, OpJLE, OpJGT, OpJGE:
		if ins.A.Mode == MReg && ins.B.Mode == MImm {
			o.kind, o.d, o.off = lJccRI, ins.A.Base, ins.B.Imm.Int()
		} else if ins.A.Mode == MReg && ins.B.Mode == MReg {
			o.kind, o.d, o.s = lJccRR, ins.A.Base, ins.B.Base
		}
	case OpFJEQ, OpFJNE, OpFJLT, OpFJLE, OpFJGT, OpFJGE:
		if ins.A.Mode == MReg && ins.B.Mode == MReg {
			o.kind, o.d, o.s = lFJcc, ins.A.Base, ins.B.Base
		}
	case OpJNIL, OpJNNIL:
		if ins.A.Mode == MReg {
			o.kind, o.d, o.want = lJNil, ins.A.Base, ins.Op == OpJNIL
		}
	case OpJTAG, OpJNTAG:
		o.tag, o.want = Tag(ins.TagArg), ins.Op == OpJTAG
		if ins.A.Mode == MReg {
			o.kind, o.d = lJTag, ins.A.Base
		} else if memShaped(ins.A) {
			o.kind = lJTagX
			o.setAddr(ins.A)
		}
	case OpJEQW, OpJNEW:
		if ins.A.Mode == MReg && ins.B.Mode == MReg {
			o.kind, o.d, o.s, o.want = lJEqW, ins.A.Base, ins.B.Base, ins.Op == OpJEQW
		}
	case OpPUSH:
		switch {
		case ins.A.Mode == MReg:
			o.kind, o.d = lPushR, ins.A.Base
		case ins.A.Mode == MImm:
			o.kind, o.imm = lPushI, ins.A.Imm
		case memShaped(ins.A):
			o.kind = lPushX
			o.setAddr(ins.A)
		}
	case OpPOP:
		switch ins.A.Mode {
		case MNone:
			o.kind = lPop0
		case MReg:
			o.kind, o.d = lPopR, ins.A.Base
		}
	case OpCALLSQ:
		lowerSQ(&o, ins)
	case OpCALL, OpCALLF, OpTCALL, OpTCALLF:
		kind := lCall
		if ins.Op == OpTCALL || ins.Op == OpTCALLF {
			kind = lTCall
		}
		o.aux, o.mode = int32(ins.TagArg), ins.A.Mode
		switch {
		case ins.A.Mode == MImm && (ins.A.Imm.Tag == TagSymbol || ins.A.Imm.Tag == TagFunc):
			o.kind, o.imm = kind, ins.A.Imm
		case ins.A.Mode == MReg:
			o.kind, o.s = kind, ins.A.Base
		case memShaped(ins.A):
			o.kind = kind
			o.setAddr(ins.A)
		}
	case OpRET:
		o.kind = lRet
	}
	if o.kind >= lMovRR && o.kind <= lMovXX {
		o.meter += meterMov // step counts the MOVs it runs itself
	}
	return o
}

func lowerIntArith(o *lop, ins *Instr) {
	if ins.A.Mode != MReg {
		return
	}
	d := ins.A.Base
	if ins.C.Mode == MNone {
		// 2-op: A = A op B.
		switch {
		case ins.B.Mode == MImm && (ins.Op == OpADD || ins.Op == OpSUB):
			k := ins.B.Imm.Int()
			if ins.Op == OpSUB {
				k = -k
			}
			o.kind, o.d, o.off = lAddRI, d, k
		case ins.B.Mode == MImm:
			o.kind, o.d, o.s, o.off = lIArithRI, d, d, ins.B.Imm.Int()
		case ins.B.Mode == MReg:
			o.kind, o.d, o.s, o.x = lIArith, d, d, ins.B.Base
		case memShaped(ins.B):
			o.kind, o.d, o.aux = lIArithRX, d, int32(d)
			o.setAddr(ins.B)
		}
		return
	}
	// 3-op: A = B op C.
	switch {
	case ins.B.Mode == MReg && ins.C.Mode == MReg:
		o.kind, o.d, o.s, o.x = lIArith, d, ins.B.Base, ins.C.Base
	case ins.B.Mode == MImm && ins.C.Mode == MReg:
		o.kind, o.d, o.x, o.off = lIArithIR, d, ins.C.Base, ins.B.Imm.Int()
	case ins.B.Mode == MReg && ins.C.Mode == MImm:
		o.kind, o.d, o.s, o.off = lIArithRI, d, ins.B.Base, ins.C.Imm.Int()
	case ins.B.Mode == MReg && memShaped(ins.C):
		o.kind, o.d, o.aux = lIArithRX, d, int32(ins.B.Base)
		o.setAddr(ins.C)
	case memShaped(ins.B) && ins.C.Mode == MReg:
		o.kind, o.d, o.aux = lIArithXR, d, int32(ins.C.Base)
		o.setAddr(ins.B)
	}
}

func lowerFloatArith(o *lop, ins *Instr) {
	if ins.A.Mode != MReg {
		return
	}
	d := ins.A.Base
	b, c := ins.A, ins.B // 2-op: A = A fop B
	if ins.C.Mode != MNone {
		b, c = ins.B, ins.C
	}
	switch {
	case b.Mode == MReg && c.Mode == MReg:
		o.kind, o.d, o.s, o.x = lFArith, d, b.Base, c.Base
	case b.Mode == MReg && c.Mode == MImm:
		o.kind, o.d, o.s, o.imm = lFArithRI, d, b.Base, c.Imm
	case b.Mode == MImm && c.Mode == MReg:
		o.kind, o.d, o.x, o.imm = lFArithIR, d, c.Base, b.Imm
	case memShaped(b) && memShaped(c):
		o.kind, o.d = lFArithXX, d
		o.setAddr(b)
		o.setAddr2(c)
	case b.Mode == MReg && memShaped(c):
		o.kind, o.d, o.aux = lFArithRX, d, int32(b.Base)
		o.setAddr(c)
	case memShaped(b) && c.Mode == MReg:
		o.kind, o.d, o.aux = lFArithXR, d, int32(c.Base)
		o.setAddr(b)
	}
}

// lowerSQ binds the CALLSQ routines with a fast form into the stream.
// The primitive gateways take their symbol and argument count as
// immediates (every emitter writes them so); only a malformed image has
// another operand there, and lStep reports it.
func lowerSQ(o *lop, ins *Instr) {
	sq := int(ins.TagArg)
	o.aux = int32(sq)
	switch sq {
	case SQAdd, SQSub, SQMul, SQDiv, SQNumEq, SQLt, SQGt, SQLe, SQGe:
		o.kind = lSqArith
	case SQCons:
		o.kind = lSqCons
	case SQCar:
		o.kind, o.off = lSqCarCdr, 0
	case SQCdr:
		o.kind, o.off = lSqCarCdr, 1
	case SQFixnumCons:
		o.kind = lSqFixCons
	case SQCertify:
		o.kind = lSqCertify
	case SQFlonumCons:
		o.kind = lSqFlonum
	case SQSpecRead:
		o.kind = lSqSpecRead
	case SQSpecWrite:
		o.kind = lSqSpecWrite
	case SQPrim:
		if ins.B.Mode == MImm && ins.C.Mode == MImm {
			o.kind, o.imm, o.off = lSqPrim, ins.B.Imm, ins.C.Imm.Int()
		}
	case SQPrimFrame:
		if ins.B.Mode == MImm {
			o.kind, o.imm = lSqPrimFrame, ins.B.Imm
		}
	}
}

// icTarget reads a call site's callee operand fnw and resolves it
// through the site's inline cache. ok=false means the word is no direct
// function and the generic call path must resolve fnw. A symbol's site
// is validated against the symbol's function cell, a register's or
// memory word's against the word itself; a function immediate needs no
// cache.
func (m *Machine) icTarget(op *lop) (fnw Word, fn int, ok bool, err error) {
	fnw = op.imm
	observed := fnw
	switch op.mode {
	case MReg:
		fnw = m.regs[op.s]
		observed = fnw
	case MImm:
		if fnw.Tag == TagFunc {
			return fnw, int(fnw.Bits), true, nil
		}
		observed = m.Syms[fnw.Bits].Function
	default:
		if fnw, err = m.load(m.lAddr(op)); err != nil {
			return fnw, 0, false, err
		}
		observed = fnw
	}
	if observed.Tag != TagFunc {
		return fnw, 0, false, nil
	}
	if op.cache != observed {
		op.cache = observed
		m.cacheFills++
	}
	return fnw, int(observed.Bits), true, nil
}

// enterFrameIC is the CALL microcode for a cache-verified direct
// function (nil environment), with the four frame pushes bounds-checked
// once (growing the stack if they run past its end). ok=false declines
// near the stack limit without mutating anything; the caller takes the
// generic path for exact overflow semantics.
func (m *Machine) enterFrameIC(nargs, retPC, fn int) bool {
	sp := m.regs[RegSP].Bits
	if !IsStackAddr(sp) || sp+4 > StackLimit {
		return false
	}
	b := sp - StackBase
	for b+4 > uint64(len(m.stack)) {
		m.growStack()
	}
	m.stack[b] = RawInt(int64(nargs))
	m.stack[b+1] = RawInt(int64(retPC))
	m.stack[b+2] = m.regs[RegFP]
	m.stack[b+3] = m.regs[RegEP]
	nsp := RawInt(int64(sp + 4))
	m.regs[RegSP] = nsp
	if d := int64(sp + 4 - StackBase); d > m.Stats.MaxStack {
		m.Stats.MaxStack = d
	}
	m.regs[RegFP] = nsp
	m.regs[RegEP] = NilWord
	m.regs[RegR3] = RawInt(int64(nargs))
	m.pc = m.Funcs[fn].Entry
	m.Stats.Calls++
	if p := m.prof; p != nil {
		p.call(m, fn)
	}
	return true
}

// tailCallIC is the TCALL microcode for a cache-verified direct
// function: the k outgoing arguments move down over the old frame with
// one copy (no intermediate slice). ok=false declines on any bound
// irregularity without mutating anything, whenever the frame or the
// arguments reach past the stack's end (slots ADD SP reserved and
// nothing wrote): the generic path reads those as zero and grows, and
// whenever an argument is a pdl number the move would overwrite.
func (m *Machine) tailCallIC(k, fn int) bool {
	fp := int64(m.regs[RegFP].Bits)
	sp := int64(m.regs[RegSP].Bits)
	top := StackBase + int64(len(m.stack))
	if fp-4 < StackBase || fp > top || sp-int64(k) < StackBase || sp > top {
		return false
	}
	fb := uint64(fp) - StackBase
	nw := m.stack[fb-4].Int()
	newBase := fp - 4 - nw
	if newBase < StackBase || newBase+int64(k)+4 > top {
		return false
	}
	src := m.stack[uint64(sp)-StackBase-uint64(k) : uint64(sp)-StackBase]
	for _, w := range src {
		if pdlNumber(w) && w.Bits >= uint64(newBase) {
			return false // tailCall copies it out of the frame first
		}
	}
	savedRet := m.stack[fb-3]
	savedFP := m.stack[fb-2]
	savedEP := m.stack[fb-1]
	dst := uint64(newBase) - StackBase
	copy(m.stack[dst:dst+uint64(k)], src)
	m.stack[dst+uint64(k)] = RawInt(int64(k))
	m.stack[dst+uint64(k)+1] = savedRet
	m.stack[dst+uint64(k)+2] = savedFP
	m.stack[dst+uint64(k)+3] = savedEP
	nsp := newBase + int64(k) + 4
	m.regs[RegSP] = RawInt(nsp)
	if d := nsp - StackBase; d > m.Stats.MaxStack {
		m.Stats.MaxStack = d
	}
	m.regs[RegFP] = m.regs[RegSP]
	m.regs[RegEP] = NilWord
	m.regs[RegR3] = RawInt(int64(k))
	m.pc = m.Funcs[fn].Entry
	if p := m.prof; p != nil {
		p.tail(m, fn)
	}
	return true
}

// Run executes from m.pc until HALT, a return to PC 0, or an error.
// Panics raised below the loop — heap exhaustion after a failed
// collection, or an internal simulator fault — are converted into
// RuntimeErrors so a sick program degrades into an error value the REPL
// and driver can report.
func (m *Machine) Run() (err error) {
	defer func() {
		if r := recover(); r == nil {
			return
		} else if he, ok := r.(*heapExhausted); ok {
			m.halted = true
			err = &RuntimeError{PC: m.pc, Msg: he.Error()}
		} else {
			m.halted = true
			err = &RuntimeError{PC: m.pc, Msg: fmt.Sprintf("machine fault: %v", r)}
		}
	}()
	if m.halted {
		return nil
	}
	if len(m.ops) < len(m.Code) {
		m.lowerCode()
	}
	return m.run()
}

// run keeps its meters in one word, acc, so that retiring an
// instruction is one addition of its lop's meter: bits 0–31 count the
// cycles and bits 32–47 the MOVs retired since the last spill, and the
// top sixteen bits count the instructions retired toward m.stop, the
// next checkpoint (the step limit or the next safepoint poll, whichever
// is nearer), starting from meterBias minus the instructions left, so
// that acc turns negative exactly when the checkpoint is due. Neither
// field can carry into the next: at most interruptEvery instructions
// retire between spills.
const (
	meterMov    = 1 << 32
	meterInstr  = 1 << 48
	meterCycles = meterMov - 1
	meterMovs   = meterInstr - meterMov
	meterBias   = 1 << 15
)

// spill writes the meters acc holds to Stats and returns acc with its
// cycle and MOV fields cleared.
func (m *Machine) spill(acc int64) int64 {
	m.Stats.Instrs = m.stop - (meterBias - int64(uint64(acc)>>48))
	m.Stats.Cycles += acc & meterCycles
	m.Stats.Movs += acc & meterMovs >> 32
	return acc &^ (meterInstr - 1)
}

// run is Run's loop, kept apart from the recover barrier: it takes the
// checkpoints and hands the stream to fast, or, while the profiler
// notes every instruction, runs each lop through exec itself. A
// primitive hook must not run the machine it was called from.
func (m *Machine) run() error {
	ops, p, pc := m.ops, m.prof, m.pc
	acc := int64(-meterBias * meterInstr) // a checkpoint is due
	m.stop = m.Stats.Instrs
	m.pollAt = m.Stats.Instrs + interruptEvery
	for {
		if acc < 0 {
			acc = m.spill(acc)
			m.pc = pc
			if m.Stats.Instrs >= m.StepLimit {
				return &RuntimeError{PC: pc, Msg: "step limit exceeded"}
			}
			if m.Stats.Instrs >= m.pollAt {
				m.pollAt = m.Stats.Instrs + interruptEvery
				if err := m.pollSafepoint(); err != nil {
					return err
				}
			}
			m.stop = min(m.StepLimit, m.pollAt, m.Stats.Instrs+interruptEvery)
			acc = (meterBias - (m.stop - m.Stats.Instrs)) * meterInstr
		}
		var err error
		if p == nil {
			if pc, acc, err = m.fast(ops, pc, acc); err != nil || m.halted {
				return err
			}
			if acc < 0 {
				continue
			}
		} else if uint(pc) < uint(len(ops)) {
			op := &ops[pc]
			acc = m.spill(acc + op.meter&^meterMovs) // step counts the MOVs it runs
			m.pc = pc
			p.note(op.op, op.meter&meterCycles)
			if pc, err = m.exec(op, pc); err != nil || m.halted {
				return err
			}
			continue
		}
		m.pc = pc
		m.spill(acc)
		return &RuntimeError{PC: pc, Msg: "PC out of range"}
	}
}

// fast runs the stream from pc until a checkpoint is due or pc leaves
// the stream, and returns the PC reached and the meters. A lop runs in
// its fast form when it has one and it applies; anything else — a kind
// that allocates, calls out or transfers control, a shape lowered to
// lStep, a fast form that declines (a bad address, a stack that must
// grow, a routine's error case) — runs through exec, with the meters
// spilled and m.pc materialized, and an error or a halt there ends
// fast. The fast forms call nothing that is not inlined, so that only
// the exec path saves the loop's state.
func (m *Machine) fast(ops []lop, pc int, acc int64) (int, int64, error) {
	for acc >= 0 && uint(pc) < uint(len(ops)) {
		op := &ops[pc]
		switch op.kind {
		case lNop:
		case lMovRR:
			m.regs[op.d] = m.regs[op.s]
		case lMovRI:
			m.regs[op.d] = op.imm
		case lMovRX:
			v, ok := m.loadFast(m.lAddr(op))
			if !ok {
				goto slow
			}
			m.regs[op.d] = v
		case lMovXR:
			if !m.storeFast(m.lAddr(op), m.regs[op.d]) {
				goto slow
			}
		case lMovXI:
			if !m.storeFast(m.lAddr(op), op.imm) {
				goto slow
			}
		case lMovXX:
			v, ok := m.loadFast(m.lAddr(op))
			if !ok || !m.storeFast(m.lAddr2(op), v) {
				goto slow
			}
		case lMovP:
			m.regs[op.d] = Ptr(op.tag, m.lAddr(op))
		case lAddRI:
			m.regs[op.d] = RawInt(m.regs[op.d].Int() + op.off)
		case lIArith:
			m.regs[op.d] = RawInt(intArithVal(op.op, m.regs[op.s].Int(), m.regs[op.x].Int()))
		case lIArithRI:
			m.regs[op.d] = RawInt(intArithVal(op.op, m.regs[op.s].Int(), op.off))
		case lIArithIR:
			m.regs[op.d] = RawInt(intArithVal(op.op, op.off, m.regs[op.x].Int()))
		case lIArithRX:
			v, ok := m.loadFast(m.lAddr(op))
			if !ok {
				goto slow
			}
			m.regs[op.d] = RawInt(intArithVal(op.op, m.regs[op.aux].Int(), v.Int()))
		case lIArithXR:
			v, ok := m.loadFast(m.lAddr(op))
			if !ok {
				goto slow
			}
			m.regs[op.d] = RawInt(intArithVal(op.op, v.Int(), m.regs[op.aux].Int()))
		case lFArith:
			m.regs[op.d] = RawFloat(floatArithVal(op.op, m.regs[op.s].Float(), m.regs[op.x].Float()))
		case lFArithRI:
			m.regs[op.d] = RawFloat(floatArithVal(op.op, m.regs[op.s].Float(), op.imm.Float()))
		case lFArithIR:
			m.regs[op.d] = RawFloat(floatArithVal(op.op, op.imm.Float(), m.regs[op.x].Float()))
		case lFArithRX:
			v, ok := m.loadFast(m.lAddr(op))
			if !ok {
				goto slow
			}
			m.regs[op.d] = RawFloat(floatArithVal(op.op, m.regs[op.aux].Float(), v.Float()))
		case lFArithXR:
			v, ok := m.loadFast(m.lAddr(op))
			if !ok {
				goto slow
			}
			m.regs[op.d] = RawFloat(floatArithVal(op.op, v.Float(), m.regs[op.aux].Float()))
		case lFArithXX:
			x, okx := m.loadFast(m.lAddr(op))
			y, oky := m.loadFast(m.lAddr2(op))
			if !okx || !oky {
				goto slow
			}
			m.regs[op.d] = RawFloat(floatArithVal(op.op, x.Float(), y.Float()))
		case lJmp:
			acc += op.meter
			pc = int(op.target)
			continue
		case lJccRI:
			if intCondVal(op.op, m.regs[op.d].Int(), op.off) {
				acc += op.meter
				pc = int(op.target)
				continue
			}
		case lJccRR:
			if intCondVal(op.op, m.regs[op.d].Int(), m.regs[op.s].Int()) {
				acc += op.meter
				pc = int(op.target)
				continue
			}
		case lFJcc:
			if floatCondVal(op.op, m.regs[op.d].Float(), m.regs[op.s].Float()) {
				acc += op.meter
				pc = int(op.target)
				continue
			}
		case lJNil:
			if (m.regs[op.d].Tag == TagNil) == op.want {
				acc += op.meter
				pc = int(op.target)
				continue
			}
		case lJTag:
			if (m.regs[op.d].Tag == op.tag) == op.want {
				acc += op.meter
				pc = int(op.target)
				continue
			}
		case lJTagX:
			v, ok := m.loadFast(m.lAddr(op))
			if !ok {
				goto slow
			}
			if (v.Tag == op.tag) == op.want {
				acc += op.meter
				pc = int(op.target)
				continue
			}
		case lJEqW:
			if (m.regs[op.d] == m.regs[op.s]) == op.want {
				acc += op.meter
				pc = int(op.target)
				continue
			}
		case lPushR, lPushI, lPushX:
			v := op.imm
			switch op.kind {
			case lPushR:
				v = m.regs[op.d]
			case lPushX:
				var ok bool
				if v, ok = m.loadFast(m.lAddr(op)); !ok {
					goto slow
				}
			}
			// push's in-bounds case; step grows the stack.
			sp := &m.regs[RegSP]
			i := sp.Bits - StackBase
			if i >= uint64(len(m.stack)) {
				goto slow
			}
			m.stack[i] = v
			sp.Bits++
			m.Stats.MaxStack = max(m.Stats.MaxStack, int64(i+1))
		case lPopR, lPop0:
			// pop's in-segment case; step reports an underflow.
			sp := m.regs[RegSP].Bits - 1
			if !IsStackAddr(sp) {
				goto slow
			}
			m.regs[RegSP] = RawInt(int64(sp))
			if op.kind == lPopR {
				v := Word{}
				if i := sp - StackBase; i < uint64(len(m.stack)) {
					v = m.stack[i]
				}
				m.regs[op.d] = v
			}
		case lSqCarCdr:
			a := m.regs[RegA]
			if a.Tag == TagNil {
				m.regs[RegA] = NilWord
				break
			}
			w, ok := m.loadFast(a.Bits + uint64(op.off))
			if a.Tag != TagCons || !ok {
				goto slow
			}
			m.regs[RegA] = w
		case lSqFixCons:
			m.regs[RegA] = FixnumWord(m.regs[RegA].Int())
		case lSqSpecRead:
			// specRead's cases that succeed; step reports the others.
			switch h := m.regs[RegA].Int(); {
			case h >= 0 && h < int64(len(m.bindStack)):
				m.regs[RegA] = m.bindStack[h].val
			case h < 0 && m.Syms[-h-1].HasValue:
				m.regs[RegA] = m.Syms[-h-1].Value
			default:
				goto slow
			}
		case lSqSpecWrite:
			b := m.regs[RegB]
			switch h := m.regs[RegA].Int(); {
			case h >= 0 && h < int64(len(m.bindStack)):
				m.bindStack[h].val = b
			case h < 0:
				m.Syms[-h-1].Value = b
				m.Syms[-h-1].HasValue = true
			default:
				goto slow
			}
			m.regs[RegA] = b
		default:
			goto slow
		}
		if op.op == OpCALLSQ {
			m.Stats.SQCalls++
			acc += sqCost[op.aux]
		}
		acc += op.meter
		pc++
		continue
	slow:
		acc = m.spill(acc + op.meter&^meterMovs) // step counts the MOVs it runs
		m.pc = pc
		var err error
		switch op.kind {
		case lSqArith, lSqCons:
			// exec's cases, one call shallower: the commonest routines,
			// both allocating. (A profiled run takes exec's copies.)
			m.Stats.SQCalls++
			m.chargeSQ(int(op.aux))
			a, b := m.regs[RegA], m.regs[RegB]
			if op.kind == lSqCons {
				m.regs[RegA] = m.consHeap(a, b)
			} else if out, ok := m.fastNum(int(op.aux), a, b); ok {
				m.regs[RegA] = out
			} else if err = m.genericArith(int(op.aux), a, b); err != nil {
				return pc, acc, err
			}
			pc++
			continue
		}
		if pc, err = m.exec(op, pc); err != nil || m.halted {
			return pc, acc, err
		}
	}
	return pc, acc, nil
}

// exec runs the lop at pc with the meters spilled and m.pc at pc, and
// returns the PC execution continues at: the lops without a fast form,
// and, through step, any lop whose fast form declined or a profiled
// run.
func (m *Machine) exec(op *lop, pc int) (int, error) {
	var err error
	switch op.kind {
	case lSqArith:
		m.Stats.SQCalls++
		m.chargeSQ(int(op.aux))
		err = m.sqArith(int(op.aux))
	case lSqCons:
		m.Stats.SQCalls++
		m.chargeSQ(int(op.aux))
		m.regs[RegA] = m.consHeap(m.regs[RegA], m.regs[RegB])
	case lSqCertify:
		m.Stats.SQCalls++
		m.chargeSQ(int(op.aux))
		m.Stats.Certifies++
		m.regs[RegA] = m.heapWord(m.regs[RegA])
	case lSqFlonum:
		m.Stats.SQCalls++
		m.chargeSQ(int(op.aux))
		m.regs[RegA] = m.ConsFlonum(m.regs[RegA].Float())
	case lFUnary:
		m.regs[op.d] = unaryVal(op.op, m.regs[op.s])
	case lSqPrim, lSqPrimFrame:
		m.Stats.SQCalls++
		m.chargeSQ(int(op.aux))
		var jumped bool
		if op.kind == lSqPrim {
			jumped, err = m.sqPrim(int(op.imm.Int()), op.off)
		} else {
			jumped, err = m.sqPrimFrame(int(op.imm.Int()))
		}
		if jumped {
			return m.pc, err
		}
	case lCall:
		fnw, fn, ok, err := m.icTarget(op)
		if err == nil && (!ok || !m.enterFrameIC(int(op.aux), pc+1, fn)) {
			err = m.enterFrame(int(op.aux), pc+1, fnw, op.op == OpCALLF)
		}
		return m.pc, err
	case lTCall:
		fnw, fn, ok, err := m.icTarget(op)
		if err == nil {
			m.Stats.TailCalls++
			if !ok || !m.tailCallIC(int(op.aux), fn) {
				err = m.tailCall(int(op.aux), fnw)
			}
		}
		return m.pc, err
	case lRet:
		err := m.ret()
		return m.pc, err
	default:
		// lStep, or a fast form that declined or is being profiled.
		err := m.step(pc)
		return m.pc, err
	}
	return pc + 1, err
}

// step executes Code[pc] through the generic operand path (value,
// effaddr, setOperand): every opcode and operand shape the lowering has
// no fast form for. It leaves m.pc at the next instruction to run; on an
// error m.pc stays pc. The instruction is already counted.
func (m *Machine) step(pc int) error {
	ins := &m.Code[pc]
	op, next := ins.Op, pc+1
	// x, y are the binary operands: A op B, or B op C with a third
	// operand (the 2½-address forms).
	x, y := &ins.A, &ins.B
	if ins.C.Mode != MNone {
		x, y = &ins.B, &ins.C
	}
	switch op {
	case OpNOP:
	case OpHALT:
		m.halted = true
		return nil
	case OpMOV, OpTAG, OpPUSH, OpFSIN, OpFCOS, OpFSQRT, OpFATAN, OpFEXP, OpFLOG, OpFABS, OpFNEG, OpFLT, OpFIX:
		src := &ins.B
		if op == OpPUSH {
			src = &ins.A
		}
		v, err := m.value(src)
		if err != nil {
			return err
		}
		switch op {
		case OpMOV:
			if err := m.setOperand(&ins.A, v); err != nil {
				return err
			}
			m.Stats.Movs++
		case OpTAG:
			err = m.setOperand(&ins.A, RawInt(int64(v.Tag)))
		case OpPUSH:
			err = m.push(v)
		default:
			err = m.setOperand(&ins.A, unaryVal(op, v))
		}
		if err != nil {
			return err
		}
	case OpMOVP:
		a, err := m.effaddr(&ins.B)
		if err != nil {
			return err
		}
		if err := m.setOperand(&ins.A, Ptr(Tag(ins.TagArg), a)); err != nil {
			return err
		}
	case OpADD, OpSUB, OpMULT, OpDIV, OpASH, OpFADD, OpFSUB, OpFMULT, OpFDIV, OpFMAX, OpFMIN:
		a, err := m.value(x)
		if err != nil {
			return err
		}
		b, err := m.value(y)
		if err != nil {
			return err
		}
		var r Word
		switch op {
		case OpDIV:
			if b.Int() == 0 {
				return &RuntimeError{PC: m.pc, Msg: "integer division by zero"}
			}
			r = RawInt(a.Int() / b.Int())
		case OpADD, OpSUB, OpMULT, OpASH:
			r = RawInt(intArithVal(op, a.Int(), b.Int()))
		case OpFMAX:
			r = RawFloat(fmax(a.Float(), b.Float()))
		case OpFMIN:
			r = RawFloat(fmin(a.Float(), b.Float()))
		default:
			r = RawFloat(floatArithVal(op, a.Float(), b.Float()))
		}
		if err := m.setOperand(&ins.A, r); err != nil {
			return err
		}
	case OpJMP:
		next = ins.target
	case OpJEQ, OpJNE, OpJLT, OpJLE, OpJGT, OpJGE, OpFJEQ, OpFJNE, OpFJLT, OpFJLE, OpFJGT, OpFJGE,
		OpJNIL, OpJNNIL, OpJTAG, OpJNTAG, OpJEQW, OpJNEW:
		a, err := m.value(&ins.A)
		if err != nil {
			return err
		}
		var taken bool
		switch op {
		case OpJNIL, OpJNNIL:
			taken = (a.Tag == TagNil) == (op == OpJNIL)
		case OpJTAG, OpJNTAG:
			taken = (a.Tag == Tag(ins.TagArg)) == (op == OpJTAG)
		default:
			b, err := m.value(&ins.B)
			if err != nil {
				return err
			}
			switch op {
			case OpJEQW, OpJNEW:
				taken = (a == b) == (op == OpJEQW)
			case OpFJEQ, OpFJNE, OpFJLT, OpFJLE, OpFJGT, OpFJGE:
				taken = floatCondVal(op, a.Float(), b.Float())
			default:
				taken = intCondVal(op, a.Int(), b.Int())
			}
		}
		if taken {
			next = ins.target
		}
	case OpPOP:
		v, err := m.pop()
		if err != nil {
			return err
		}
		if ins.A.Mode != MNone {
			if err := m.setOperand(&ins.A, v); err != nil {
				return err
			}
		}
	case OpALLOC, OpCLOSE, OpENV:
		v, err := m.value(&ins.B)
		if err != nil {
			return err
		}
		// CLOSE and ENV initialize a block just allocated, with no
		// intervening allocation: the block is young, so the stores need
		// no write barrier (cf. heapWrite in gc.go).
		var r Word
		switch op {
		case OpALLOC:
			r = RawInt(int64(m.Alloc(int(v.Int()))))
		case OpCLOSE:
			a := m.Alloc(2)
			m.heap[a-HeapBase] = RawInt(ins.TagArg)
			m.heap[a-HeapBase+1] = v
			r = Ptr(TagClosure, a)
		default:
			n := int(ins.TagArg)
			a := m.Alloc(1 + n)
			m.heap[a-HeapBase] = v
			for i := 0; i < n; i++ {
				m.heap[a-HeapBase+1+uint64(i)] = NilWord
			}
			m.Stats.EnvAllocs++
			r = Ptr(TagEnv, a)
		}
		if err := m.setOperand(&ins.A, r); err != nil {
			return err
		}
	case OpCALL, OpCALLF, OpTCALL, OpTCALLF:
		fn, err := m.value(&ins.A)
		if err != nil {
			return err
		}
		if op == OpCALL || op == OpCALLF {
			return m.enterFrame(int(ins.TagArg), next, fn, op == OpCALLF)
		}
		m.Stats.TailCalls++
		return m.tailCall(int(ins.TagArg), fn)
	case OpRET:
		return m.ret()
	case OpSPECBIND:
		v, err := m.value(&ins.A)
		if err != nil {
			return err
		}
		m.bindStack = append(m.bindStack, bindEntry{sym: int(ins.TagArg), val: v})
		if p := m.prof; p != nil && len(m.bindStack) > p.BindHighWater {
			p.BindHighWater = len(m.bindStack)
		}
	case OpSPECUNBIND:
		n := int(ins.TagArg)
		if n > len(m.bindStack) {
			return &RuntimeError{PC: m.pc, Msg: "binding stack underflow"}
		}
		m.bindStack = m.bindStack[:len(m.bindStack)-n]
	case OpCATCH:
		tag, err := m.value(&ins.A)
		if err != nil {
			return err
		}
		m.catchStack = append(m.catchStack, catchFrame{
			tag: tag, sp: m.regs[RegSP], fp: m.regs[RegFP], ep: m.regs[RegEP],
			handler: ins.target, bindDepth: len(m.bindStack), fnDepth: m.prof.depth(),
		})
		if p := m.prof; p != nil && len(m.catchStack) > p.CatchHighWater {
			p.CatchHighWater = len(m.catchStack)
		}
	case OpENDCATCH:
		if len(m.catchStack) == 0 {
			return &RuntimeError{PC: m.pc, Msg: "catch stack underflow"}
		}
		m.catchStack = m.catchStack[:len(m.catchStack)-1]
	case OpCALLSQ:
		idx := int(ins.TagArg)
		if idx == SQPrim || idx == SQPrimFrame {
			// lowerSQ bound every well-formed gateway.
			return &RuntimeError{PC: m.pc, Msg: fmt.Sprintf("bad operand for SQ routine %d", idx)}
		}
		m.Stats.SQCalls++
		m.chargeSQ(idx)
		jumped, err := m.callSQ(idx, &ins.B, &ins.C)
		if err != nil || jumped {
			return err
		}
	default:
		return &RuntimeError{PC: m.pc, Msg: "bad opcode " + op.String()}
	}
	m.pc = next
	return nil
}

// setOperand writes w to operand o: a register, or the memory word its
// effective address names.
func (m *Machine) setOperand(o *Operand, w Word) error {
	switch o.Mode {
	case MReg:
		m.regs[o.Base] = w
		return nil
	case MMem, MAbs, MIdx:
		a, _ := m.effaddr(o)
		return m.store(a, w)
	}
	return &RuntimeError{PC: m.pc, Msg: "unwritable operand"}
}
