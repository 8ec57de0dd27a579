package s1

// Pre-decoded execution (DESIGN.md §10). The assembler's []Instr stays
// the architectural program — listings, the profiler, diagnostics and the
// GC's immediate scan all read it — but the machine never interprets it
// directly. Each instruction is decoded once, when its function is
// installed, into a closure with the operand kinds resolved (register
// number, immediate word, or effective-address recipe held as captured
// fields) and its cycle cost baked in, so the per-step work of the old
// mega-switch — opcode dispatch, a cycleCost map lookup, and a Mode
// switch per operand access — disappears from the hot loop.
//
// The decoded stream decBase is parallel to Code, indexed by original PC:
// back-mapping from a decoded entry to its architectural PC is the
// identity. Run dispatches from dec, a copy of decBase whose block-head
// entries the tier overwrites when it promotes a function (tier.go).
//
// Invariant: a decoded closure is entered with m.pc equal to its own
// index, and on fall-through it leaves m.pc at index+1. Run maintains
// this by dispatching on m.pc; lowered blocks maintain it by
// materializing m.pc before anything that can observe it. Errors, GC
// safepoints and SQ routines therefore see exactly the m.pc the old
// interpreter showed them.

// dexec executes one decoded instruction or lowered block.
type dexec func(m *Machine) error

// dinstr is one decoded-stream entry: the executor plus an upper bound
// on the original instructions one dispatch can retire (1 for base
// entries, the function's length for lowered block heads). Run uses n
// to keep -max-steps accounting exact.
type dinstr struct {
	run dexec
	n   int32
}

// tick retires one architectural instruction on the meters; the decoded
// closures call it exactly once per original instruction, which keeps
// Stats and profiles identical between plain and tiered dispatch.
func (m *Machine) tick(op Op, cost int64) {
	m.Stats.Instrs++
	m.Stats.Cycles += cost
	if p := m.prof; p != nil {
		p.note(op, cost)
	}
}

// ensureDecoded brings the decoded stream up to date with Code. Cheap
// when nothing changed (one length compare).
func (m *Machine) ensureDecoded() {
	if len(m.decBase) < len(m.Code) {
		m.decodeRange(len(m.decBase), len(m.Code))
	}
}

// decodeRange decodes Code[lo:hi) and extends the dispatch stream.
func (m *Machine) decodeRange(lo, hi int) {
	for pc := lo; pc < hi; pc++ {
		m.decBase = append(m.decBase, decodeOne(pc, &m.Code[pc]))
	}
	m.dec = append(m.dec, m.decBase[lo:hi]...)
}

// decodeOne builds the executor for one instruction. The builders must
// capture operand fields by value, never the *Instr itself: Code's
// backing array moves when later functions are appended.
func decodeOne(pc int, ins *Instr) dinstr {
	if int(ins.Op) < NumOps {
		if b := decodeTab[ins.Op]; b != nil {
			return dinstr{run: b(pc, ins), n: 1}
		}
	}
	op := ins.Op
	return dinstr{n: 1, run: func(m *Machine) error {
		m.tick(op, 0)
		return &RuntimeError{PC: m.pc, Msg: "bad opcode " + op.String()}
	}}
}

// decodeTab maps opcodes to closure builders (the "function table indexed
// by decoded op"); nil entries fall back to the bad-opcode executor.
var decodeTab [NumOps]func(pc int, ins *Instr) dexec

func init() {
	one := func(ops []Op, b func(pc int, ins *Instr) dexec) {
		for _, op := range ops {
			decodeTab[op] = b
		}
	}
	decodeTab[OpNOP] = decNOP
	decodeTab[OpHALT] = decHALT
	decodeTab[OpMOV] = decMOV
	decodeTab[OpMOVP] = decMOVP
	decodeTab[OpTAG] = decTAG
	one([]Op{OpADD, OpSUB, OpMULT, OpDIV, OpASH}, decIntArith)
	one([]Op{OpFADD, OpFSUB, OpFMULT, OpFDIV, OpFMAX, OpFMIN}, decFloatArith)
	one([]Op{OpFSIN, OpFCOS, OpFSQRT, OpFATAN, OpFEXP, OpFLOG, OpFABS,
		OpFNEG, OpFLT, OpFIX}, decUnary)
	decodeTab[OpJMP] = decJMP
	one([]Op{OpJEQ, OpJNE, OpJLT, OpJLE, OpJGT, OpJGE}, decIntJump)
	one([]Op{OpFJEQ, OpFJNE, OpFJLT, OpFJLE, OpFJGT, OpFJGE}, decFloatJump)
	one([]Op{OpJNIL, OpJNNIL}, decNilJump)
	one([]Op{OpJTAG, OpJNTAG}, decTagJump)
	one([]Op{OpJEQW, OpJNEW}, decWordJump)
	decodeTab[OpPUSH] = decPUSH
	decodeTab[OpPOP] = decPOP
	decodeTab[OpALLOC] = decALLOC
	one([]Op{OpCALL, OpCALLF}, decCall)
	one([]Op{OpTCALL, OpTCALLF}, decTailCall)
	decodeTab[OpRET] = decRET
	decodeTab[OpCLOSE] = decCLOSE
	decodeTab[OpENV] = decENV
	decodeTab[OpSPECBIND] = decSPECBIND
	decodeTab[OpSPECUNBIND] = decSPECUNBIND
	decodeTab[OpCATCH] = decCATCH
	decodeTab[OpENDCATCH] = decENDCATCH
	decodeTab[OpCALLSQ] = decCALLSQ
}

// loadFn reads an operand whose addressing mode was resolved at decode
// time; storeFn writes one. Errors report m.pc, which the entry invariant
// keeps equal to the owning instruction's index.
type (
	loadFn  func(m *Machine) (Word, error)
	storeFn func(m *Machine, w Word) error
	addrFn  func(m *Machine) (uint64, error)
)

func mkLoad(o Operand) loadFn {
	switch o.Mode {
	case MReg:
		r := o.Base
		return func(m *Machine) (Word, error) { return m.regs[r], nil }
	case MImm:
		w := o.Imm
		return func(m *Machine) (Word, error) { return w, nil }
	case MMem:
		r, off := o.Base, o.Off
		return func(m *Machine) (Word, error) {
			return m.load(uint64(int64(m.regs[r].Bits) + off))
		}
	case MAbs:
		addr := uint64(o.Off)
		return func(m *Machine) (Word, error) { return m.load(addr) }
	case MIdx:
		base, index, shift, off := o.Base, o.Index, o.Shift, o.Off
		return func(m *Machine) (Word, error) {
			a := off
			if base != NoReg {
				a += int64(m.regs[base].Bits)
			}
			if index != NoReg {
				a += int64(m.regs[index].Bits) << shift
			}
			return m.load(uint64(a))
		}
	}
	return func(m *Machine) (Word, error) {
		return Word{}, &RuntimeError{PC: m.pc, Msg: "unreadable operand"}
	}
}

func mkStore(o Operand) storeFn {
	switch o.Mode {
	case MReg:
		r := o.Base
		return func(m *Machine, w Word) error { m.regs[r] = w; return nil }
	case MMem:
		r, off := o.Base, o.Off
		return func(m *Machine, w Word) error {
			return m.store(uint64(int64(m.regs[r].Bits)+off), w)
		}
	case MAbs:
		addr := uint64(o.Off)
		return func(m *Machine, w Word) error { return m.store(addr, w) }
	case MIdx:
		base, index, shift, off := o.Base, o.Index, o.Shift, o.Off
		return func(m *Machine, w Word) error {
			a := off
			if base != NoReg {
				a += int64(m.regs[base].Bits)
			}
			if index != NoReg {
				a += int64(m.regs[index].Bits) << shift
			}
			return m.store(uint64(a), w)
		}
	}
	return func(m *Machine, w Word) error {
		return &RuntimeError{PC: m.pc, Msg: "unwritable operand"}
	}
}

func mkAddr(o Operand) addrFn {
	switch o.Mode {
	case MMem:
		r, off := o.Base, o.Off
		return func(m *Machine) (uint64, error) {
			return uint64(int64(m.regs[r].Bits) + off), nil
		}
	case MAbs:
		addr := uint64(o.Off)
		return func(m *Machine) (uint64, error) { return addr, nil }
	case MIdx:
		base, index, shift, off := o.Base, o.Index, o.Shift, o.Off
		return func(m *Machine) (uint64, error) {
			a := off
			if base != NoReg {
				a += int64(m.regs[base].Bits)
			}
			if index != NoReg {
				a += int64(m.regs[index].Bits) << shift
			}
			return uint64(a), nil
		}
	}
	return func(m *Machine) (uint64, error) {
		return 0, &RuntimeError{PC: m.pc, Msg: "operand has no effective address"}
	}
}

func decNOP(pc int, ins *Instr) dexec {
	cost, next := cycleCost[OpNOP], pc+1
	return func(m *Machine) error {
		m.tick(OpNOP, cost)
		m.pc = next
		return nil
	}
}

func decHALT(pc int, ins *Instr) dexec {
	cost := cycleCost[OpHALT]
	return func(m *Machine) error {
		m.tick(OpHALT, cost)
		m.halted = true
		return nil
	}
}

func decMOV(pc int, ins *Instr) dexec {
	cost, next := cycleCost[OpMOV], pc+1
	if ins.A.Mode == MReg {
		dst := ins.A.Base
		switch ins.B.Mode {
		case MReg:
			src := ins.B.Base
			if src == dst {
				// MOV-to-self: no data movement, but the meters still
				// retire it as an architectural MOV.
				return func(m *Machine) error {
					m.tick(OpMOV, cost)
					m.Stats.Movs++
					m.pc = next
					return nil
				}
			}
			return func(m *Machine) error {
				m.tick(OpMOV, cost)
				m.regs[dst] = m.regs[src]
				m.Stats.Movs++
				m.pc = next
				return nil
			}
		case MImm:
			w := ins.B.Imm
			return func(m *Machine) error {
				m.tick(OpMOV, cost)
				m.regs[dst] = w
				m.Stats.Movs++
				m.pc = next
				return nil
			}
		case MMem:
			base, off := ins.B.Base, ins.B.Off
			return func(m *Machine) error {
				m.tick(OpMOV, cost)
				v, err := m.load(uint64(int64(m.regs[base].Bits) + off))
				if err != nil {
					return err
				}
				m.regs[dst] = v
				m.Stats.Movs++
				m.pc = next
				return nil
			}
		}
		ld := mkLoad(ins.B)
		return func(m *Machine) error {
			m.tick(OpMOV, cost)
			v, err := ld(m)
			if err != nil {
				return err
			}
			m.regs[dst] = v
			m.Stats.Movs++
			m.pc = next
			return nil
		}
	}
	ld, st := mkLoad(ins.B), mkStore(ins.A)
	return func(m *Machine) error {
		m.tick(OpMOV, cost)
		v, err := ld(m)
		if err != nil {
			return err
		}
		if err := st(m, v); err != nil {
			return err
		}
		m.Stats.Movs++
		m.pc = next
		return nil
	}
}

func decMOVP(pc int, ins *Instr) dexec {
	cost, next := cycleCost[OpMOVP], pc+1
	ad, st := mkAddr(ins.B), mkStore(ins.A)
	tag := Tag(ins.TagArg)
	return func(m *Machine) error {
		m.tick(OpMOVP, cost)
		a, err := ad(m)
		if err != nil {
			return err
		}
		if err := st(m, Ptr(tag, a)); err != nil {
			return err
		}
		m.pc = next
		return nil
	}
}

func decTAG(pc int, ins *Instr) dexec {
	cost, next := cycleCost[OpTAG], pc+1
	ld, st := mkLoad(ins.B), mkStore(ins.A)
	return func(m *Machine) error {
		m.tick(OpTAG, cost)
		v, err := ld(m)
		if err != nil {
			return err
		}
		if err := st(m, RawInt(int64(v.Tag))); err != nil {
			return err
		}
		m.pc = next
		return nil
	}
}

func decIntArith(pc int, ins *Instr) dexec {
	op := ins.Op
	cost, next := cycleCost[op], pc+1
	// dst := dst op B, or dst := B op C (2½-address forms).
	var lx, ly loadFn
	if ins.C.Mode == MNone {
		lx, ly = mkLoad(ins.A), mkLoad(ins.B)
	} else {
		lx, ly = mkLoad(ins.B), mkLoad(ins.C)
	}
	st := mkStore(ins.A)
	// Loop-counter shape: reg := reg ± immediate.
	if ins.C.Mode == MNone && ins.A.Mode == MReg && ins.B.Mode == MImm &&
		(op == OpADD || op == OpSUB) {
		r, k := ins.A.Base, ins.B.Imm.Int()
		if op == OpSUB {
			k = -k
		}
		return func(m *Machine) error {
			m.tick(op, cost)
			m.regs[r] = RawInt(m.regs[r].Int() + k)
			m.pc = next
			return nil
		}
	}
	switch op {
	case OpDIV:
		return func(m *Machine) error {
			m.tick(op, cost)
			x, err := lx(m)
			if err != nil {
				return err
			}
			y, err := ly(m)
			if err != nil {
				return err
			}
			if y.Int() == 0 {
				return &RuntimeError{PC: m.pc, Msg: "integer division by zero"}
			}
			if err := st(m, RawInt(x.Int()/y.Int())); err != nil {
				return err
			}
			m.pc = next
			return nil
		}
	case OpASH:
		return func(m *Machine) error {
			m.tick(op, cost)
			x, err := lx(m)
			if err != nil {
				return err
			}
			y, err := ly(m)
			if err != nil {
				return err
			}
			var r int64
			if s := y.Int(); s >= 0 {
				r = x.Int() << uint(s&63)
			} else {
				r = x.Int() >> uint((-s)&63)
			}
			if err := st(m, RawInt(r)); err != nil {
				return err
			}
			m.pc = next
			return nil
		}
	}
	var f func(x, y int64) int64
	switch op {
	case OpADD:
		f = func(x, y int64) int64 { return x + y }
	case OpSUB:
		f = func(x, y int64) int64 { return x - y }
	case OpMULT:
		f = func(x, y int64) int64 { return x * y }
	}
	return func(m *Machine) error {
		m.tick(op, cost)
		x, err := lx(m)
		if err != nil {
			return err
		}
		y, err := ly(m)
		if err != nil {
			return err
		}
		if err := st(m, RawInt(f(x.Int(), y.Int()))); err != nil {
			return err
		}
		m.pc = next
		return nil
	}
}

func decFloatArith(pc int, ins *Instr) dexec {
	op := ins.Op
	cost, next := cycleCost[op], pc+1
	var lx, ly loadFn
	if ins.C.Mode == MNone {
		lx, ly = mkLoad(ins.A), mkLoad(ins.B)
	} else {
		lx, ly = mkLoad(ins.B), mkLoad(ins.C)
	}
	st := mkStore(ins.A)
	var f func(x, y float64) float64
	switch op {
	case OpFADD:
		f = func(x, y float64) float64 { return x + y }
	case OpFSUB:
		f = func(x, y float64) float64 { return x - y }
	case OpFMULT:
		f = func(x, y float64) float64 { return x * y }
	case OpFDIV:
		f = func(x, y float64) float64 { return x / y }
	case OpFMAX:
		f = fmax
	case OpFMIN:
		f = fmin
	}
	return func(m *Machine) error {
		m.tick(op, cost)
		x, err := lx(m)
		if err != nil {
			return err
		}
		y, err := ly(m)
		if err != nil {
			return err
		}
		if err := st(m, RawFloat(f(x.Float(), y.Float()))); err != nil {
			return err
		}
		m.pc = next
		return nil
	}
}

func decUnary(pc int, ins *Instr) dexec {
	op := ins.Op
	cost, next := cycleCost[op], pc+1
	ld, st := mkLoad(ins.B), mkStore(ins.A)
	var f func(v Word) Word
	switch op {
	case OpFSIN:
		f = func(v Word) Word { return RawFloat(sinCycles(v.Float())) }
	case OpFCOS:
		f = func(v Word) Word { return RawFloat(cosCycles(v.Float())) }
	case OpFSQRT:
		f = func(v Word) Word { return RawFloat(sqrt(v.Float())) }
	case OpFATAN:
		f = func(v Word) Word { return RawFloat(atan(v.Float())) }
	case OpFEXP:
		f = func(v Word) Word { return RawFloat(exp(v.Float())) }
	case OpFLOG:
		f = func(v Word) Word { return RawFloat(logf(v.Float())) }
	case OpFABS:
		f = func(v Word) Word { return RawFloat(fabs(v.Float())) }
	case OpFNEG:
		f = func(v Word) Word { return RawFloat(-v.Float()) }
	case OpFLT:
		f = func(v Word) Word { return RawFloat(float64(v.Int())) }
	case OpFIX:
		f = func(v Word) Word { return RawInt(int64(v.Float())) }
	}
	return func(m *Machine) error {
		m.tick(op, cost)
		v, err := ld(m)
		if err != nil {
			return err
		}
		if err := st(m, f(v)); err != nil {
			return err
		}
		m.pc = next
		return nil
	}
}

func decJMP(pc int, ins *Instr) dexec {
	cost, target := cycleCost[OpJMP], ins.target
	return func(m *Machine) error {
		m.tick(OpJMP, cost)
		m.pc = target
		return nil
	}
}

func intCondFn(op Op) func(x, y int64) bool {
	switch op {
	case OpJEQ:
		return func(x, y int64) bool { return x == y }
	case OpJNE:
		return func(x, y int64) bool { return x != y }
	case OpJLT:
		return func(x, y int64) bool { return x < y }
	case OpJLE:
		return func(x, y int64) bool { return x <= y }
	case OpJGT:
		return func(x, y int64) bool { return x > y }
	}
	return func(x, y int64) bool { return x >= y }
}

func floatCondFn(op Op) func(x, y float64) bool {
	switch op {
	case OpFJEQ:
		return func(x, y float64) bool { return x == y }
	case OpFJNE:
		return func(x, y float64) bool { return x != y }
	case OpFJLT:
		return func(x, y float64) bool { return x < y }
	case OpFJLE:
		return func(x, y float64) bool { return x <= y }
	case OpFJGT:
		return func(x, y float64) bool { return x > y }
	}
	return func(x, y float64) bool { return x >= y }
}

func decIntJump(pc int, ins *Instr) dexec {
	op := ins.Op
	cost, next, target := cycleCost[op], pc+1, ins.target
	f := intCondFn(op)
	// Compare-register-to-immediate dominates loop exits and arity checks.
	if ins.A.Mode == MReg && ins.B.Mode == MImm {
		r, k := ins.A.Base, ins.B.Imm.Int()
		return func(m *Machine) error {
			m.tick(op, cost)
			if f(m.regs[r].Int(), k) {
				m.pc = target
			} else {
				m.pc = next
			}
			return nil
		}
	}
	lx, ly := mkLoad(ins.A), mkLoad(ins.B)
	return func(m *Machine) error {
		m.tick(op, cost)
		x, err := lx(m)
		if err != nil {
			return err
		}
		y, err := ly(m)
		if err != nil {
			return err
		}
		if f(x.Int(), y.Int()) {
			m.pc = target
		} else {
			m.pc = next
		}
		return nil
	}
}

func decFloatJump(pc int, ins *Instr) dexec {
	op := ins.Op
	cost, next, target := cycleCost[op], pc+1, ins.target
	f := floatCondFn(op)
	lx, ly := mkLoad(ins.A), mkLoad(ins.B)
	return func(m *Machine) error {
		m.tick(op, cost)
		x, err := lx(m)
		if err != nil {
			return err
		}
		y, err := ly(m)
		if err != nil {
			return err
		}
		if f(x.Float(), y.Float()) {
			m.pc = target
		} else {
			m.pc = next
		}
		return nil
	}
}

func decNilJump(pc int, ins *Instr) dexec {
	op := ins.Op
	cost, next, target := cycleCost[op], pc+1, ins.target
	want := op == OpJNIL
	if ins.A.Mode == MReg {
		r := ins.A.Base
		return func(m *Machine) error {
			m.tick(op, cost)
			if (m.regs[r].Tag == TagNil) == want {
				m.pc = target
			} else {
				m.pc = next
			}
			return nil
		}
	}
	ld := mkLoad(ins.A)
	return func(m *Machine) error {
		m.tick(op, cost)
		v, err := ld(m)
		if err != nil {
			return err
		}
		if (v.Tag == TagNil) == want {
			m.pc = target
		} else {
			m.pc = next
		}
		return nil
	}
}

func decTagJump(pc int, ins *Instr) dexec {
	op := ins.Op
	cost, next, target := cycleCost[op], pc+1, ins.target
	want := op == OpJTAG
	tag := Tag(ins.TagArg)
	ld := mkLoad(ins.A)
	return func(m *Machine) error {
		m.tick(op, cost)
		v, err := ld(m)
		if err != nil {
			return err
		}
		if (v.Tag == tag) == want {
			m.pc = target
		} else {
			m.pc = next
		}
		return nil
	}
}

func decWordJump(pc int, ins *Instr) dexec {
	op := ins.Op
	cost, next, target := cycleCost[op], pc+1, ins.target
	want := op == OpJEQW
	lx, ly := mkLoad(ins.A), mkLoad(ins.B)
	return func(m *Machine) error {
		m.tick(op, cost)
		x, err := lx(m)
		if err != nil {
			return err
		}
		y, err := ly(m)
		if err != nil {
			return err
		}
		if (x == y) == want {
			m.pc = target
		} else {
			m.pc = next
		}
		return nil
	}
}

func decPUSH(pc int, ins *Instr) dexec {
	cost, next := cycleCost[OpPUSH], pc+1
	switch ins.A.Mode {
	case MReg:
		r := ins.A.Base
		return func(m *Machine) error {
			m.tick(OpPUSH, cost)
			if err := m.push(m.regs[r]); err != nil {
				return err
			}
			m.pc = next
			return nil
		}
	case MImm:
		w := ins.A.Imm
		return func(m *Machine) error {
			m.tick(OpPUSH, cost)
			if err := m.push(w); err != nil {
				return err
			}
			m.pc = next
			return nil
		}
	}
	ld := mkLoad(ins.A)
	return func(m *Machine) error {
		m.tick(OpPUSH, cost)
		v, err := ld(m)
		if err != nil {
			return err
		}
		if err := m.push(v); err != nil {
			return err
		}
		m.pc = next
		return nil
	}
}

func decPOP(pc int, ins *Instr) dexec {
	cost, next := cycleCost[OpPOP], pc+1
	if ins.A.Mode == MNone {
		return func(m *Machine) error {
			m.tick(OpPOP, cost)
			if _, err := m.pop(); err != nil {
				return err
			}
			m.pc = next
			return nil
		}
	}
	st := mkStore(ins.A)
	return func(m *Machine) error {
		m.tick(OpPOP, cost)
		v, err := m.pop()
		if err != nil {
			return err
		}
		if err := st(m, v); err != nil {
			return err
		}
		m.pc = next
		return nil
	}
}

func decALLOC(pc int, ins *Instr) dexec {
	cost, next := cycleCost[OpALLOC], pc+1
	ld, st := mkLoad(ins.B), mkStore(ins.A)
	return func(m *Machine) error {
		m.tick(OpALLOC, cost)
		n, err := ld(m)
		if err != nil {
			return err
		}
		base := m.Alloc(int(n.Int()))
		if err := st(m, RawInt(int64(base))); err != nil {
			return err
		}
		m.pc = next
		return nil
	}
}

func decCall(pc int, ins *Instr) dexec {
	op := ins.Op
	cost, next := cycleCost[op], pc+1
	nargs, fast := int(ins.TagArg), op == OpCALLF
	ld := mkLoad(ins.A)
	return func(m *Machine) error {
		m.tick(op, cost)
		fn, err := ld(m)
		if err != nil {
			return err
		}
		return m.enterFrame(nargs, next, fn, fast)
	}
}

func decTailCall(pc int, ins *Instr) dexec {
	op := ins.Op
	cost := cycleCost[op]
	k := int(ins.TagArg)
	ld := mkLoad(ins.A)
	return func(m *Machine) error {
		m.tick(op, cost)
		fn, err := ld(m)
		if err != nil {
			return err
		}
		m.Stats.TailCalls++
		return m.tailCall(k, fn)
	}
}

func decRET(pc int, ins *Instr) dexec {
	cost := cycleCost[OpRET]
	return func(m *Machine) error {
		m.tick(OpRET, cost)
		return m.ret()
	}
}

func decCLOSE(pc int, ins *Instr) dexec {
	cost, next := cycleCost[OpCLOSE], pc+1
	fnIdx := ins.TagArg
	ld, st := mkLoad(ins.B), mkStore(ins.A)
	return func(m *Machine) error {
		m.tick(OpCLOSE, cost)
		env, err := ld(m)
		if err != nil {
			return err
		}
		// Direct initialization of a block just allocated, with no
		// intervening allocation: the block is young, so the stores need
		// no write barrier (cf. heapWrite in gc.go).
		a := m.Alloc(2)
		m.heap[a-HeapBase] = RawInt(fnIdx)
		m.heap[a-HeapBase+1] = env
		if err := st(m, Ptr(TagClosure, a)); err != nil {
			return err
		}
		m.pc = next
		return nil
	}
}

func decENV(pc int, ins *Instr) dexec {
	cost, next := cycleCost[OpENV], pc+1
	n := int(ins.TagArg)
	ld, st := mkLoad(ins.B), mkStore(ins.A)
	return func(m *Machine) error {
		m.tick(OpENV, cost)
		parent, err := ld(m)
		if err != nil {
			return err
		}
		// Barrier-free fresh-block initialization, as in decCLOSE.
		a := m.Alloc(1 + n)
		m.heap[a-HeapBase] = parent
		for i := 0; i < n; i++ {
			m.heap[a-HeapBase+1+uint64(i)] = NilWord
		}
		m.Stats.EnvAllocs++
		if err := st(m, Ptr(TagEnv, a)); err != nil {
			return err
		}
		m.pc = next
		return nil
	}
}

func decSPECBIND(pc int, ins *Instr) dexec {
	cost, next := cycleCost[OpSPECBIND], pc+1
	sym := int(ins.TagArg)
	ld := mkLoad(ins.A)
	return func(m *Machine) error {
		m.tick(OpSPECBIND, cost)
		v, err := ld(m)
		if err != nil {
			return err
		}
		m.bindStack = append(m.bindStack, bindEntry{sym: sym, val: v})
		if p := m.prof; p != nil && len(m.bindStack) > p.BindHighWater {
			p.BindHighWater = len(m.bindStack)
		}
		m.pc = next
		return nil
	}
}

func decSPECUNBIND(pc int, ins *Instr) dexec {
	cost, next := cycleCost[OpSPECUNBIND], pc+1
	n := int(ins.TagArg)
	return func(m *Machine) error {
		m.tick(OpSPECUNBIND, cost)
		if n > len(m.bindStack) {
			return &RuntimeError{PC: m.pc, Msg: "binding stack underflow"}
		}
		m.bindStack = m.bindStack[:len(m.bindStack)-n]
		m.pc = next
		return nil
	}
}

func decCATCH(pc int, ins *Instr) dexec {
	cost, next := cycleCost[OpCATCH], pc+1
	target := ins.target
	ld := mkLoad(ins.A)
	return func(m *Machine) error {
		m.tick(OpCATCH, cost)
		tag, err := ld(m)
		if err != nil {
			return err
		}
		m.catchStack = append(m.catchStack, catchFrame{
			tag: tag, sp: m.regs[RegSP], fp: m.regs[RegFP], ep: m.regs[RegEP],
			handler: target, bindDepth: len(m.bindStack),
			fnDepth: m.prof.depth(), tierDepth: m.tier.tdepth(),
		})
		if p := m.prof; p != nil && len(m.catchStack) > p.CatchHighWater {
			p.CatchHighWater = len(m.catchStack)
		}
		m.pc = next
		return nil
	}
}

func decENDCATCH(pc int, ins *Instr) dexec {
	cost, next := cycleCost[OpENDCATCH], pc+1
	return func(m *Machine) error {
		m.tick(OpENDCATCH, cost)
		if len(m.catchStack) == 0 {
			return &RuntimeError{PC: m.pc, Msg: "catch stack underflow"}
		}
		m.catchStack = m.catchStack[:len(m.catchStack)-1]
		m.pc = next
		return nil
	}
}

func decCALLSQ(pc int, ins *Instr) dexec {
	cost, next := cycleCost[OpCALLSQ], pc+1
	idx := int(ins.TagArg)
	// callSQ reads operands off the instruction; capture a copy, not the
	// *Instr — Code's backing array is reallocated by later appends.
	insCopy := *ins
	return func(m *Machine) error {
		m.tick(OpCALLSQ, cost)
		m.Stats.SQCalls++
		jumped, err := m.callSQ(idx, &insCopy)
		if err != nil {
			return err
		}
		if !jumped {
			m.pc = next
		}
		return nil
	}
}
