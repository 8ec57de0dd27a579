package s1

// Tiered execution (DESIGN.md §12). The machine counts every function
// invocation with cheap always-on per-function counters (the profiler's
// shadow-stack attribution idea, without the collapsed-stack machinery);
// when a function crosses the hot threshold it is re-optimized in place:
//
//   - trace re-fusion: the function's region of the fused overlay is
//     rebuilt with unbounded basic-block superinstructions. Block
//     boundaries are the jump targets discovered from the actual code
//     (branch/CATCH targets, the return points after CALL/CALLF and
//     SQApplyList) plus any landing PCs observed at run time, instead of
//     the static fuser's 4-instruction cap.
//   - block lowering: the whole function is lowered into one compact
//     ops array run by a switch-loop trace executor (runBlock), with the
//     step/cycle/MOV meters accumulated in Go locals and spilled to
//     Machine state only at trace exits, calls, faults, and allocation
//     safepoints. A taken jump whose target lies inside the function
//     continues in the executor (so loops never return to Run's dispatch
//     loop while hot), bounded by blockChunk and a StepLimit guard at
//     every such continuation; a not-taken conditional branch falls
//     through without spilling at all. GC, Interrupt, -max-steps and
//     -profile all see a consistent machine: register state is never
//     cached across instructions (the collector roots m.regs), m.pc is
//     materialized before any fallible or allocating operation, and the
//     profiler is fed per original instruction exactly as tick would.
//   - inline caching: hot CALL/CALLF/TCALL/TCALLF sites bind their
//     resolved callee (validated against the symbol's function cell, so
//     SetSymbolFunction rebinds invalidate naturally), and hot numeric
//     CALLSQ sites bind their routine's fastNum fast path directly into
//     the lowered block.
//
// Correctness invariants (shared with fuse.go, extended):
//   - Each straight-line trace segment retires at most len(fn)
//     architectural instructions before the next jump check. Run's d.n
//     overshoot guard establishes Stats.Instrs+len(fn) <= StepLimit at
//     entry, and every internal-jump continuation re-checks it, so
//     -max-steps trips at the exact original-instruction count.
//   - Only block-head decFused entries change, in place. Control
//     transfers landing mid-block dispatch that PC's base entry (identity
//     back-mapping); ret/throw report such landings to noteLanding, which
//     re-fuses the function with the landing as a boundary.
//   - Re-optimizing a function that is live on the call stack (or
//     currently executing) is safe: executing closures are value copies
//     of decFused entries, and installs happen only at instruction
//     boundaries (calls), so the running block finishes on the old code.
//   - Promotion never touches Stats: tier counters live on the engine,
//     so differential oracles comparing Stats across -notier hold.

// DefaultHotThreshold is the invocation count at which a function is
// re-optimized. Small enough that benchmark drivers heat up quickly,
// large enough that one-shot top-level forms never pay for promotion.
const DefaultHotThreshold = 64

// tierFn is one function's always-on execution counters.
type tierFn struct {
	calls  int64
	cycles int64 // inclusive cycles attributed at frame exit
	hot    bool
}

// tierFrame mirrors one machine call frame for cycle attribution.
type tierFrame struct {
	fn  int32
	cyc int64 // Stats.Cycles at frame entry
}

// callCache is one call site's inline cache: the resolved callee,
// validated against the word it was resolved from (the symbol's function
// cell, or the callee register's value), so rebinds invalidate it.
type callCache struct {
	valid bool
	cell  Word // the observed function-cell / register word
	fn    int32
	entry int32
}

// tierEngine is the machine's tiered-execution state.
type tierEngine struct {
	threshold int64 // <= 0: promote at install time ("forced hot")
	fns       []tierFn
	stack     []tierFrame
	// landings are PCs where a control transfer was observed to land in
	// the middle of a lowered block; re-fusion splits there.
	landings map[int]bool

	promotions    int64
	refusions     int64
	loweredBlocks int64
	loweredInstrs int64
	cacheFills    int64
}

// TierStats is a snapshot of the tier engine's counters.
type TierStats struct {
	Enabled       bool
	Threshold     int64
	HotFunctions  int64
	Promotions    int64
	Refusions     int64
	LoweredBlocks int64
	LoweredInstrs int64
	CacheFills    int64
}

// TierFnStat is one function's hot-path counters (debug endpoints).
type TierFnStat struct {
	Name   string
	Calls  int64
	Cycles int64
	Hot    bool
}

// TierStats snapshots the tier engine's counters; zero when -notier.
func (m *Machine) TierStats() TierStats {
	t := m.tier
	if t == nil {
		return TierStats{}
	}
	s := TierStats{
		Enabled:       true,
		Threshold:     t.threshold,
		Promotions:    t.promotions,
		Refusions:     t.refusions,
		LoweredBlocks: t.loweredBlocks,
		LoweredInstrs: t.loweredInstrs,
		CacheFills:    t.cacheFills,
	}
	for i := range t.fns {
		if t.fns[i].hot {
			s.HotFunctions++
		}
	}
	return s
}

// TierFunctions returns per-function invocation/cycle counters sorted by
// function index; nil when -notier.
func (m *Machine) TierFunctions() []TierFnStat {
	t := m.tier
	if t == nil {
		return nil
	}
	out := make([]TierFnStat, 0, len(t.fns))
	for i := range t.fns {
		f := &t.fns[i]
		if f.calls == 0 {
			continue
		}
		out = append(out, TierFnStat{
			Name: m.Funcs[i].Name, Calls: f.calls, Cycles: f.cycles, Hot: f.hot,
		})
	}
	return out
}

// SetNoTier disables tiered execution and rolls every promoted function
// back to the static fused overlay.
func (m *Machine) SetNoTier() {
	if m.tier == nil {
		return
	}
	m.tier = nil
	m.tierHeads = nil
	if !m.noFuse && len(m.decBase) > 0 {
		m.decFused = append([]dinstr(nil), m.decBase...)
		m.fuseGroups = nil
		m.fuseRange(0, len(m.decBase))
	}
}

// SetHotThreshold sets the invocation count at which a function is
// re-optimized; n <= 0 promotes every function as soon as it is
// installed ("forced hot", -hot-threshold=0). Re-enables tiering if it
// was off.
func (m *Machine) SetHotThreshold(n int64) {
	if m.tier == nil {
		m.tier = &tierEngine{}
	}
	m.tier.threshold = n
	if n <= 0 {
		m.tier.ensure(len(m.Funcs))
		for i := range m.Funcs {
			m.tier.promote(m, i)
		}
	}
}

func (t *tierEngine) ensure(n int) {
	for len(t.fns) < n {
		t.fns = append(t.fns, tierFn{})
	}
}

// tdepth is the tier shadow-stack depth, nil-safe (catchFrame capture).
func (t *tierEngine) tdepth() int {
	if t == nil {
		return 0
	}
	return len(t.stack)
}

// onCall mirrors enterFrame on the tier shadow stack and triggers
// promotion when the callee crosses the threshold.
func (t *tierEngine) onCall(m *Machine, idx int) {
	t.ensure(len(m.Funcs))
	f := &t.fns[idx]
	f.calls++
	t.stack = append(t.stack, tierFrame{fn: int32(idx), cyc: m.Stats.Cycles})
	if !f.hot && f.calls >= t.threshold {
		t.promote(m, idx)
	}
}

// onTail mirrors tailCall: the departing function is charged and its
// frame slot is reused by the callee.
func (t *tierEngine) onTail(m *Machine, idx int) {
	t.ensure(len(m.Funcs))
	f := &t.fns[idx]
	f.calls++
	if n := len(t.stack); n > 0 {
		fr := &t.stack[n-1]
		t.fns[fr.fn].cycles += m.Stats.Cycles - fr.cyc
		fr.fn, fr.cyc = int32(idx), m.Stats.Cycles
	} else {
		t.stack = append(t.stack, tierFrame{fn: int32(idx), cyc: m.Stats.Cycles})
	}
	if !f.hot && f.calls >= t.threshold {
		t.promote(m, idx)
	}
}

// onRet pops the tier frame, attributing its inclusive cycles.
func (t *tierEngine) onRet(m *Machine) {
	if n := len(t.stack); n > 0 {
		fr := t.stack[n-1]
		t.stack = t.stack[:n-1]
		t.fns[fr.fn].cycles += m.Stats.Cycles - fr.cyc
	}
}

// truncate unwinds the tier shadow stack to depth (a non-local THROW).
func (t *tierEngine) truncate(m *Machine, depth int) {
	for len(t.stack) > depth {
		fr := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		t.fns[fr.fn].cycles += m.Stats.Cycles - fr.cyc
	}
}

// restart resets the shadow stack for a fresh top-level call.
func (t *tierEngine) restart() { t.stack = t.stack[:0] }

// promote marks a function hot and installs its lowered blocks.
func (t *tierEngine) promote(m *Machine, idx int) {
	if !t.fns[idx].hot {
		t.fns[idx].hot = true
		t.promotions++
		if m.OnEvent != nil {
			m.OnEvent("tier-promote", m.Funcs[idx].Name, 0)
		}
	}
	t.install(m, idx)
}

// noteLanding records a control transfer observed to land inside a
// lowered block (m.pc is mid-block) and re-fuses the owning function
// with the landing as a permanent block boundary. Execution is already
// correct without this — mid-block PCs dispatch their base entries —
// so the re-fusion is purely an adaptation of block shape to the
// program's observed control flow.
func (t *tierEngine) noteLanding(m *Machine, pc int) {
	if t.landings == nil {
		t.landings = map[int]bool{}
	}
	if t.landings[pc] {
		return
	}
	t.landings[pc] = true
	if idx := m.funcAtPC(pc); idx >= 0 && idx < len(t.fns) && t.fns[idx].hot {
		t.refusions++
		if m.OnEvent != nil {
			m.OnEvent("tier-refusion", m.Funcs[idx].Name, 0)
		}
		t.install(m, idx)
	} else if pc < len(m.tierHeads) {
		m.tierHeads[pc] = true
	}
}

// funcAtPC finds the function whose [Entry, End) region contains pc, or
// -1. Funcs are appended in code order, so Entry is ascending.
func (m *Machine) funcAtPC(pc int) int {
	lo, hi := 0, len(m.Funcs)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.Funcs[mid].Entry <= pc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return -1
	}
	if f := &m.Funcs[lo-1]; pc < f.End {
		return lo - 1
	}
	return -1
}

// tierTerminates reports whether ins always ends a basic block.
func tierTerminates(ins *Instr) bool {
	switch ins.Op {
	case OpCALL, OpCALLF, OpTCALL, OpTCALLF, OpRET, OpHALT:
		return true
	case OpCALLSQ:
		sq := int(ins.TagArg)
		return sq == SQApplyList || sq == SQThrow
	}
	return jumpOps[ins.Op] && ins.Op != OpCATCH
}

// install rebuilds the fused overlay for function idx with lowered
// basic-block superinstructions. Safe to call while the function is
// executing or live on the call stack: decFused entries are replaced in
// place (Run's cached slice header stays valid) and in-flight closures
// are value copies.
func (t *tierEngine) install(m *Machine, idx int) {
	if m.noFuse {
		// Under -nofuse decFused aliases decBase; there is no overlay to
		// rewrite. The function stays marked hot and installs if fusion
		// is re-enabled.
		return
	}
	fd := &m.Funcs[idx]
	lo, hi := fd.Entry, fd.End
	if lo >= hi || hi > len(m.decBase) || hi > len(m.decFused) {
		return
	}

	// Block leaders: the entry, every branch/CATCH target, the return
	// points after CALL/CALLF and SQApplyList, and observed landings.
	heads := map[int]bool{lo: true}
	for pc := lo; pc < hi; pc++ {
		ins := &m.Code[pc]
		if jumpOps[ins.Op] && ins.target > lo && ins.target < hi {
			heads[ins.target] = true
		}
		switch ins.Op {
		case OpCALL, OpCALLF:
			if pc+1 < hi {
				heads[pc+1] = true
			}
		case OpCALLSQ:
			if int(ins.TagArg) == SQApplyList && pc+1 < hi {
				heads[pc+1] = true
			}
		}
	}
	for pc := range t.landings {
		if pc > lo && pc < hi {
			heads[pc] = true
		}
	}

	// Reset the function's overlay (dropping any static fused groups and
	// previously installed blocks), then lower the whole region into one
	// ops array. Jumps whose target lies inside the region resolve to an
	// executor index, so loops run inside runBlock without returning to
	// the dispatch loop; every head gets an entry closure into the shared
	// array.
	copy(m.decFused[lo:hi], m.decBase[lo:hi])
	for len(m.tierHeads) < len(m.decBase) {
		m.tierHeads = append(m.tierHeads, true)
	}
	ops := make([]lop, hi-lo)
	for i := range ops {
		ops[i] = lowerOne(m, lo+i)
	}
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case lJmp, lJccRI, lJccRR, lFJcc, lJNil, lJTag, lJTagX, lJEqW:
			if tgt := int(op.target); tgt >= lo && tgt < hi {
				op.aux = int32(tgt - lo)
			} else {
				op.aux = -1
			}
		}
	}
	for pc := lo; pc < hi; pc++ {
		if !heads[pc] {
			m.tierHeads[pc] = false
			continue
		}
		m.tierHeads[pc] = true
		start := pc - lo
		if ops[start].kind == lLast {
			// A lone generic control transfer: the base entry already
			// dispatches it with no executor overhead.
			continue
		}
		m.decFused[pc] = dinstr{
			// n promises Run's overshoot guard an upper bound on the
			// instructions one dispatch can retire between jump checks;
			// runBlock's own guard keeps the promise across internal
			// jumps.
			n: int32(hi - lo),
			run: func(m *Machine) error {
				return m.runBlock(ops, start)
			},
		}
		t.loweredBlocks++
	}
	t.loweredInstrs += int64(hi - lo)
}

// blockChunk bounds the instructions retired inside one runBlock entry:
// internal back-edges return to the dispatch loop after this many, so
// interrupts and the step limit are checked with bounded latency.
const blockChunk = 2048

// --- lowered form -----------------------------------------------------

type lopKind uint8

// Kinds at or below lLast run through their base closure (which does its
// own tick); kinds above are accounted by runBlock itself.
const (
	lBase lopKind = iota // generic fall-through instruction
	lLast                // generic control transfer, ends the block
	lNop
	lMovRR    // reg := reg
	lMovRI    // reg := imm
	lMovRX    // reg := mem[addr]
	lMovXR    // mem[addr] := reg
	lMovXI    // mem[addr] := imm
	lMovXX    // mem[addr2] := mem[addr]
	lMovP     // reg := Ptr(tag, addr)
	lAddRI    // reg := reg + k (SUB pre-negated)
	lIArith   // ADD/SUB/MULT/ASH, register operands
	lIArithRI // reg := reg op imm
	lIArithIR // reg := imm op reg
	lIArithRX // reg := reg op mem[addr]
	lIArithXR // reg := mem[addr] op reg
	lFArith   // FADD..FMIN, register operands
	lFArithRX // reg := reg fop mem[addr]
	lFArithXR // reg := mem[addr] fop reg
	lFUnary   // FSIN..FIX, register operands
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
	lSqArith     // numeric CALLSQ with inlined fastNum
	lSqCons      // CALLSQ kons
	lSqCarCdr    // CALLSQ car/cdr
	lSqFixCons   // CALLSQ fixnum-cons
	lSqCertify   // CALLSQ certify
	lSqSpecRead  // CALLSQ special-read through a cached handle
	lSqSpecWrite // CALLSQ special-write through a cached handle
	lCallIC      // CALL/CALLF through an inline cache, ends the block
	lTCallIC     // TCALL/TCALLF through an inline cache, ends the block
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
	imm    Word
	off    int64 // addr offset / immediate operand / car-cdr offset
	off2   int64 // second-address offset
	cost   int64
	pc     int32
	target int32
	aux    int32 // SQ routine index / call nargs / mem-arith register operand
	base   dexec
	ic     *callCache
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

// loadFast is the inlinable no-error slice of Machine.load: ok=false
// (a bad address) sends the caller to the full load for its diagnostic.
// Lowered blocks use it so the common stack/heap access stays inline;
// the generic engine keeps the single portable path.
func (m *Machine) loadFast(addr uint64) (Word, bool) {
	if IsStackAddr(addr) {
		return m.stack[addr-StackBase], true
	}
	if h := addr - HeapBase; h < uint64(len(m.heap)) {
		return m.heap[h], true
	}
	return Word{}, false
}

// storeFast is the inlinable no-error slice of Machine.store, write
// barrier included: lowered blocks mutate heap blocks through here, so
// the card dirty must match Machine.store exactly or the generational
// differential suite diverges.
func (m *Machine) storeFast(addr uint64, w Word) bool {
	if IsStackAddr(addr) {
		i := addr - StackBase
		m.stack[i] = w
		if i >= m.stackDirty {
			m.stackDirty = i + 1
		}
		return true
	}
	if h := addr - HeapBase; h < uint64(len(m.heap)) {
		m.heap[h] = w
		m.cards[h>>cardShift] = 1
		return true
	}
	return false
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

// intArithVal mirrors decIntArith's operator semantics exactly.
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

// floatArithVal mirrors decFloatArith's operator semantics exactly.
func floatArithVal(op Op, x, y float64) float64 {
	switch op {
	case OpFADD:
		return x + y
	case OpFSUB:
		return x - y
	case OpFMULT:
		return x * y
	case OpFDIV:
		return x / y
	case OpFMAX:
		return fmax(x, y)
	}
	return fmin(x, y)
}

// lowerOne selects the lowered form for Code[pc]. Anything without a
// register-shaped fast form falls back to its base closure (lBase for
// fall-through instructions, lLast for control transfers).
func lowerOne(m *Machine, pc int) lop {
	ins := &m.Code[pc]
	o := lop{op: ins.Op, cost: cycleCost[ins.Op], pc: int32(pc), target: int32(ins.target)}
	generic := func() lop {
		o.kind = lBase
		if tierTerminates(ins) {
			o.kind = lLast
		}
		o.base = m.decBase[pc].run
		return o
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
		default:
			return generic()
		}
	case OpMOVP:
		if ins.A.Mode == MReg && memShaped(ins.B) {
			o.kind, o.d, o.tag = lMovP, ins.A.Base, Tag(ins.TagArg)
			o.setAddr(ins.B)
		} else {
			return generic()
		}
	case OpADD, OpSUB, OpMULT, OpASH:
		if ins.A.Mode != MReg {
			return generic()
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
			default:
				return generic()
			}
			break
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
		default:
			return generic()
		}
	case OpFADD, OpFSUB, OpFMULT, OpFDIV, OpFMAX, OpFMIN:
		if ins.A.Mode != MReg {
			return generic()
		}
		d := ins.A.Base
		if ins.C.Mode == MNone {
			switch {
			case ins.B.Mode == MReg:
				o.kind, o.d, o.s, o.x = lFArith, d, d, ins.B.Base
			case memShaped(ins.B):
				o.kind, o.d, o.aux = lFArithRX, d, int32(d)
				o.setAddr(ins.B)
			default:
				return generic()
			}
			break
		}
		switch {
		case ins.B.Mode == MReg && ins.C.Mode == MReg:
			o.kind, o.d, o.s, o.x = lFArith, d, ins.B.Base, ins.C.Base
		case ins.B.Mode == MReg && memShaped(ins.C):
			o.kind, o.d, o.aux = lFArithRX, d, int32(ins.B.Base)
			o.setAddr(ins.C)
		case memShaped(ins.B) && ins.C.Mode == MReg:
			o.kind, o.d, o.aux = lFArithXR, d, int32(ins.C.Base)
			o.setAddr(ins.B)
		default:
			return generic()
		}
	case OpFSIN, OpFCOS, OpFSQRT, OpFATAN, OpFEXP, OpFLOG, OpFABS, OpFNEG, OpFLT, OpFIX:
		if ins.A.Mode == MReg && ins.B.Mode == MReg {
			o.kind, o.d, o.s = lFUnary, ins.A.Base, ins.B.Base
		} else {
			return generic()
		}
	case OpJMP:
		o.kind = lJmp
	case OpJEQ, OpJNE, OpJLT, OpJLE, OpJGT, OpJGE:
		if ins.A.Mode == MReg && ins.B.Mode == MImm {
			o.kind, o.d, o.off = lJccRI, ins.A.Base, ins.B.Imm.Int()
		} else if ins.A.Mode == MReg && ins.B.Mode == MReg {
			o.kind, o.d, o.s = lJccRR, ins.A.Base, ins.B.Base
		} else {
			return generic()
		}
	case OpFJEQ, OpFJNE, OpFJLT, OpFJLE, OpFJGT, OpFJGE:
		if ins.A.Mode == MReg && ins.B.Mode == MReg {
			o.kind, o.d, o.s = lFJcc, ins.A.Base, ins.B.Base
		} else {
			return generic()
		}
	case OpJNIL, OpJNNIL:
		if ins.A.Mode == MReg {
			o.kind, o.d, o.want = lJNil, ins.A.Base, ins.Op == OpJNIL
		} else {
			return generic()
		}
	case OpJTAG, OpJNTAG:
		if ins.A.Mode == MReg {
			o.kind, o.d, o.tag, o.want = lJTag, ins.A.Base, Tag(ins.TagArg), ins.Op == OpJTAG
		} else if memShaped(ins.A) {
			o.kind, o.tag, o.want = lJTagX, Tag(ins.TagArg), ins.Op == OpJTAG
			o.setAddr(ins.A)
		} else {
			return generic()
		}
	case OpJEQW, OpJNEW:
		if ins.A.Mode == MReg && ins.B.Mode == MReg {
			o.kind, o.d, o.s, o.want = lJEqW, ins.A.Base, ins.B.Base, ins.Op == OpJEQW
		} else {
			return generic()
		}
	case OpPUSH:
		switch ins.A.Mode {
		case MReg:
			o.kind, o.d = lPushR, ins.A.Base
		case MImm:
			o.kind, o.imm = lPushI, ins.A.Imm
		default:
			if !memShaped(ins.A) {
				return generic()
			}
			o.kind = lPushX
			o.setAddr(ins.A)
		}
	case OpPOP:
		switch ins.A.Mode {
		case MNone:
			o.kind = lPop0
		case MReg:
			o.kind, o.d = lPopR, ins.A.Base
		default:
			return generic()
		}
	case OpCALLSQ:
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
		case SQSpecRead:
			o.kind = lSqSpecRead
		case SQSpecWrite:
			o.kind = lSqSpecWrite
		default:
			return generic()
		}
	case OpCALL, OpCALLF:
		o.aux = int32(ins.TagArg)
		if ins.A.Mode == MImm && ins.A.Imm.Tag == TagSymbol {
			o.kind, o.imm, o.ic = lCallIC, ins.A.Imm, &callCache{}
		} else if ins.A.Mode == MReg {
			o.kind, o.s, o.ic = lCallIC, ins.A.Base, &callCache{}
			o.imm = Word{} // resolved from the register at run time
			o.want = true  // register-keyed cache
		} else {
			return generic()
		}
	case OpTCALL, OpTCALLF:
		o.aux = int32(ins.TagArg)
		if ins.A.Mode == MImm && ins.A.Imm.Tag == TagSymbol {
			o.kind, o.imm, o.ic = lTCallIC, ins.A.Imm, &callCache{}
		} else if ins.A.Mode == MReg {
			o.kind, o.s, o.ic = lTCallIC, ins.A.Base, &callCache{}
			o.want = true
		} else {
			return generic()
		}
	case OpRET:
		o.kind = lRet
	default:
		return generic()
	}
	return o
}

// icTarget resolves a call site's operand word and checks/refills the
// inline cache. ok=false means the slow generic path must run with fnw.
func (m *Machine) icTarget(op *lop) (fnw Word, fn, entry int, ok bool) {
	var observed Word
	if op.want {
		// Register-keyed: validate against the register's current word.
		observed = m.regs[op.s]
		fnw = observed
	} else {
		// Symbol-keyed: validate against the symbol's function cell.
		observed = m.Syms[op.imm.Bits].Function
		fnw = op.imm
	}
	ic := op.ic
	if ic.valid && ic.cell == observed {
		return fnw, int(ic.fn), int(ic.entry), true
	}
	if observed.Tag == TagFunc {
		idx := int(observed.Bits)
		ic.cell, ic.fn, ic.entry, ic.valid = observed, int32(idx), int32(m.Funcs[idx].Entry), true
		if t := m.tier; t != nil {
			t.cacheFills++
		}
		return fnw, idx, int(ic.entry), true
	}
	return fnw, 0, 0, false
}

// enterFrameIC is the CALL microcode for a cache-verified direct
// function (nil environment), with the four frame pushes bounds-checked
// once. ok=false declines near the stack limit without mutating
// anything; the caller takes the generic path for exact overflow
// semantics.
func (m *Machine) enterFrameIC(nargs, retPC, fn, entry int) bool {
	sp := m.regs[RegSP].Bits
	if !IsStackAddr(sp) || sp+4 > StackLimit {
		return false
	}
	b := sp - StackBase
	m.stack[b] = RawInt(int64(nargs))
	m.stack[b+1] = RawInt(int64(retPC))
	m.stack[b+2] = m.regs[RegFP]
	m.stack[b+3] = m.regs[RegEP]
	if b+4 > m.stackDirty {
		m.stackDirty = b + 4
	}
	nsp := RawInt(int64(sp + 4))
	m.regs[RegSP] = nsp
	if d := int64(sp + 4 - StackBase); d > m.Stats.MaxStack {
		m.Stats.MaxStack = d
	}
	m.regs[RegFP] = nsp
	m.regs[RegEP] = NilWord
	m.regs[RegR3] = RawInt(int64(nargs))
	m.pc = entry
	m.Stats.Calls++
	if p := m.prof; p != nil {
		p.call(m, fn)
	}
	if t := m.tier; t != nil {
		t.onCall(m, fn)
	}
	return true
}

// tailCallIC is the TCALL microcode for a cache-verified direct
// function: the k outgoing arguments move down over the old frame with
// one copy (no intermediate slice). ok=false declines on any bound
// irregularity without mutating anything.
func (m *Machine) tailCallIC(k, fn, entry int) bool {
	fp := int64(m.regs[RegFP].Bits)
	sp := int64(m.regs[RegSP].Bits)
	if fp-4 < StackBase || fp > StackLimit || sp-int64(k) < StackBase || sp > StackLimit {
		return false
	}
	fb := uint64(fp) - StackBase
	nw := m.stack[fb-4].Int()
	newBase := fp - 4 - nw
	if newBase < StackBase || newBase+int64(k)+4 > StackLimit {
		return false
	}
	savedRet := m.stack[fb-3]
	savedFP := m.stack[fb-2]
	savedEP := m.stack[fb-1]
	dst := uint64(newBase) - StackBase
	copy(m.stack[dst:dst+uint64(k)], m.stack[uint64(sp)-StackBase-uint64(k):uint64(sp)-StackBase])
	m.stack[dst+uint64(k)] = RawInt(int64(k))
	m.stack[dst+uint64(k)+1] = savedRet
	m.stack[dst+uint64(k)+2] = savedFP
	m.stack[dst+uint64(k)+3] = savedEP
	if top := dst + uint64(k) + 4; top > m.stackDirty {
		m.stackDirty = top
	}
	nsp := newBase + int64(k) + 4
	m.regs[RegSP] = RawInt(nsp)
	if d := nsp - StackBase; d > m.Stats.MaxStack {
		m.Stats.MaxStack = d
	}
	m.regs[RegFP] = m.regs[RegSP]
	m.regs[RegEP] = NilWord
	m.regs[RegR3] = RawInt(int64(k))
	m.pc = entry
	if p := m.prof; p != nil {
		p.tail(m, fn)
	}
	if t := m.tier; t != nil {
		t.onTail(m, fn)
	}
	return true
}

// runBlock executes lowered code from ops[i]. The step/cycle/MOV meters
// accumulate in locals and spill to Stats at exits, before any
// operation that can allocate (a heap-exhaustion panic must not lose
// retired instructions), and on error paths. m.pc is materialized
// before every fallible or allocating operation so errors, GC and
// recovery always see the faulting instruction's PC; pure register and
// jump operations skip both stores. Each lop retires exactly one
// architectural instruction, counted before its work runs (tick order),
// so a faulting instruction is already counted.
//
// A jump whose target lies inside the function (op.aux >= 0) continues
// inside the executor, so hot loops never leave runBlock — unless the
// chunk bound is hit or the next straight-line segment could cross
// StepLimit, in which case the meters spill and control returns to Run
// with m.pc at the target (the machine is consistent at every
// instruction boundary, so bailing out mid-trace is always safe).
func (m *Machine) runBlock(ops []lop, i int) error {
	var instrs, cycles, movs int64
	// n counts every op executed in this call and, unlike instrs, never
	// resets at spill sites: it is the chunk bound that guarantees
	// control returns to Run (the only place interrupts are polled) even
	// for loops whose body spills every iteration (e.g. around a CONS).
	var n int64
	p := m.prof
	for {
		op := &ops[i]
		n++
		if op.kind > lLast {
			if p != nil {
				p.note(op.op, op.cost)
			}
			instrs++
			cycles += op.cost
		}
		switch op.kind {
		case lBase:
			m.pc = int(op.pc)
			m.Stats.Instrs += instrs
			m.Stats.Cycles += cycles
			m.Stats.Movs += movs
			instrs, cycles, movs = 0, 0, 0
			if err := op.base(m); err != nil {
				return err
			}
			if m.pc != int(op.pc)+1 {
				// The constituent transferred control (a non-jumping
				// instruction never does; defensive): end the block.
				return nil
			}
		case lLast:
			m.pc = int(op.pc)
			m.Stats.Instrs += instrs
			m.Stats.Cycles += cycles
			m.Stats.Movs += movs
			return op.base(m)
		case lNop:
			// counted above
		case lMovRR:
			m.regs[op.d] = m.regs[op.s]
			movs++
		case lMovRI:
			m.regs[op.d] = op.imm
			movs++
		case lMovRX:
			v, ok := m.loadFast(m.lAddr(op))
			if !ok {
				m.pc = int(op.pc)
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				_, err := m.load(m.lAddr(op))
				return err
			}
			m.regs[op.d] = v
			movs++
		case lMovXR:
			if !m.storeFast(m.lAddr(op), m.regs[op.d]) {
				m.pc = int(op.pc)
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				return m.store(m.lAddr(op), m.regs[op.d])
			}
			movs++
		case lMovXI:
			if !m.storeFast(m.lAddr(op), op.imm) {
				m.pc = int(op.pc)
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				return m.store(m.lAddr(op), op.imm)
			}
			movs++
		case lMovXX:
			m.pc = int(op.pc)
			v, err := m.load(m.lAddr(op))
			if err == nil {
				err = m.store(m.lAddr2(op), v)
			}
			if err != nil {
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				return err
			}
			movs++
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
				m.pc = int(op.pc)
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				_, err := m.load(m.lAddr(op))
				return err
			}
			m.regs[op.d] = RawInt(intArithVal(op.op, m.regs[op.aux].Int(), v.Int()))
		case lIArithXR:
			v, ok := m.loadFast(m.lAddr(op))
			if !ok {
				m.pc = int(op.pc)
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				_, err := m.load(m.lAddr(op))
				return err
			}
			m.regs[op.d] = RawInt(intArithVal(op.op, v.Int(), m.regs[op.aux].Int()))
		case lFArith:
			m.regs[op.d] = RawFloat(floatArithVal(op.op, m.regs[op.s].Float(), m.regs[op.x].Float()))
		case lFArithRX:
			v, ok := m.loadFast(m.lAddr(op))
			if !ok {
				m.pc = int(op.pc)
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				_, err := m.load(m.lAddr(op))
				return err
			}
			m.regs[op.d] = RawFloat(floatArithVal(op.op, m.regs[op.aux].Float(), v.Float()))
		case lFArithXR:
			v, ok := m.loadFast(m.lAddr(op))
			if !ok {
				m.pc = int(op.pc)
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				_, err := m.load(m.lAddr(op))
				return err
			}
			m.regs[op.d] = RawFloat(floatArithVal(op.op, v.Float(), m.regs[op.aux].Float()))
		case lFUnary:
			v := m.regs[op.s]
			var r Word
			switch op.op {
			case OpFSIN:
				r = RawFloat(sinCycles(v.Float()))
			case OpFCOS:
				r = RawFloat(cosCycles(v.Float()))
			case OpFSQRT:
				r = RawFloat(sqrt(v.Float()))
			case OpFATAN:
				r = RawFloat(atan(v.Float()))
			case OpFEXP:
				r = RawFloat(exp(v.Float()))
			case OpFLOG:
				r = RawFloat(logf(v.Float()))
			case OpFABS:
				r = RawFloat(fabs(v.Float()))
			case OpFNEG:
				r = RawFloat(-v.Float())
			case OpFLT:
				r = RawFloat(float64(v.Int()))
			case OpFIX:
				r = RawInt(int64(v.Float()))
			}
			m.regs[op.d] = r
		// Jumps: a taken jump whose target lies inside the function
		// (op.aux is its executor index) continues the trace right here,
		// as long as the chunk bound has room and the next straight-line
		// segment — at most len(ops) instructions before the next jump
		// check — cannot cross StepLimit (the same promise Run's d.n
		// pre-dispatch guard makes on entry, so -max-steps stays exact).
		// A not-taken conditional jump falls through to the next op
		// without spilling at all. Only a trace exit spills and returns.
		case lJmp:
			if op.aux >= 0 && n < blockChunk && m.Stats.Instrs+instrs+int64(len(ops)) <= m.StepLimit {
				i = int(op.aux)
				continue
			}
			m.Stats.Instrs += instrs
			m.Stats.Cycles += cycles
			m.Stats.Movs += movs
			m.pc = int(op.target)
			return nil
		case lJccRI:
			if intCondVal(op.op, m.regs[op.d].Int(), op.off) {
				if op.aux >= 0 && n < blockChunk && m.Stats.Instrs+instrs+int64(len(ops)) <= m.StepLimit {
					i = int(op.aux)
					continue
				}
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				m.pc = int(op.target)
				return nil
			}
		case lJccRR:
			if intCondVal(op.op, m.regs[op.d].Int(), m.regs[op.s].Int()) {
				if op.aux >= 0 && n < blockChunk && m.Stats.Instrs+instrs+int64(len(ops)) <= m.StepLimit {
					i = int(op.aux)
					continue
				}
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				m.pc = int(op.target)
				return nil
			}
		case lFJcc:
			if floatCondVal(op.op, m.regs[op.d].Float(), m.regs[op.s].Float()) {
				if op.aux >= 0 && n < blockChunk && m.Stats.Instrs+instrs+int64(len(ops)) <= m.StepLimit {
					i = int(op.aux)
					continue
				}
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				m.pc = int(op.target)
				return nil
			}
		case lJNil:
			if (m.regs[op.d].Tag == TagNil) == op.want {
				if op.aux >= 0 && n < blockChunk && m.Stats.Instrs+instrs+int64(len(ops)) <= m.StepLimit {
					i = int(op.aux)
					continue
				}
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				m.pc = int(op.target)
				return nil
			}
		case lJTag:
			if (m.regs[op.d].Tag == op.tag) == op.want {
				if op.aux >= 0 && n < blockChunk && m.Stats.Instrs+instrs+int64(len(ops)) <= m.StepLimit {
					i = int(op.aux)
					continue
				}
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				m.pc = int(op.target)
				return nil
			}
		case lJTagX:
			v, ok := m.loadFast(m.lAddr(op))
			if !ok {
				m.pc = int(op.pc)
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				_, err := m.load(m.lAddr(op))
				return err
			}
			if (v.Tag == op.tag) == op.want {
				if op.aux >= 0 && n < blockChunk && m.Stats.Instrs+instrs+int64(len(ops)) <= m.StepLimit {
					i = int(op.aux)
					continue
				}
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				m.pc = int(op.target)
				return nil
			}
		case lJEqW:
			if (m.regs[op.d] == m.regs[op.s]) == op.want {
				if op.aux >= 0 && n < blockChunk && m.Stats.Instrs+instrs+int64(len(ops)) <= m.StepLimit {
					i = int(op.aux)
					continue
				}
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				m.pc = int(op.target)
				return nil
			}
		case lPushR:
			m.pc = int(op.pc)
			if err := m.push(m.regs[op.d]); err != nil {
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				return err
			}
		case lPushI:
			m.pc = int(op.pc)
			if err := m.push(op.imm); err != nil {
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				return err
			}
		case lPushX:
			v, ok := m.loadFast(m.lAddr(op))
			if !ok {
				m.pc = int(op.pc)
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				_, err := m.load(m.lAddr(op))
				return err
			}
			m.pc = int(op.pc)
			if err := m.push(v); err != nil {
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				return err
			}
		case lPopR:
			m.pc = int(op.pc)
			v, err := m.pop()
			if err != nil {
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				return err
			}
			m.regs[op.d] = v
		case lPop0:
			m.pc = int(op.pc)
			if _, err := m.pop(); err != nil {
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				return err
			}
		case lSqArith:
			// The fastNum flonum path and genericNum both allocate, so
			// spill before running (a heap-exhaustion panic skips the
			// error returns). The routine's own cost lands directly on
			// Stats like callSQ's preamble would.
			m.pc = int(op.pc)
			m.Stats.Instrs += instrs
			m.Stats.Cycles += cycles + sqCost[op.aux]
			m.Stats.Movs += movs
			instrs, cycles, movs = 0, 0, 0
			m.Stats.SQCalls++
			if p != nil {
				p.noteExtra(OpCALLSQ, sqCost[op.aux])
			}
			a, b := m.regs[RegA], m.regs[RegB]
			if out, ok := m.fastNum(int(op.aux), a, b); ok {
				m.regs[RegA] = out
				break
			}
			x, err := m.numValue(a)
			if err != nil {
				return err
			}
			y, err := m.numValue(b)
			if err != nil {
				return err
			}
			out, err := m.genericNum(int(op.aux), x, y)
			if err != nil {
				return &RuntimeError{PC: m.pc, Msg: err.Error()}
			}
			m.regs[RegA] = out
		case lSqCons:
			m.pc = int(op.pc)
			m.Stats.Instrs += instrs
			m.Stats.Cycles += cycles + sqCost[op.aux]
			m.Stats.Movs += movs
			instrs, cycles, movs = 0, 0, 0
			m.Stats.SQCalls++
			if p != nil {
				p.noteExtra(OpCALLSQ, sqCost[op.aux])
			}
			m.regs[RegA] = m.Cons(m.regs[RegA], m.regs[RegB])
		case lSqCarCdr:
			cycles += sqCost[op.aux]
			m.Stats.SQCalls++
			if p != nil {
				p.noteExtra(OpCALLSQ, sqCost[op.aux])
			}
			a := m.regs[RegA]
			if a.Tag == TagNil {
				m.regs[RegA] = NilWord
				break
			}
			m.pc = int(op.pc)
			if a.Tag != TagCons {
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				return &RuntimeError{PC: m.pc, Msg: "car/cdr of non-list " + a.String()}
			}
			w, ok := m.loadFast(a.Bits + uint64(op.off))
			if !ok {
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				_, err := m.load(a.Bits + uint64(op.off))
				return err
			}
			m.regs[RegA] = w
		case lSqFixCons:
			cycles += sqCost[op.aux]
			m.Stats.SQCalls++
			if p != nil {
				p.noteExtra(OpCALLSQ, sqCost[op.aux])
			}
			m.regs[RegA] = FixnumWord(m.regs[RegA].Int())
		case lSqCertify:
			cycles += sqCost[op.aux]
			m.Stats.SQCalls++
			if p != nil {
				p.noteExtra(OpCALLSQ, sqCost[op.aux])
			}
			m.Stats.Certifies++
			if a := m.regs[RegA]; a.Tag == TagFlonum && IsStackAddr(a.Bits) {
				// The copy path allocates: spill first.
				m.pc = int(op.pc)
				m.Stats.Instrs += instrs
				m.Stats.Cycles += cycles
				m.Stats.Movs += movs
				instrs, cycles, movs = 0, 0, 0
				v, err := m.load(a.Bits)
				if err != nil {
					return err
				}
				m.Stats.CertifyCopies++
				m.regs[RegA] = m.ConsFlonum(v.Float())
			}
		case lSqSpecRead:
			cycles += sqCost[op.aux]
			m.Stats.SQCalls++
			if p != nil {
				p.noteExtra(OpCALLSQ, sqCost[op.aux])
			}
			if h := m.regs[RegA].Int(); h >= 0 {
				if int(h) >= len(m.bindStack) {
					m.pc = int(op.pc)
					m.Stats.Instrs += instrs
					m.Stats.Cycles += cycles
					m.Stats.Movs += movs
					return &RuntimeError{PC: m.pc, Msg: "stale special handle"}
				}
				m.regs[RegA] = m.bindStack[h].val
			} else {
				sym := int(-h - 1)
				if !m.Syms[sym].HasValue {
					m.pc = int(op.pc)
					m.Stats.Instrs += instrs
					m.Stats.Cycles += cycles
					m.Stats.Movs += movs
					return &RuntimeError{PC: m.pc, Msg: "unbound variable " + m.Syms[sym].Name}
				}
				m.regs[RegA] = m.Syms[sym].Value
			}
		case lSqSpecWrite:
			cycles += sqCost[op.aux]
			m.Stats.SQCalls++
			if p != nil {
				p.noteExtra(OpCALLSQ, sqCost[op.aux])
			}
			b := m.regs[RegB]
			if h := m.regs[RegA].Int(); h >= 0 {
				if int(h) >= len(m.bindStack) {
					m.pc = int(op.pc)
					m.Stats.Instrs += instrs
					m.Stats.Cycles += cycles
					m.Stats.Movs += movs
					return &RuntimeError{PC: m.pc, Msg: "stale special handle"}
				}
				m.bindStack[h].val = b
			} else {
				sym := int(-h - 1)
				m.Syms[sym].Value = b
				m.Syms[sym].HasValue = true
			}
			m.regs[RegA] = b
		case lCallIC:
			m.pc = int(op.pc)
			m.Stats.Instrs += instrs
			m.Stats.Cycles += cycles
			m.Stats.Movs += movs
			fnw, fn, entry, ok := m.icTarget(op)
			if ok && m.enterFrameIC(int(op.aux), int(op.pc)+1, fn, entry) {
				return nil
			}
			return m.enterFrame(int(op.aux), int(op.pc)+1, fnw, op.op == OpCALLF)
		case lTCallIC:
			m.pc = int(op.pc)
			m.Stats.Instrs += instrs
			m.Stats.Cycles += cycles
			m.Stats.Movs += movs
			m.Stats.TailCalls++
			fnw, fn, entry, ok := m.icTarget(op)
			if ok && m.tailCallIC(int(op.aux), fn, entry) {
				return nil
			}
			return m.tailCall(int(op.aux), fnw)
		case lRet:
			m.pc = int(op.pc)
			m.Stats.Instrs += instrs
			m.Stats.Cycles += cycles
			m.Stats.Movs += movs
			return m.ret()
		}
		if i++; i == len(ops) {
			// Fell off the function's end (the assembler always closes a
			// unit with a control transfer, so this is defensive).
			m.Stats.Instrs += instrs
			m.Stats.Cycles += cycles
			m.Stats.Movs += movs
			m.pc = int(ops[i-1].pc) + 1
			return nil
		}
	}
}
