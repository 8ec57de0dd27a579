package s1

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/sexp"
)

// FuncDesc describes one compiled function.
type FuncDesc struct {
	Name             string
	Entry, End       int
	MinArgs, MaxArgs int // MaxArgs -1 for &rest
}

// SymCell is a symbol's runtime record: a value cell (the global/dynamic
// binding of last resort) and a function cell.
type SymCell struct {
	Name     string
	Value    Word
	HasValue bool
	Function Word
	// Uninterned marks the cell of an uninterned host symbol (a gensym),
	// made by FromValue: no name finds it, and it converts back to its
	// own host symbol, so a macro's gensym stays distinct from every
	// symbol a source can spell.
	Uninterned bool

	// host is the host symbol and native the symbol's word-level
	// fallback primitive (nil if none), both resolved once when the cell
	// is made (InternSym, uninternedSym, LoadImage). Derived from Name,
	// they are neither serialized nor fingerprinted.
	host   *sexp.Symbol
	native *nativePrim
}

// resolve fills the cell's derived fields from its name. An uninterned
// cell loaded from an image gets a fresh uninterned host symbol.
func (c *SymCell) resolve() {
	if c.Uninterned {
		c.host = &sexp.Symbol{Name: c.Name}
		return
	}
	c.host = sexp.Intern(c.Name)
	if c.native = nativePrims[c.Name]; c.native == nil {
		c.native = cellPrims[c.Name]
	}
}

type bindEntry struct {
	sym int
	val Word
}

type catchFrame struct {
	tag       Word
	sp, fp    Word
	ep        Word
	handler   int
	bindDepth int
	// fnDepth is the profiler's shadow-stack depth at CATCH time, so a
	// THROW unwind can truncate attribution to the handler's frame.
	fnDepth int
}

// Stats are the simulator's meters; every experiment in EXPERIMENTS.md is
// expressed in these.
type Stats struct {
	Cycles int64
	Instrs int64
	// Movs counts dynamically executed MOV instructions (the static count
	// comes from CountMOVs over the listing).
	Movs int64
	// Heap traffic.
	HeapWords    int64
	HeapAllocs   int64
	ConsAllocs   int64
	FlonumAllocs int64 // the E5/E6 metric: boxed floats created
	EnvAllocs    int64
	// MaxStack is the deepest stack extent reached (E3's metric).
	MaxStack int64
	// Pointer certification (§6.3).
	Certifies     int64
	CertifyCopies int64
	// Deep binding (§4.4 / E9).
	SpecialLookups     int64
	SpecialSearchSteps int64
	// Linkage.
	Calls     int64
	TailCalls int64
	SQCalls   int64
	// MarshaledPrims counts fallback-primitive calls that took the
	// marshaled host hook instead of a native word-level entry.
	MarshaledPrims int64
	// Compile cache (core's content-addressed memo of compiled bodies).
	CompileCacheHits   int64
	CompileCacheMisses int64
}

// RuntimeError is a Lisp-level runtime error raised by compiled code.
type RuntimeError struct {
	PC  int
	Msg string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("s1: runtime error at %d: %s", e.PC, e.Msg)
}

// Machine is an S-1 simulator instance with its Lisp runtime state.
type Machine struct {
	Code  []Instr
	Funcs []FuncDesc
	Syms  []SymCell
	// Boxes holds immutable objects outside the word format (bignums,
	// ratios, strings, characters, host symbols for literals).
	Boxes []sexp.Value

	// Out receives print output.
	Out io.Writer
	// StepLimit bounds execution (instructions): a runaway program gets
	// a RuntimeError instead of wedging the process (-max-steps).
	StepLimit int64
	// HeapLimit, when >0, bounds live heap words (-max-heap): an
	// allocation that would exceed it first forces a collection, and if
	// the heap is still over the limit the program gets a RuntimeError
	// ("heap exhausted") instead of growing without bound.
	HeapLimit int64
	// Stats accumulates the meters.
	Stats Stats
	// GCMeters accumulates garbage-collector activity.
	GCMeters GCStats

	funcIdx  map[string]int
	symIdx   map[string]int
	primHook PrimHook

	// uninterned indexes the uninterned symbols' cells by host symbol.
	uninterned map[*sexp.Symbol]int
	// primArgs is the argument scratch of fallback-primitive calls, used
	// as a stack (pushPrimArgs).
	primArgs []sexp.Value

	// stack holds the words from StackBase up, initialStackWords at
	// first; growStack doubles it toward StackLimit. ADD SP reserves
	// frame slots without writing, so SP may sit above len(stack); a
	// stack address past the end reads as the zero word.
	stack []Word
	heap  []Word
	// GC state (gc.go). gcRecs parallels heap: the entry at a block's
	// start offset holds its record; interior entries stay zero. Offsets
	// into heap are dense, so slices replace the address-keyed maps the
	// allocator used to probe on every allocation.
	gcRecs    []gcRec
	gcBlocks  []uint64
	freeSmall [gcSmallMax + 1][]uint64
	freeBig   map[int][]uint64
	// Generational state (gc.go). youngBlocks lists the blocks allocated
	// since the last collection — the nursery a minor collection sweeps.
	// cards is the remembered set: one byte per cardWords heap words,
	// dirtied by the store write barrier, scanned as extra roots by minor
	// collections. markStack is the reusable mark worklist.
	youngBlocks []uint64
	cards       []byte
	markStack   []uint64
	gcThreshold int64
	liveSinceGC int64
	liveWords   int64
	// gcNoGen forces every automatic collection to be full (-gc-nogen);
	// gcStressMinor forces a minor before every allocation.
	// promotedSinceFull drives the minor→full escalation policy in
	// collectAuto.
	gcNoGen           bool
	gcStressMinor     bool
	promotedSinceFull int64
	// arena, when non-nil, is the recycled storage pool this machine's
	// slices were drawn from (arena.go); ReleaseArena hands them back.
	arena      *Arena
	regs       [NumRegs]Word
	bindStack  []bindEntry
	catchStack []catchFrame
	pc         int
	halted     bool
	// prof, when non-nil, collects the runtime profile (profile.go).
	// A profiled run takes the engine's slow path for every instruction
	// (engine.go); the disabled cost is one nil check per Run checkpoint.
	prof *Profile
	// ops is the lowered instruction stream Run executes, parallel to
	// Code (engine.go); cacheFills counts its call sites' inline-cache
	// fills. stop is the Stats.Instrs value of Run's next checkpoint and
	// pollAt that of its next safepoint poll.
	ops          []lop
	cacheFills   int64
	stop, pollAt int64

	// cap, when non-nil, records emission-time machine mutations for the
	// durable compile cache (capture.go); capDepth guards FromValue
	// recursion so only top-level constant builds are recorded.
	cap      *Capture
	capDepth int
	// symHash incrementally fingerprints the symbol table contents for
	// AllocContext (capture.go).
	symHash uint64
	// gcStress forces a full collection before every allocation
	// (GC stress): construction-order bugs that normally need precise
	// heap pressure to surface become deterministic.
	gcStress bool
	// tempRoots protects words held only in host locals (mid-construction
	// structure in FromValue, SQ list builders) across allocations; the
	// collector treats the stack as roots.
	tempRoots []Word
	// signal is the tri-state run/preempt/kill word polled at safepoints
	// (every interruptEvery retired instructions in Run, plus GC-check
	// sites). sigKill makes Run return a RuntimeError (the cooperative
	// cancellation the compile daemon's request deadlines use); sigPreempt
	// makes Run return ErrPreempted with the machine fully resumable — pc,
	// stack, registers and meters intact — so a scheduler can park it and
	// call Run again later.
	signal atomic.Int32
	// safeCharged is the Stats.Cycles value already reported to
	// OnSafepoint; the next safepoint reports the delta. safeErr defers a
	// hook error raised at a GC-site safepoint (where the machine is
	// mid-instruction and cannot stop) to the next Run-loop poll.
	safeCharged int64
	safeErr     error

	// OnEvent, when non-nil, receives rare runtime happenings (kind is an
	// event name matching the obs flight-recorder constants by
	// convention: "gc-pause"; unit names the function where that
	// applies; d carries a duration when the event has one). The hook
	// fires on collection paths only — never per instruction — so the
	// disabled cost is a nil check at those sites.
	OnEvent func(kind, unit string, d time.Duration)

	// OnSafepoint, when non-nil, is called at every safepoint with the
	// S-1 cycles retired since the previous call — the exact currency a
	// gas meter charges — and whether a Preempt request landed at this
	// safepoint. The hook may block (a scheduler parks the goroutine here
	// and the machine simply pauses mid-Run); returning a non-nil error
	// stops the run with that error and halts the machine (the gas-
	// exhausted path). The disabled cost is a nil check per safepoint,
	// never per instruction.
	OnSafepoint func(cycles int64, preempted bool) error
}

// Safepoint signal states (the tri-state interrupt word).
const (
	sigRun int32 = iota
	sigPreempt
	sigKill
)

// ErrPreempted is returned by Run when a Preempt request lands at a
// safepoint and no OnSafepoint hook is installed to park in place: the
// machine is NOT halted — pc, stack, registers and meters are all
// intact — and calling Run again resumes execution exactly where it
// stopped.
var ErrPreempted = errors.New("s1: machine preempted at safepoint")

// interruptEvery is the retired-instruction interval between safepoint
// polls: rare enough to stay off the hot path, frequent enough that a
// deadline or preemption lands within microseconds.
const interruptEvery = 256

// InterruptMsg is the RuntimeError message of an interrupted run.
const InterruptMsg = "execution interrupted"

// Interrupt requests that the current (or next) Run stop at its next
// safepoint with a RuntimeError — the kill state of the tri-state
// signal. Safe to call from another goroutine. A kill always wins over
// a pending preempt.
func (m *Machine) Interrupt() { m.signal.Store(sigKill) }

// Preempt requests that the current Run pause at its next safepoint:
// with an OnSafepoint hook installed the hook observes preempted=true
// (and typically parks in place); without one, Run returns ErrPreempted
// with the machine resumable. A pending kill is never downgraded.
func (m *Machine) Preempt() { m.signal.CompareAndSwap(sigRun, sigPreempt) }

// ClearInterrupt resets the signal to the run state. A machine recycled
// between requests (resident sessions, arenas) must pass through here so
// a stale kill from the previous request cannot leak into the next.
func (m *Machine) ClearInterrupt() { m.signal.Store(sigRun) }

// pollSafepoint is the Run-loop safepoint: it surfaces deferred GC-site
// hook errors, handles the tri-state signal, and reports the cycle delta
// to the OnSafepoint hook. A non-nil return other than ErrPreempted
// halts the machine; ErrPreempted leaves it resumable.
func (m *Machine) pollSafepoint() error {
	if err := m.safeErr; err != nil {
		m.safeErr = nil
		m.halted = true
		return err
	}
	preempted := false
	switch m.signal.Load() {
	case sigKill:
		m.halted = true
		return &RuntimeError{PC: m.pc, Msg: InterruptMsg}
	case sigPreempt:
		// Consume the request (a kill racing in after the load is caught
		// by the CAS failing and the next poll, or by the hook recheck
		// below).
		m.signal.CompareAndSwap(sigPreempt, sigRun)
		if m.OnSafepoint == nil {
			return ErrPreempted
		}
		preempted = true
	}
	if m.OnSafepoint != nil {
		if err := m.OnSafepoint(m.takeUncharged(), preempted); err != nil {
			m.halted = true
			return err
		}
		// The hook may have parked for a long time; a kill that landed
		// during the park must fire now, not after another 256 dispatches.
		if m.signal.Load() == sigKill {
			m.halted = true
			return &RuntimeError{PC: m.pc, Msg: InterruptMsg}
		}
	}
	return nil
}

// takeUncharged returns the cycles retired since the last safepoint
// charge and marks them charged.
func (m *Machine) takeUncharged() int64 {
	d := m.Stats.Cycles - m.safeCharged
	m.safeCharged = m.Stats.Cycles
	return d
}

// gcSafepoint reports accumulated cycles to the OnSafepoint hook from a
// GC-check site. The machine is mid-instruction here, so a hook error
// cannot stop it directly; it is deferred to the next Run-loop poll
// (within interruptEvery retired instructions). The hook may still
// block, which is how a scheduler parks a machine that is allocating
// heavily between loop safepoints.
func (m *Machine) gcSafepoint() {
	if m.OnSafepoint == nil || m.safeErr != nil {
		return
	}
	if err := m.OnSafepoint(m.takeUncharged(), false); err != nil {
		m.safeErr = err
	}
}

// SetGCStress toggles forced collection before every allocation.
func (m *Machine) SetGCStress(v bool) { m.gcStress = v }

// New creates an empty machine. Code index 0 is a HALT used as the
// top-level return address.
func New() *Machine { return newMachine(nil) }

func newMachine(a *Arena) *Machine {
	m := &Machine{
		Code:      []Instr{{Op: OpHALT, Comment: "top-level return"}},
		Out:       io.Discard,
		StepLimit: 2_000_000_000,
		funcIdx:   map[string]int{},
		symIdx:    map[string]int{},
		stack:     make([]Word, initialStackWords),
	}
	if a != nil {
		a.adopt(m)
	}
	return m
}

// AddFunction assembles a function body into the machine, lowers it for
// execution (engine.go), and registers its descriptor; returns the
// function index. It keeps no reference to items or their instructions,
// so the caller may reuse that storage once it returns. A capture in
// progress records the assembled body with its jump targets made
// relative to its entry, the inverse of AddBody's rebase.
func (m *Machine) AddFunction(name string, minArgs, maxArgs int, items []Item) (int, error) {
	code, entry, err := assemble(name, items, m.Code)
	if err != nil {
		return 0, err
	}
	m.Code = code
	if m.cap != nil {
		body := slices.Clone(code[entry:])
		for i := range body {
			if jumpOps[body[i].Op] {
				body[i].target -= entry
			}
		}
		m.cap.Funcs = append(m.cap.Funcs, Body{Name: name, MinArgs: minArgs, MaxArgs: maxArgs, Code: body})
	}
	return m.registerFunc(name, minArgs, maxArgs, entry), nil
}

// ReserveCode makes room for n more instructions in the code vector, so
// a batch of installs sized in advance grows it at most once. The
// lowered stream follows the vector's capacity when it next extends.
// Growth doubles at least, as it does per install, so repeated small
// batches into one machine stay amortized.
func (m *Machine) ReserveCode(n int) { m.Code = reserve(m.Code, n) }

// AddBody installs a captured body (ReadBody reads one back from its
// wire form) and returns its function index: its code is appended with the jump targets rebased to
// where it lands, so a replay skips label resolution, and its lowered
// stream is copied from the body's kept one when it lands where that one
// was lowered, so a replay skips lowering too. Apart from publishing
// that stream once, b is only read, so one Body can be installed into
// any number of machines concurrently. A capture in progress records b
// itself.
func (m *Machine) AddBody(b *Body) int {
	if m.cap != nil {
		m.cap.Funcs = append(m.cap.Funcs, Body{Name: b.Name, MinArgs: b.MinArgs, MaxArgs: b.MaxArgs, Code: b.Code})
	}
	m.lowerCode()
	entry := len(m.Code)
	m.Code = append(reserve(m.Code, len(b.Code)), b.Code...)
	for i := entry; i < len(m.Code); i++ {
		if jumpOps[m.Code[i].Op] {
			m.Code[i].target += entry
		}
	}
	var kept *bodyStream
	if b.lowered != nil {
		kept = b.lowered.Load()
	}
	if kept != nil && kept.entry == entry {
		// A copy by value: the machine's call sites fill their own
		// inline caches.
		m.ops = append(reserve(m.ops, cap(m.Code)-len(m.ops)), kept.ops...)
	}
	idx := m.registerFunc(b.Name, b.MinArgs, b.MaxArgs, entry)
	if b.lowered != nil && kept == nil {
		b.lowered.CompareAndSwap(nil, &bodyStream{entry: entry, ops: slices.Clone(m.ops[entry:len(m.Code)])})
	}
	return idx
}

// registerFunc adds the descriptor of the body just appended at entry
// and lowers it; returns the function index.
func (m *Machine) registerFunc(name string, minArgs, maxArgs, entry int) int {
	idx := len(m.Funcs)
	m.Funcs = append(m.Funcs, FuncDesc{
		Name: name, Entry: entry, End: len(m.Code),
		MinArgs: minArgs, MaxArgs: maxArgs,
	})
	m.funcIdx[name] = idx
	m.lowerCode()
	return idx
}

// FuncNamed returns the descriptor index for name, or -1.
func (m *Machine) FuncNamed(name string) int {
	if i, ok := m.funcIdx[name]; ok {
		return i
	}
	return -1
}

// InternSym returns the runtime symbol index for name.
func (m *Machine) InternSym(name string) int {
	if i, ok := m.symIdx[name]; ok {
		return i
	}
	i := len(m.Syms)
	m.Syms = append(m.Syms, SymCell{Name: name, Function: NilWord})
	m.Syms[i].resolve()
	m.symIdx[name] = i
	m.foldSymHash(&m.Syms[i])
	if m.cap != nil {
		m.cap.Syms = append(m.cap.Syms, name)
	}
	return i
}

// uninternedSym returns the index of uninterned host symbol x's cell,
// making it on first use; the cell takes a place in the symbol table and
// the symbol hash as InternSym's would, folded by position, not name. A capture in progress is
// abandoned: its printed constants would read x back interned, so the
// emission cannot be replayed.
func (m *Machine) uninternedSym(x *sexp.Symbol) int {
	m.cap = nil
	if i, ok := m.uninterned[x]; ok {
		return i
	}
	i := len(m.Syms)
	m.Syms = append(m.Syms, SymCell{Name: x.Name, Function: NilWord, Uninterned: true, host: x})
	if m.uninterned == nil {
		m.uninterned = map[*sexp.Symbol]int{}
	}
	m.uninterned[x] = i
	m.foldSymHash(&m.Syms[i])
	return i
}

// SetSymbolFunction installs a function word in a symbol's function cell.
func (m *Machine) SetSymbolFunction(name string, fn Word) {
	m.Syms[m.InternSym(name)].Function = fn
}

// RebindFunction points name at an already-installed function index
// without assembling anything: a loading system uses it when a re-loaded
// definition's body is already resident in this machine, and after a
// durable-cache replay.
func (m *Machine) RebindFunction(name string, idx int) {
	m.funcIdx[name] = idx
}

// SetGlobal sets a symbol's global value cell.
func (m *Machine) SetGlobal(name string, v Word) {
	i := m.InternSym(name)
	m.Syms[i].Value = v
	m.Syms[i].HasValue = true
}

// Box interns an immutable host object and returns its boxed word.
func (m *Machine) Box(v sexp.Value) Word {
	m.Boxes = append(m.Boxes, v)
	return Ptr(TagBoxed, uint64(len(m.Boxes)-1))
}

// Alloc allocates n heap words and returns the base address, reusing
// collected blocks when the garbage collector has produced any.
func (m *Machine) Alloc(n int) uint64 { return m.gcAlloc(n) }

// Cons allocates a cons cell.
func (m *Machine) Cons(car, cdr Word) Word {
	a := m.Alloc(2)
	m.heap[a-HeapBase] = car
	m.heap[a-HeapBase+1] = cdr
	m.Stats.ConsAllocs++
	return Ptr(TagCons, a)
}

// ConsFlonum heap-allocates a float object (the costly conversion of
// §6.2: "conversion from a raw number back to pointer format … may entail
// allocation of new storage and consequent garbage-collection overhead").
func (m *Machine) ConsFlonum(f float64) Word {
	a := m.Alloc(1)
	m.heap[a-HeapBase] = RawFloat(f)
	m.Stats.FlonumAllocs++
	return Ptr(TagFlonum, a)
}

func (m *Machine) load(addr uint64) (Word, error) {
	switch {
	case IsStackAddr(addr):
		if i := addr - StackBase; i < uint64(len(m.stack)) {
			return m.stack[i], nil
		}
		return Word{}, nil
	case addr >= HeapBase && addr < HeapBase+uint64(len(m.heap)):
		return m.heap[addr-HeapBase], nil
	}
	return Word{}, &RuntimeError{PC: m.pc, Msg: fmt.Sprintf("load from bad address %#x", addr)}
}

func (m *Machine) store(addr uint64, w Word) error {
	switch {
	case IsStackAddr(addr):
		i := addr - StackBase
		for i >= uint64(len(m.stack)) {
			m.growStack()
		}
		m.stack[i] = w
		return nil
	case addr >= HeapBase && addr < HeapBase+uint64(len(m.heap)):
		// Write barrier: record the card so a minor collection treats this
		// neighborhood as a root. store and storeFast (engine.go) are the
		// only paths by which compiled code mutates an existing heap block
		// (RPLACA/RPLACD, vector stores, closure-env writes all funnel
		// here), so dirtying the card on every heap store is a complete
		// remembered set.
		off := addr - HeapBase
		m.heap[off] = w
		m.cards[off>>cardShift] = 1
		return nil
	}
	return &RuntimeError{PC: m.pc, Msg: fmt.Sprintf("store to bad address %#x", addr)}
}

func (m *Machine) effaddr(o *Operand) (uint64, error) {
	switch o.Mode {
	case MMem:
		return uint64(int64(m.regs[o.Base].Bits) + o.Off), nil
	case MAbs:
		return uint64(o.Off), nil
	case MIdx:
		a := o.Off
		if o.Base != NoReg {
			a += int64(m.regs[o.Base].Bits)
		}
		if o.Index != NoReg {
			a += int64(m.regs[o.Index].Bits) << o.Shift
		}
		return uint64(a), nil
	}
	return 0, &RuntimeError{PC: m.pc, Msg: "operand has no effective address"}
}

func (m *Machine) value(o *Operand) (Word, error) {
	switch o.Mode {
	case MReg:
		return m.regs[o.Base], nil
	case MImm:
		return o.Imm, nil
	case MMem, MAbs, MIdx:
		a, err := m.effaddr(o)
		if err != nil {
			return Word{}, err
		}
		return m.load(a)
	}
	return Word{}, &RuntimeError{PC: m.pc, Msg: "unreadable operand"}
}

func (m *Machine) push(w Word) error {
	sp := &m.regs[RegSP]
	i := sp.Bits - StackBase // wraps past the segment when SP < StackBase
	for i >= uint64(len(m.stack)) {
		if i >= StackLimit-StackBase {
			return &RuntimeError{PC: m.pc, Msg: "stack overflow"}
		}
		m.growStack()
	}
	m.stack[i] = w
	sp.Bits++
	m.Stats.MaxStack = max(m.Stats.MaxStack, int64(i+1))
	return nil
}

func (m *Machine) pop() (Word, error) {
	sp := m.regs[RegSP].Bits - 1
	if !IsStackAddr(sp) {
		return Word{}, &RuntimeError{PC: m.pc, Msg: "stack underflow"}
	}
	m.regs[RegSP] = RawInt(int64(sp))
	if i := sp - StackBase; i < uint64(len(m.stack)) {
		return m.stack[i], nil
	}
	return Word{}, nil
}

// resolveFn resolves a callable word to a descriptor index and
// environment.
func (m *Machine) resolveFn(w Word) (int, Word, error) {
	switch w.Tag {
	case TagSymbol:
		f := m.Syms[w.Bits].Function
		if f.Tag == TagNil {
			return 0, NilWord, &RuntimeError{PC: m.pc,
				Msg: "undefined function " + m.Syms[w.Bits].Name}
		}
		return m.resolveFn(f)
	case TagFunc:
		return int(w.Bits), NilWord, nil
	case TagClosure:
		fnw, err := m.load(w.Bits)
		if err != nil {
			return 0, NilWord, err
		}
		env, err := m.load(w.Bits + 1)
		if err != nil {
			return 0, NilWord, err
		}
		return int(fnw.Bits), env, nil
	}
	return 0, NilWord, &RuntimeError{PC: m.pc, Msg: "not a function: " + w.String()}
}

// CallFunction invokes a function by name with the given argument words
// and runs to completion, returning the result word.
func (m *Machine) CallFunction(name string, args ...Word) (Word, error) {
	idx := m.FuncNamed(name)
	if idx < 0 {
		return Word{}, fmt.Errorf("s1: no function %q", name)
	}
	return m.CallIndex(idx, args...)
}

// CallIndex invokes function index idx with args. The same panic
// barrier as Run guards the frame setup (argument pushes may allocate
// under a heap limit). Unless the call was preempted, it returns with
// the stack reset to a zeroed initial-size one (resetStack); a call
// that failed also drops the dynamic bindings and catch frames it
// made, as a throw past them would, so the next call on the machine
// sees the global values and no stale catch.
func (m *Machine) CallIndex(idx int, args ...Word) (w Word, err error) {
	binds, catches := len(m.bindStack), len(m.catchStack)
	defer func() {
		if r := recover(); r != nil {
			m.halted = true
			if he, ok := r.(*heapExhausted); ok {
				err = &RuntimeError{PC: m.pc, Msg: he.Error()}
			} else {
				err = &RuntimeError{PC: m.pc, Msg: fmt.Sprintf("machine fault: %v", r)}
			}
		}
		if !errors.Is(err, ErrPreempted) { // a preempted call resumes on it
			if err != nil {
				m.bindStack, m.catchStack = m.bindStack[:binds], m.catchStack[:catches]
			}
			m.resetStack()
		}
	}()
	if p := m.prof; p != nil {
		p.restart(m)
	}
	m.regs[RegSP] = RawInt(StackBase)
	m.regs[RegFP] = RawInt(StackBase)
	m.regs[RegEP] = NilWord
	m.halted = false
	for _, a := range args {
		if err := m.push(a); err != nil {
			return Word{}, err
		}
	}
	if err := m.enterFrame(len(args), 0, Ptr(TagFunc, uint64(idx)), false); err != nil {
		return Word{}, err
	}
	if err := m.Run(); err != nil {
		return Word{}, err
	}
	return m.pop()
}

// enterFrame performs the CALL microcode: frame = [args..., nargs,
// retPC, oldFP, oldEP]; FP points past the saved words.
func (m *Machine) enterFrame(nargs, retPC int, fn Word, fast bool) error {
	idx, env, err := m.resolveFn(fn)
	if err != nil {
		return err
	}
	if err := m.push(RawInt(int64(nargs))); err != nil {
		return err
	}
	if err := m.push(RawInt(int64(retPC))); err != nil {
		return err
	}
	if err := m.push(m.regs[RegFP]); err != nil {
		return err
	}
	if err := m.push(m.regs[RegEP]); err != nil {
		return err
	}
	m.regs[RegFP] = m.regs[RegSP]
	m.regs[RegEP] = env
	m.regs[RegR3] = RawInt(int64(nargs))
	m.pc = m.Funcs[idx].Entry
	m.Stats.Calls++
	if p := m.prof; p != nil {
		p.call(m, idx)
	}
	return nil
}

func (m *Machine) ret() error {
	fp := m.regs[RegFP].Bits
	nw, err := m.load(fp - 4)
	if err != nil {
		return err
	}
	retw, err := m.load(fp - 3)
	if err != nil {
		return err
	}
	oldFP, err := m.load(fp - 2)
	if err != nil {
		return err
	}
	oldEP, err := m.load(fp - 1)
	if err != nil {
		return err
	}
	m.regs[RegSP] = RawInt(int64(fp) - 4 - nw.Int())
	m.regs[RegFP] = oldFP
	m.regs[RegEP] = oldEP
	retPC := retw.Int()
	if retPC < 0 {
		// A gateway call (gatewayReturn): the value stays in A and the
		// caller's registers come back.
		retPC = -retPC
		for r := NumRegs - 1; r >= 0; r-- {
			if gatewaySaves(r) {
				if m.regs[r], err = m.pop(); err != nil {
					return err
				}
			}
		}
	} else if err := m.push(m.regs[RegA]); err != nil {
		return err
	}
	if p := m.prof; p != nil {
		p.ret(m)
	}
	m.pc = int(retPC)
	if m.pc == 0 {
		m.halted = true
	}
	return nil
}

// tailCall reuses the current frame: "a procedure call in this case is
// more akin to a parameter-passing goto than to a recursive call".
func (m *Machine) tailCall(k int, fn Word) error {
	idx, env, err := m.resolveFn(fn)
	if err != nil {
		return err
	}
	fp := m.regs[RegFP].Bits
	nw, err := m.load(fp - 4)
	if err != nil {
		return err
	}
	m.certifyOutgoing(k, fp-4-uint64(nw.Int()))
	// Pop the k outgoing arguments.
	args := make([]Word, k)
	for i := k - 1; i >= 0; i-- {
		if args[i], err = m.pop(); err != nil {
			return err
		}
	}
	savedRet, err := m.load(fp - 3)
	if err != nil {
		return err
	}
	savedFP, err := m.load(fp - 2)
	if err != nil {
		return err
	}
	savedEP, err := m.load(fp - 1)
	if err != nil {
		return err
	}
	m.regs[RegSP] = RawInt(int64(fp) - 4 - nw.Int())
	for _, a := range args {
		if err := m.push(a); err != nil {
			return err
		}
	}
	if err := m.push(RawInt(int64(k))); err != nil {
		return err
	}
	if err := m.push(savedRet); err != nil {
		return err
	}
	if err := m.push(savedFP); err != nil {
		return err
	}
	if err := m.push(savedEP); err != nil {
		return err
	}
	m.regs[RegFP] = m.regs[RegSP]
	m.regs[RegEP] = env
	m.regs[RegR3] = RawInt(int64(k))
	m.pc = m.Funcs[idx].Entry
	if p := m.prof; p != nil {
		p.tail(m, idx)
	}
	return nil
}

// certifyOutgoing passes through heapWord each of the k outgoing
// arguments on top of the stack that is a pdl number at or above lo: a
// tail call rebuilds its frame from lo up, over the slot such a number
// points to. The arguments stay on the stack, rooted, while they are
// copied.
func (m *Machine) certifyOutgoing(k int, lo uint64) {
	sp := m.regs[RegSP].Bits
	for a := sp - uint64(k); a < sp; a++ {
		if i := a - StackBase; IsStackAddr(a) && i < uint64(len(m.stack)) {
			if w := m.stack[i]; pdlNumber(w) && w.Bits >= lo {
				m.stack[i] = m.heapWord(w)
			}
		}
	}
}

// ResetStats clears the meters (not the machine state).
func (m *Machine) ResetStats() {
	m.Stats = Stats{}
	m.safeCharged = 0
}

// CheckStackRegs verifies that SP and FP lie within [StackBase,
// StackLimit] and that the stack is a doubling of its initial size no
// larger than the segment. The differential harness (internal/difftest)
// runs it after every call.
func (m *Machine) CheckStackRegs() error {
	for _, r := range []uint8{RegSP, RegFP} {
		if a := m.regs[r].Bits; a < StackBase || a > StackLimit {
			return fmt.Errorf("s1: register %d = %#x outside the stack segment [%#x, %#x]", r, a, StackBase, StackLimit)
		}
	}
	if n := len(m.stack); n < initialStackWords || n > StackLimit-StackBase || n&(n-1) != 0 {
		return fmt.Errorf("s1: stack has %d words, want a power of two in [%d, %d]", n, initialStackWords, StackLimit-StackBase)
	}
	return nil
}

// PrimArgsDepth reports how many fallback-primitive argument slots are
// in use: zero between calls.
func (m *Machine) PrimArgsDepth() int { return len(m.primArgs) }

// initialStackWords is a new machine's stack size in words (4 KB). A
// short request rarely outgrows it, and an idle session machine keeps
// only this much; a deep program pays one copy per doubling instead.
const initialStackWords = 256

// resetStack leaves a zeroed initial-size stack once a call is over: an
// idle machine (a parked session) then holds initialStackWords however
// deep its last call ran, and the next call starts on zeros.
func (m *Machine) resetStack() {
	if len(m.stack) > initialStackWords {
		m.stack = make([]Word, initialStackWords)
	} else {
		clear(m.stack)
	}
}

// growStack doubles the stack, the one way it grows: callers repeat it
// until the index they write fits, having checked that the index lies in
// the segment. The added half reads zero, and stack addresses, being
// offsets from StackBase, stay valid across the move.
func (m *Machine) growStack() {
	m.stack = append(m.stack, make([]Word, len(m.stack))...)
}

// HeapLoad reads a heap word (for tests and the disassembler).
func (m *Machine) HeapLoad(addr uint64) (Word, error) { return m.load(addr) }
