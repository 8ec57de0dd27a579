package s1

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
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
	// tierDepth is the tier engine's shadow-stack depth at CATCH time
	// (tier.go), kept the same way for hot-function attribution.
	tierDepth int
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

	stack []Word
	// stackDirty is the stack's dirty mark: one past the highest stack
	// index written since the storage was last cleared. Every word at or
	// above it is zero (the tests check this with CheckStackInvariant),
	// so recycling the segment clears only stack[:stackDirty] — the
	// words this machine actually wrote — instead of all 16 MB. Every
	// stack write site raises it: store, push, storeFast, enterFrameIC,
	// tailCallIC, LoadImage.
	stackDirty uint64
	heap       []Word
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
	// gcStressMinor forces a minor before every allocation. minorBudget
	// (with its sticky overrun flag) and promotedSinceFull drive the
	// minor→full escalation policy in collectAuto.
	gcNoGen           bool
	gcStressMinor     bool
	minorBudget       time.Duration
	minorOverBudget   bool
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
	// The disabled fast path costs one nil check per instruction.
	prof *Profile
	// Decoded execution state (decode.go). decBase holds one pre-decoded
	// closure per Code index; dec is the dispatch stream — a copy of
	// decBase with lowered-block closures installed at the block heads
	// of tier-promoted functions.
	decBase []dinstr
	dec     []dinstr
	// tier, when non-nil, is the tiered-execution engine (tier.go):
	// per-function hot counters, trace re-fusion and block lowering.
	// tierHeads marks PCs that are block leaders (or not covered by a
	// lowered block at all); a false entry means the PC is a lowered
	// block's interior, so ret/throw landing there report it to the
	// engine as a re-fusion boundary.
	tier      *tierEngine
	tierHeads []bool

	// cap, when non-nil, records emission-time machine mutations for the
	// durable compile cache (capture.go); capDepth guards FromValue
	// recursion so only top-level constant builds are recorded.
	cap      *Capture
	capDepth int
	// symHash incrementally fingerprints the symbol table contents for
	// AllocContext (capture.go).
	symHash uint64
	// gcStress forces a full collection before every allocation
	// (-gc-stress): construction-order bugs that normally need precise
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
	// convention: "gc-pause", "tier-promote", "tier-refusion"; unit names
	// the function where that applies; d carries a duration when the
	// event has one). The hook fires on collection and tier-transition
	// paths only — never per instruction — so the disabled cost is a nil
	// check at those sites.
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

// Interrupted reports whether a kill is pending.
func (m *Machine) Interrupted() bool { return m.signal.Load() == sigKill }

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
		tier:      &tierEngine{threshold: DefaultHotThreshold},
	}
	// Draw from the shared stack pool rather than always allocating: a
	// server creating thousands of short-lived or parked machines
	// recycles the same few 16 MB slices.
	m.ensureStack()
	if a != nil {
		a.adopt(m)
	}
	return m
}

// AddFunction assembles a function body into the machine, pre-decodes it
// for execution (decode.go), and registers its descriptor; returns the
// function index.
func (m *Machine) AddFunction(name string, minArgs, maxArgs int, items []Item) (int, error) {
	code, entry, err := assemble(name, items, m.Code)
	if err != nil {
		return 0, err
	}
	m.Code = code
	idx := len(m.Funcs)
	m.Funcs = append(m.Funcs, FuncDesc{
		Name: name, Entry: entry, End: len(code),
		MinArgs: minArgs, MaxArgs: maxArgs,
	})
	m.funcIdx[name] = idx
	m.ensureDecoded()
	if t := m.tier; t != nil {
		t.ensure(len(m.Funcs))
		if t.threshold <= 0 {
			t.promote(m, idx)
		}
	}
	if m.cap != nil {
		m.cap.Funcs = append(m.cap.Funcs, CapturedFunc{
			Name: name, MinArgs: minArgs, MaxArgs: maxArgs, Items: FromItems(items),
		})
	}
	return idx, nil
}

// DecodedCovers reports whether the decoded stream covers [entry, end) —
// the compile cache validates it before rebinding a name to a resident
// body, since a cache-hit rebind reuses the decoded form without
// re-assembling anything.
func (m *Machine) DecodedCovers(entry, end int) bool {
	return entry >= 0 && entry <= end && end <= len(m.decBase)
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
	m.symIdx[name] = i
	m.foldSymHash(name)
	if m.cap != nil {
		m.cap.Syms = append(m.cap.Syms, name)
	}
	return i
}

// SetSymbolFunction installs a function word in a symbol's function cell.
func (m *Machine) SetSymbolFunction(name string, fn Word) {
	m.Syms[m.InternSym(name)].Function = fn
}

// RebindFunction points name at an already-installed function index
// without assembling anything: the compile cache uses it when a re-loaded
// definition's body is already resident in this machine.
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
		return m.stack[addr-StackBase], nil
	case addr >= HeapBase && addr < HeapBase+uint64(len(m.heap)):
		return m.heap[addr-HeapBase], nil
	}
	return Word{}, &RuntimeError{PC: m.pc, Msg: fmt.Sprintf("load from bad address %#x", addr)}
}

func (m *Machine) store(addr uint64, w Word) error {
	switch {
	case IsStackAddr(addr):
		i := addr - StackBase
		m.stack[i] = w
		if i >= m.stackDirty {
			m.stackDirty = i + 1
		}
		return nil
	case addr >= HeapBase && addr < HeapBase+uint64(len(m.heap)):
		// Write barrier: record the card so a minor collection treats this
		// neighborhood as a root. store and storeFast (tier.go) are the
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

func (m *Machine) effaddr(o Operand) (uint64, error) {
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

func (m *Machine) value(o Operand) (Word, error) {
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

func (m *Machine) setValue(o Operand, w Word) error {
	switch o.Mode {
	case MReg:
		m.regs[o.Base] = w
		return nil
	case MMem, MAbs, MIdx:
		a, err := m.effaddr(o)
		if err != nil {
			return err
		}
		return m.store(a, w)
	}
	return &RuntimeError{PC: m.pc, Msg: "unwritable operand"}
}

func (m *Machine) push(w Word) error {
	sp := m.regs[RegSP].Bits
	i := sp - StackBase // wraps past the segment when sp < StackBase
	if i >= StackLimit-StackBase {
		return &RuntimeError{PC: m.pc, Msg: "stack overflow"}
	}
	m.stack[i] = w
	m.stackDirty = max(m.stackDirty, i+1)
	m.regs[RegSP] = RawInt(int64(sp + 1))
	m.Stats.MaxStack = max(m.Stats.MaxStack, int64(i+1))
	return nil
}

func (m *Machine) pop() (Word, error) {
	sp := m.regs[RegSP].Bits - 1
	if !IsStackAddr(sp) {
		return Word{}, &RuntimeError{PC: m.pc, Msg: "stack underflow"}
	}
	m.regs[RegSP] = RawInt(int64(sp))
	return m.stack[sp-StackBase], nil
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
// under a heap limit).
func (m *Machine) CallIndex(idx int, args ...Word) (w Word, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.halted = true
			if he, ok := r.(*heapExhausted); ok {
				err = &RuntimeError{PC: m.pc, Msg: he.Error()}
			} else {
				err = &RuntimeError{PC: m.pc, Msg: fmt.Sprintf("machine fault: %v", r)}
			}
		}
	}()
	if p := m.prof; p != nil {
		p.restart(m)
	}
	if t := m.tier; t != nil {
		t.restart()
	}
	m.ensureStack()
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
	if t := m.tier; t != nil {
		t.onCall(m, idx)
	}
	return nil
}

// Run executes until HALT or error, dispatching the pre-decoded
// instruction stream (decode.go): one closure call per instruction, or
// per lowered block in a tier-promoted function (tier.go). Panics raised
// below the instruction loop — heap exhaustion after a failed
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
	m.ensureDecoded()
	m.ensureStack()
	dec, limit := m.dec, m.StepLimit
	// Safepoints are spaced by retired instructions, not dispatches: a
	// lowered-block dispatch can retire blockChunk instructions, so a
	// dispatch counter would stretch the poll interval by that factor.
	nextPoll := m.Stats.Instrs + interruptEvery
	for !m.halted {
		if m.Stats.Instrs >= limit {
			return &RuntimeError{PC: m.pc, Msg: "step limit exceeded"}
		}
		if m.Stats.Instrs >= nextPoll {
			nextPoll = m.Stats.Instrs + interruptEvery
			if err := m.pollSafepoint(); err != nil {
				return err
			}
		}
		pc := m.pc
		if pc < 0 || pc >= len(dec) {
			return &RuntimeError{PC: pc, Msg: "PC out of range"}
		}
		d := dec[pc]
		if d.n > 1 && m.Stats.Instrs+int64(d.n) > limit {
			// The lowered block could overshoot -max-steps; retire its
			// instructions one at a time so the limit trips at the exact
			// original-instruction count, as plain dispatch would.
			d = m.decBase[pc]
		}
		if err := d.run(m); err != nil {
			return err
		}
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
	if err := m.push(m.regs[RegA]); err != nil {
		return err
	}
	if p := m.prof; p != nil {
		p.ret(m)
	}
	m.pc = int(retw.Int())
	if th := m.tierHeads; th != nil && m.pc >= 0 && m.pc < len(th) && !th[m.pc] {
		m.tier.noteLanding(m, m.pc)
	}
	if t := m.tier; t != nil {
		t.onRet(m)
	}
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
	// Pop the k outgoing arguments.
	args := make([]Word, k)
	for i := k - 1; i >= 0; i-- {
		if args[i], err = m.pop(); err != nil {
			return err
		}
	}
	fp := m.regs[RegFP].Bits
	nw, err := m.load(fp - 4)
	if err != nil {
		return err
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
	if t := m.tier; t != nil {
		t.onTail(m, idx)
	}
	return nil
}

// ResetStats clears the meters (not the machine state).
func (m *Machine) ResetStats() {
	m.Stats = Stats{}
	m.safeCharged = 0
}

// stackPool is the one recycler of full-size machine stacks. Parked
// session machines (ParkStack) and released request machines
// (ReleaseArena) hand their segment back as stack[:stackDirty] — the
// slice length carries the dirty mark, the capacity is the full
// segment — and ensureStack clears just that prefix when it reattaches
// one. Reset therefore costs time proportional to the words the last
// tenant wrote, not the 16 MB segment, and because every word past the
// mark is already zero a program that reads stack slots it never wrote
// still cannot see another tenant's words. Clearing on attach rather
// than release keeps park and release O(1).
//
// It is a bounded LIFO rather than a sync.Pool: a sync.Pool empties
// itself every other GC cycle, and under slcd's allocation rate that
// sent a steady trickle of machines to a fresh 16 MB allocation, whose
// zeroing costs what the dirty mark saves. It retains at most
// GOMAXPROCS segments, the default number of machines slcd runs at once
// (its Workers); a segment released into a full pool is left to the Go
// collector.
var stackPool struct {
	mu   sync.Mutex
	segs [][]Word
}

// ensureStack attaches stack storage to a machine whose stack was
// parked (or never allocated). Idempotent and cheap when the stack is
// already present.
func (m *Machine) ensureStack() {
	if m.stack != nil {
		return
	}
	m.stackDirty = 0
	stackPool.mu.Lock()
	if n := len(stackPool.segs); n > 0 {
		v := stackPool.segs[n-1]
		stackPool.segs[n-1] = nil
		stackPool.segs = stackPool.segs[:n-1]
		stackPool.mu.Unlock()
		clear(v)
		m.stack = v[:cap(v)]
		return
	}
	stackPool.mu.Unlock()
	m.stack = make([]Word, StackLimit-StackBase)
}

// releaseStack hands the machine's stack segment to stackPool, its
// length trimmed to the dirty mark, and detaches it from the machine.
func (m *Machine) releaseStack() {
	if m.stack == nil {
		return
	}
	retain := runtime.GOMAXPROCS(0)
	stackPool.mu.Lock()
	if len(stackPool.segs) < retain {
		stackPool.segs = append(stackPool.segs, m.stack[:m.stackDirty])
	}
	stackPool.mu.Unlock()
	m.stack, m.stackDirty = nil, 0
}

// ParkStack detaches the machine's stack into the shared pool and
// returns true. Only legal between runs; the next Run/CallIndex
// reattaches storage automatically. A machine with live frames (SP
// above the stack base, e.g. after an interrupted run) declines:
// parking would silently replace those frames with zeros under a live
// SP, which the GC scans.
func (m *Machine) ParkStack() bool {
	if m.stack == nil {
		return false
	}
	if sp := m.regs[RegSP].Bits; IsStackAddr(sp) && sp != StackBase {
		return false
	}
	m.releaseStack()
	return true
}

// HeapLoad reads a heap word (for tests and the disassembler).
func (m *Machine) HeapLoad(addr uint64) (Word, error) { return m.load(addr) }
