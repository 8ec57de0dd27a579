// Package codegen is the code-generation phase of §4.5: a single pass
// over the decorated tree, emitting parenthesized S-1 assembly. It
// consumes every earlier annotation — binding strategies, representation
// (WANTREP/ISREP), pdl-number authorizations, and TNBIND locations — and
// produces code in the Table 4 style: argument-count dispatch prologues,
// pdl-slot MOVPs, tail calls as jumps, and the RT-register dance for
// arithmetic.
package codegen

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/binding"
	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/pdl"
	"repro/internal/rep"
	"repro/internal/s1"
	"repro/internal/sexp"
	"repro/internal/tn"
	"repro/internal/tree"
)

// Options select which machine-dependent phases run — the ablation knobs
// of EXPERIMENTS.md.
type Options struct {
	// UseTN enables TNBIND register packing; off, every quantity lives in
	// a frame slot (the E4 baseline).
	UseTN bool
	// RepAnalysis enables representation analysis (E5); off, everything
	// is a pointer.
	RepAnalysis bool
	// PdlNumbers enables stack allocation of numbers (E6).
	PdlNumbers bool
	// SpecialCaching enables the per-subtree special lookup cache (E9).
	SpecialCaching bool
	// Optimize runs the source-level optimizer before compilation.
	Optimize bool
	// CSE additionally runs common-subexpression elimination — the phase
	// the paper designed but left unimplemented; off by default for
	// fidelity.
	CSE bool
	// OptimizerLog receives the transformation transcript.
	OptimizerLog interface{ Write(p []byte) (int, error) }
	// Fault, if non-nil, is the fault-injection plan consulted at every
	// middle-end phase boundary (see internal/diag): injected panics and
	// errors exercise the per-unit recovery paths. Nil costs one pointer
	// check per phase. Not part of the compile-cache key — injected
	// faults abort the unit before anything is stored.
	Fault *diag.Plan
	// OptWatchdog, when >0, bounds the wall-clock time of each unit's
	// optimizer fixpoint; expiry fails the unit with an error instead of
	// hanging the load.
	OptWatchdog time.Duration
}

// DefaultOptions enables every phase.
func DefaultOptions() Options {
	return Options{UseTN: true, RepAnalysis: true, PdlNumbers: true,
		SpecialCaching: true, Optimize: true}
}

// Compiler compiles functions into a machine.
type Compiler struct {
	M    *s1.Machine
	Opts Options

	// constArrays interns compile-time-constant float arrays.
	constArrays map[*sexp.FloatArray]s1.Word
	// gen is a counter for internal function/label names.
	gen int
	// binds are the function-name lookups of the current Emit.
	binds []FuncBind
}

// codeBufs holds emptied abstract-code buffers, handed from one
// compiled lambda to the next so emission does not regrow a slice from
// nil for every function. It is a pool rather than a Compiler field so
// an idle session's compiler keeps no buffer.
var codeBufs = sync.Pool{New: func() any { return new([]absItem) }}

// lowerBufs holds the instruction slab and item list a function is
// lowered into (lower.go). AddFunction is their only reader and copies
// what it keeps (assembled, into the code vector and any capture), so
// they are free for the next function once it returns.
var lowerBufs = sync.Pool{New: func() any { return new(lowerBuf) }}

type lowerBuf struct {
	slab  []s1.Instr // primary slab; its first n entries are in use
	n     int
	items []s1.Item
}

// release clears the buffer's references and returns it to the pool.
func (b *lowerBuf) release() {
	clear(b.slab[:b.n])
	clear(b.items)
	b.n, b.items = 0, b.items[:0]
	lowerBufs.Put(b)
}

// FuncBind is one function-name lookup an emission made and the index
// it got (-1 for none). Emitted code embeds the index of a function
// that is already compiled (#'foo), so a cached body may be reused — a
// resident hit, a durable replay — only while every name its
// emission looked up still resolves the same way.
type FuncBind struct {
	Name  string
	Index int
}

// BindsHold reports whether every lookup in binds gets the same answer
// from m: the condition for replaying the emission into m.
func BindsHold(m *s1.Machine, binds []FuncBind) bool {
	for _, b := range binds {
		if m.FuncNamed(b.Name) != b.Index {
			return false
		}
	}
	return true
}

// ResidentBindsHold reports whether every name in binds that resolved
// to a function still resolves to it: the condition for reusing the
// body the emission left in m. A name that resolved to nothing embedded
// no index of its own — the code calls through the name's symbol, or
// through a primitive stub the emission created, which stays resident.
func ResidentBindsHold(m *s1.Machine, binds []FuncBind) bool {
	for _, b := range binds {
		if b.Index >= 0 && m.FuncNamed(b.Name) != b.Index {
			return false
		}
	}
	return true
}

// Binds returns the first answer to each function name the last Emit
// looked up, in lookup order: the answers its starting machine gave.
func (c *Compiler) Binds() []FuncBind { return c.binds }

// funcNamed is M.FuncNamed, recording the first lookup of each name.
func (c *Compiler) funcNamed(name string) int {
	idx := c.M.FuncNamed(name)
	for _, b := range c.binds {
		if b.Name == name {
			return idx
		}
	}
	c.binds = append(c.binds, FuncBind{Name: name, Index: idx})
	return idx
}

// New returns a compiler targeting m.
func New(m *s1.Machine, opts Options) *Compiler {
	return &Compiler{M: m, Opts: opts}
}

// Prepared is the result of the machine-independent middle end for one
// function: the optimized, fully annotated tree, ready for emission,
// plus the per-unit observability payloads (the buffered optimizer
// transcript and the structured rule events).
type Prepared struct {
	Lam *tree.Lambda
	vr  rep.VarReps
	// transcript buffers the §5 optimizer log for this unit; Emit
	// flushes it to Opts.OptimizerLog, so parallel Prepares never
	// interleave transcript lines and flush order is emission (source)
	// order — byte-identical to a sequential compile.
	transcript *bytes.Buffer
	rules      []obs.RuleEvent
}

// Rules returns the optimizer rule events fired while preparing this
// function (empty unless an obs task was supplied).
func (p *Prepared) Rules() []obs.RuleEvent { return p.rules }

// CodeEstimate is how many instructions Emit is expected to install for
// p, for sizing the code vector before a batch. Emission installs about
// one instruction per unit of the tree's complexity (analysis's
// object-code size estimate) plus about eight per separately compiled
// function, for its entry and exit sequences; that holds within a few
// percent over generated corpora and over feature-rich code alike. The
// estimate adds a quarter to the first term, so a batch's total covers
// it with room for the top-level forms installed after it. A batch that
// outgrows it falls back to doubling.
func (p *Prepared) CodeEstimate() int {
	fns := 0
	tree.Walk(p.Lam, func(n tree.Node) bool {
		if l, ok := n.(*tree.Lambda); ok && (l == p.Lam ||
			l.Strategy == tree.StrategyFastCall || l.Strategy == tree.StrategyFullClosure) {
			fns++
		}
		return true
	})
	return p.Lam.Info().Complexity*5/4 + 8*fns
}

// PrepareTask runs the middle end — source-level optimizer, optional
// CSE, analysis, binding, representation and pdl annotation — for one
// function. It reads no mutable compiler or machine state (each call owns
// a fresh optimizer; constant folding only reads the process-wide
// builtin table), so distinct functions may be prepared concurrently;
// only Emit must be serialized. Each middle-end phase records a span on
// the task (nil task = no tracing), and optimizer rule fires are
// collected as structured events on the Prepared.
func (c *Compiler) PrepareTask(name string, lam *tree.Lambda, task *obs.Task) (*Prepared, error) {
	p := &Prepared{}
	if c.Opts.Optimize {
		if err := c.Opts.Fault.Fire("optimize", name); err != nil {
			return nil, err
		}
		oo := opt.DefaultOptions()
		oo.Watchdog = c.Opts.OptWatchdog
		if c.Opts.OptimizerLog != nil {
			p.transcript = &bytes.Buffer{}
			oo.Log = p.transcript
		}
		if task.Live() {
			oo.OnRule = func(rule, before, after string) {
				p.rules = append(p.rules, obs.RuleEvent{
					Unit: name, Rule: rule, Before: before, After: after,
					Ts: task.Since(), Worker: task.Worker(),
				})
			}
		}
		sp := task.Start("optimize")
		o := opt.New(oo)
		n := o.Optimize(lam)
		if o.TimedOut() {
			return nil, fmt.Errorf("codegen: optimizer watchdog (%v) expired on %s before fixpoint",
				c.Opts.OptWatchdog, name)
		}
		var ok bool
		if lam, ok = n.(*tree.Lambda); !ok {
			return nil, fmt.Errorf("codegen: optimizer folded %s away to %s", name, tree.Show(n))
		}
		if err := tree.Validate(lam); err != nil {
			return nil, fmt.Errorf("codegen: optimizer broke %s: %w", name, err)
		}
		sp.SetNodes(tree.CountNodes(lam))
		sp.End()
		if c.Opts.CSE {
			if err := c.Opts.Fault.Fire("cse", name); err != nil {
				return nil, err
			}
			sp := task.Start("cse")
			opt.EliminateCommonSubexpressions(lam)
			if err := tree.Validate(lam); err != nil {
				return nil, fmt.Errorf("codegen: CSE broke %s: %w", name, err)
			}
			sp.SetNodes(tree.CountNodes(lam))
			sp.End()
		}
	}
	if err := c.Opts.Fault.Fire("analysis", name); err != nil {
		return nil, err
	}
	// Optimize ends with a full analysis, which only CSE's rewriting
	// invalidates, so the walk (and its span) runs here only when the
	// tree has not had one since it last changed.
	if !c.Opts.Optimize || c.Opts.CSE {
		sp := task.Start("analysis")
		analysis.Analyze(lam)
		sp.End()
	}
	if err := c.Opts.Fault.Fire("binding", name); err != nil {
		return nil, err
	}
	sp := task.Start("binding")
	binding.Annotate(lam)
	sp.End()
	if err := c.Opts.Fault.Fire("rep", name); err != nil {
		return nil, err
	}
	sp = task.Start("rep")
	vr := rep.Annotate(lam, c.Opts.RepAnalysis)
	sp.End()
	if err := c.Opts.Fault.Fire("pdl", name); err != nil {
		return nil, err
	}
	sp = task.Start("pdl")
	pdl.Annotate(lam, c.Opts.PdlNumbers)
	sp.End()
	p.Lam, p.vr = lam, vr
	return p, nil
}

// flushTranscript writes this unit's buffered optimizer transcript to
// the shared log. Called from Emit, which callers serialize in source
// order, so transcripts appear exactly as in a sequential compile.
func (c *Compiler) flushTranscript(p *Prepared) {
	if p.transcript != nil && c.Opts.OptimizerLog != nil {
		c.Opts.OptimizerLog.Write(p.transcript.Bytes())
		p.transcript = nil
	}
}

// Emit lowers a Prepared function into the machine and installs the
// symbol's function cell, returning the function index. Emission mutates
// shared machine state (code, symbol and function tables, the heap), so
// concurrent callers must serialize Emit — in source order, if the
// resulting image is to be independent of how Prepares were scheduled.
func (c *Compiler) Emit(name string, p *Prepared) (int, error) {
	idx, err := c.EmitBody(name, p)
	if err != nil {
		return 0, err
	}
	c.M.SetSymbolFunction(name, s1.Ptr(s1.TagFunc, uint64(idx)))
	return idx, nil
}

// EmitBody is Emit without the function cell: the body is reachable
// only through its index and the machine's name table (a macro
// expander, say, which no call in user code may reach).
func (c *Compiler) EmitBody(name string, p *Prepared) (int, error) {
	c.binds = nil
	c.flushTranscript(p)
	return c.compileLambda(name, p.Lam, nil, p.vr)
}

// frameCtx describes one lexical frame for closure compilation: the heap
// environment slot order and the chain to outer frames.
type frameCtx struct {
	parent  *frameCtx
	envVars []*tree.Var
}

func (f *frameCtx) find(v *tree.Var) (depth, slot int, ok bool) {
	d := 0
	for c := f; c != nil; c = c.parent {
		for i, ev := range c.envVars {
			if ev == v {
				return d, i, true
			}
		}
		d++
	}
	return 0, 0, false
}

// fc is the per-function compilation state.
type fc struct {
	c    *Compiler
	name string
	lam  *tree.Lambda
	vr   rep.VarReps

	alloc *tn.Allocator
	code  []absItem

	// varTN maps frame-resident variables to their TNs; params use fixed
	// homes instead.
	varTN map[*tree.Var]*tn.TN
	// paramHome maps parameters to their fixed operands.
	paramHome map[*tree.Var]s1.Operand

	// jump-strategy lambdas: label, parameter TNs, pending emission.
	jumpBlocks map[*tree.Lambda]*jumpBlock
	pending    []*tree.Lambda

	// env handling
	frame  *frameCtx // this function's frame (with parent chain)
	envTN  *tn.TN    // local holding this frame's env object, if any
	hasEnv bool

	// special caching
	placements map[*sexp.Symbol]tree.Node
	specCache  map[*sexp.Symbol]*tn.TN

	specialsBound int // dynamic bindings made by the prologue
	dynSpecials   int // let-bound dynamic bindings currently in force
	catchDepth    int

	pbCtxs []pbCtx // active progbody contexts

	// pdlSlots are the stack slots holding pdl-number data; their
	// lifetime "must extend at least as far as the lifetime of the
	// program node … that originally authorized creation of a pdl
	// number" — we conservatively extend them to the end of the function.
	pdlSlots []*tn.TN

	lowered *lowerBuf // storage of the lowered items, released after install

	frameSizePatch int // index of the prologue ADD SP instruction
	labelCounter   int
	retLabel       string
	nReserved      int // reserved frame slots (normalized params etc.)
}

type jumpBlock struct {
	label  string
	params []*tn.TN
	// startTick is the emission tick of the block's label (0 until the
	// block is emitted); a call to an already-emitted block is a backward
	// jump.
	startTick int
}

// pbCtx is an active progbody emission context.
type pbCtx struct {
	pb       *tree.ProgBody
	end      string
	res      *tn.TN
	tags     map[*sexp.Symbol]string
	tagTicks map[*sexp.Symbol]int
}

func (c *Compiler) gensym(prefix string) string {
	c.gen++
	return fmt.Sprintf("%s%d", prefix, c.gen)
}

// GenCount reads the gensym counter. Generated label names embed it, so
// the durable compile cache records it alongside each capture: an entry
// replays only at the counter value it was captured at, and the counter
// is then advanced (SetGenCount) exactly as a recompile would have.
func (c *Compiler) GenCount() int { return c.gen }

// SetGenCount sets the gensym counter (durable-cache replay).
func (c *Compiler) SetGenCount(n int) { c.gen = n }

// ConstArrayWord reports the machine word of an interned compile-time
// constant float array (the machine holds its own copy of the data).
func (c *Compiler) ConstArrayWord(fa *sexp.FloatArray) (s1.Word, bool) {
	w, ok := c.constArrays[fa]
	return w, ok
}

// primStub returns (creating on demand) a callable function wrapping a
// primitive: its body hands the whole argument frame to the primitive
// gateway. This is what #'car denotes as a value.
func (c *Compiler) primStub(name string) (int, error) {
	stub := "%prim-" + name
	if idx := c.funcNamed(stub); idx >= 0 {
		return idx, nil
	}
	sym := c.M.InternSym(name)
	items := []s1.Item{
		s1.InstrItem(s1.Instr{Op: s1.OpCALLSQ, TagArg: s1.SQPrimFrame,
			B: s1.ImmInt(int64(sym)), Comment: "primitive " + name}),
		s1.InstrItem(s1.Instr{Op: s1.OpRET}),
	}
	return c.M.AddFunction(stub, 0, -1, items)
}

// compileLambda compiles one activation-bearing lambda (FastCall or
// FullClosure, or a top-level function) and returns its function index.
func (c *Compiler) compileLambda(name string, lam *tree.Lambda, parent *frameCtx, vr rep.VarReps) (int, error) {
	f := &fc{
		c: c, name: name, lam: lam, vr: vr,
		alloc:      tn.New(!c.Opts.UseTN),
		varTN:      map[*tree.Var]*tn.TN{},
		paramHome:  map[*tree.Var]s1.Operand{},
		jumpBlocks: map[*tree.Lambda]*jumpBlock{},
		specCache:  map[*sexp.Symbol]*tn.TN{},
	}
	buf := codeBufs.Get().(*[]absItem)
	f.code = (*buf)[:0]
	defer func() {
		clear(f.code) // drop the TN and string references
		*buf = f.code[:0]
		codeBufs.Put(buf)
		if f.lowered != nil {
			f.lowered.release()
		}
	}()
	// Heap literals emitted into the body are referenced only by the
	// item list until AddFunction installs it; they stay pinned until
	// then (nested lambdas unpin just their own).
	defer c.M.Unpin(c.M.PinDepth())

	// Frame env: every Closed variable whose home frame is this lambda.
	f.frame = &frameCtx{parent: parent}
	collectFrameEnvVars(lam, f.frame)
	f.hasEnv = len(f.frame.envVars) > 0

	if c.Opts.SpecialCaching {
		pls := analysis.SpecialPlacements(lam)
		f.placements = pls[lam]
	}

	if err := f.emitFunction(); err != nil {
		return 0, err
	}
	items, minA, maxA, err := f.finish()
	if err != nil {
		return 0, err
	}
	return c.M.AddFunction(name, minA, maxA, items)
}

// collectFrameEnvVars gathers heap variables belonging to lam's frame:
// its own closed params plus closed vars of open/jump lambdas executing
// in the same frame.
func collectFrameEnvVars(lam *tree.Lambda, f *frameCtx) {
	seen := map[*tree.Var]bool{}
	add := func(v *tree.Var) {
		if v.Closed && !seen[v] {
			seen[v] = true
			f.envVars = append(f.envVars, v)
		}
	}
	for _, v := range lam.Params() {
		add(v)
	}
	var walk func(n tree.Node)
	walk = func(n tree.Node) {
		if inner, ok := n.(*tree.Lambda); ok && inner != lam {
			// Open/jump lambdas share this frame; others start new ones.
			if inner.Strategy == tree.StrategyOpen || inner.Strategy == tree.StrategyJump {
				for _, v := range inner.Params() {
					add(v)
				}
			} else {
				return
			}
		}
		var buf [tree.ChildBuf]tree.Node
		for _, ch := range tree.AppendChildren(buf[:0], n) {
			walk(ch)
		}
	}
	walk(lam.Body)
}

func (f *fc) label(prefix string) string {
	f.labelCounter++
	return fmt.Sprintf("%s$%s%d", f.name, prefix, f.labelCounter)
}

// --- abstract instructions ---

// absOperand is either a concrete operand or a TN placeholder.
type absOperand struct {
	op s1.Operand
	tn *tn.TN
}

func conc(op s1.Operand) absOperand { return absOperand{op: op} }
func tnOp(t *tn.TN) absOperand      { return absOperand{tn: t} }

var noOperand = absOperand{}

type absItem struct {
	label    string
	op       s1.Op
	a, b, cc absOperand
	tagArg   int64
	comment  string
	tick     int
	present  bool // instruction (vs label)
}

func (f *fc) emitLabel(l string) {
	f.code = append(f.code, absItem{label: l})
}

func (f *fc) emit(op s1.Op, a, b, cc absOperand, tagArg int64, comment string) {
	t := f.alloc.Tick()
	switch op {
	case s1.OpCALL, s1.OpTCALL, s1.OpCALLF, s1.OpTCALLF:
		f.alloc.NoteCall()
	case s1.OpCALLSQ:
		if tagArg == s1.SQApplyList {
			f.alloc.NoteCall()
		} else {
			f.alloc.NoteSQ()
		}
	}
	touch := func(o absOperand) {
		if o.tn != nil {
			o.tn.Touch(t)
		}
	}
	touch(a)
	touch(b)
	touch(cc)
	f.code = append(f.code, absItem{op: op, a: a, b: b, cc: cc,
		tagArg: tagArg, comment: comment, tick: t, present: true})
}

// newTN makes a fresh TN touched at the current tick.
func (f *fc) newTN(name string) *tn.TN {
	t := f.alloc.NewTN(name)
	t.Touch(f.alloc.Now())
	return t
}
