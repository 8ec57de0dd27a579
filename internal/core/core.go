// Package core is the public face of the S-1 Lisp reproduction: a System
// bundles the reader, the preliminary converter, the source-level
// optimizer, the machine-dependent annotation phases, the code generator
// and the S-1 simulator, with the reference interpreter on demand as a
// test oracle. Load Lisp source, call compiled functions, inspect
// listings and transcripts, and meter everything.
//
//	sys := core.NewSystem(core.Options{})
//	sys.LoadString(`(defun f (x) (* x x))`)
//	v, _ := sys.Call("f", sexp.Fixnum(9))   // compiled, on the simulator
//	w, _ := sys.Interpret("f", sexp.Fixnum(9)) // tree interpreter
package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/codegen"
	"repro/internal/compilecache"
	"repro/internal/convert"
	"repro/internal/diag"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/s1"
	"repro/internal/sexp"
	"repro/internal/tree"
)

// Options configure a System. The zero value enables every compiler
// phase.
type Options struct {
	// Codegen holds the per-phase toggles; zero means all phases on.
	Codegen *codegen.Options
	// OptimizerLog receives the §5-style transformation transcript.
	OptimizerLog io.Writer
	// Out receives print output from the machine and from Interpret.
	Out io.Writer
	// Constants are symbols resolved at compile time to literal values
	// (the static arrays of the §6.1 experiments).
	Constants map[string]sexp.Value
	// Jobs bounds the concurrent middle-end workers used while loading:
	// each defun's optimizer fixpoint, analyses and annotation phases run
	// as an independent unit on a worker pool, with machine installation
	// serialized in source order (so the built image is byte-identical to
	// a sequential load). 0 means GOMAXPROCS; 1 compiles sequentially.
	// The optimizer transcript stays in source order at any Jobs value:
	// each unit buffers its transcript during Prepare and the serialized
	// emit step flushes the buffers in source order.
	Jobs int
	// Obs, if non-nil, records per-phase compile spans and optimizer
	// rule-provenance events for the whole load (see internal/obs). Nil
	// costs one pointer check per phase.
	Obs *obs.Recorder
	// DiskCache, if non-nil, turns on the content-addressed compile
	// cache, backed by this durable store. Each keyed unit (same printed
	// source, same options, same proclamations of the specials it uses,
	// no macro redefinition in between) is first looked up among the
	// bodies this system already installed, which it rebinds without
	// compiling; a miss there probes the crash-safe store and, when the
	// entry's recorded allocator context matches this machine, replays
	// its captured emission instead of compiling — producing the
	// byte-identical image a recompile would have. The handle is shared:
	// many Systems (and many processes) may use one. Hit/miss counts
	// appear in Stats(). Ignored when Constants is non-empty, because
	// compile-time constant arrays are interned per-process and would
	// break cross-process replay.
	DiskCache *compilecache.Disk
	// GCStress forces a simulator collection before every heap
	// allocation (the -gc-stress flag), surfacing construction-order GC
	// bugs deterministically. Orders of magnitude slower; testing only.
	GCStress bool
	// GCStressMinor forces a *minor* collection before every allocation
	// (the -gc-stress-minor flag): the generational counterpart of
	// GCStress, turning any missing write barrier into a deterministic
	// poisoned read. Testing only.
	GCStressMinor bool
	// GCNoGen makes every automatic collection a full mark-sweep (the
	// -gc-nogen flag), disabling minor collections. The differential
	// suites compare this mode against the generational default;
	// observable behavior (results, stats, profiles) is identical.
	GCNoGen bool
	// Arena, if non-nil, recycles a previous machine's heap, GC-record,
	// stack and card storage into this system's machine (the slcd
	// per-request pool; see s1.NewFromArena). The machine takes ownership
	// until s1.Machine.ReleaseArena hands the storage back.
	Arena *s1.Arena
	// MaxErrors bounds the error diagnostics *stored* per load (the
	// -max-errors flag): 0 means the default of 20, negative means
	// unlimited. Failures past the cap are still counted (and still fail
	// the load), so the surviving image never depends on the cap.
	MaxErrors int
	// Fault is the fault-injection plan consulted at phase boundaries
	// (the -fault flag / SLC_FAULT env; see diag.ParsePlan). Nil means
	// no injection.
	Fault *diag.Plan
	// MaxSteps overrides the simulator's total instruction budget
	// (the -max-steps flag; 0 keeps the machine default).
	MaxSteps int64
	// MaxHeapWords bounds live simulator heap words (the -max-heap
	// flag): an allocation that cannot fit even after a forced GC fails
	// with a RuntimeError instead of growing the heap without bound.
	// 0 means unlimited.
	MaxHeapWords int64
	// OptWatchdog bounds the wall-clock time of each unit's optimizer
	// fixpoint (the -opt-watchdog flag); an expired unit fails with a
	// diagnostic. 0 means no watchdog.
	OptWatchdog time.Duration
	// Flight, if non-nil, receives runtime and cache events (GC pauses,
	// disk-cache hit/miss) for the always-on flight
	// recorder. Shared across Systems; events carry TraceID.
	Flight *obs.Flight
	// TraceID is the W3C trace id stamped on this system's flight events
	// (the daemon sets it per request).
	TraceID string
}

// DefaultMaxErrors is the stored-diagnostic cap when Options.MaxErrors
// is zero.
const DefaultMaxErrors = 20

// System is a complete Lisp implementation instance.
type System struct {
	Machine  *s1.Machine
	Conv     *convert.Converter
	Compiler *codegen.Compiler
	// Defs holds the converted program definitions for inspection.
	Defs map[string]int // name -> function index

	// Obs is the observability recorder this system reports to (nil when
	// tracing is off).
	Obs *obs.Recorder

	// macros maps each macro to its expander's function index.
	macros        map[*sexp.Symbol]int
	toplevelCount int
	batchCount    int
	// expansions counts user-macro expansions (an expander runs machine
	// code, whose result a request plan cannot replay).
	expansions int
	// loaded is set by the system's first load; a restored system starts
	// without it (see EvalStringDiag on keying top-level forms).
	loaded bool
	// sources accumulates every loaded source text, in load order — the
	// script a snapshot stores so a restore can rebind definitions,
	// expanders and proclamations without compiling (snapshot.go), and
	// from which Interpret builds its reference interpreter, the oracle
	// (nil until first used).
	sources []string
	oracle  *oracle

	jobs int
	// disk is the compile cache (nil = none: no unit is keyed) and
	// resident the keyed defun bodies this system installed, by unit
	// key; macroEpoch is a non-source cache-key input (see
	// compilecache.Key). The function table only grows (LoadImage
	// replaces it only at restore, before any load), so a resident index
	// stays valid for the system's life.
	disk       *compilecache.Disk
	resident   map[string]residentBody
	macroEpoch int

	// fault is the injection plan (nil = none); maxErrors is the
	// resolved stored-diagnostic cap (0 = unlimited).
	fault     *diag.Plan
	maxErrors int

	// flight is the event recorder (nil = none); traceID stamps its
	// events with the owning request's trace.
	flight  *obs.Flight
	traceID string

	// boot is the rehydrated snapshot this system was restored from (nil
	// for NewSystem), whose request plans its first load may use or
	// record; plans counts that (plan.go).
	boot  *Rehydrated
	plans PlanStats
}

// NewSystem builds a system.
func NewSystem(opts Options) *System {
	m := s1.NewFromArena(opts.Arena)
	if opts.Out != nil {
		m.Out = opts.Out
	}
	setPrimHook(m)
	co := codegen.DefaultOptions()
	if opts.Codegen != nil {
		co = *opts.Codegen
	}
	if opts.OptimizerLog != nil {
		co.OptimizerLog = opts.OptimizerLog
	}
	co.Fault = opts.Fault
	co.OptWatchdog = opts.OptWatchdog
	if opts.MaxSteps > 0 {
		m.StepLimit = opts.MaxSteps
	}
	if opts.MaxHeapWords > 0 {
		m.HeapLimit = opts.MaxHeapWords
	}
	if opts.GCStress {
		m.SetGCStress(true)
	}
	if opts.GCStressMinor {
		m.SetGCStressMinor(true)
	}
	if opts.GCNoGen {
		m.SetGCNoGen(true)
	}
	maxErrors := opts.MaxErrors
	switch {
	case maxErrors == 0:
		maxErrors = DefaultMaxErrors
	case maxErrors < 0:
		maxErrors = 0 // unlimited
	}
	conv := convert.New()
	if len(opts.Constants) > 0 {
		consts := map[*sexp.Symbol]sexp.Value{}
		for k, v := range opts.Constants {
			consts[sexp.Intern(k)] = v
		}
		conv.Constants = consts
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	sys := &System{
		Machine:   m,
		Conv:      conv,
		Compiler:  codegen.New(m, co),
		Defs:      map[string]int{},
		Obs:       opts.Obs,
		macros:    map[*sexp.Symbol]int{},
		jobs:      jobs,
		fault:     opts.Fault,
		maxErrors: maxErrors,
		flight:    opts.Flight,
		traceID:   opts.TraceID,
	}
	if fl := opts.Flight; fl != nil {
		tid := opts.TraceID
		m.OnEvent = func(kind, unit string, d time.Duration) {
			fl.Record(obs.Event{Kind: kind, Trace: tid, Unit: unit, DurNs: int64(d)})
		}
	}
	if opts.DiskCache != nil && len(opts.Constants) == 0 {
		sys.disk = opts.DiskCache
		sys.resident = map[string]residentBody{}
	}
	// Macro expanders are functions on the machine, bound in its name
	// table only, never in a function cell; an expansion calls one as
	// Call would, under the machine's budgets.
	wireMacros(sys.Conv, sys.macros, func(name *sexp.Symbol, lam *tree.Lambda) (int, error) {
		fn := expanderName(name, sys.macroEpoch)
		p, err := sys.safePrepare(fn, lam, sys.Obs.Task(fn, 0), 0)
		if err != nil {
			return 0, err
		}
		idx, err := sys.Compiler.EmitBody(fn, p)
		if err == nil {
			// A (re)defined macro can change any later expansion, and a
			// printed form does not reveal which macros it consumed: epoch
			// the cache keys so every earlier entry stops matching.
			sys.macroEpoch++
		}
		return idx, err
	}, func(head *sexp.Symbol, idx int, args []sexp.Value) (sexp.Value, error) {
		sys.expansions++
		exp, err := sys.callIndex(idx, args)
		if err != nil {
			err = &diag.Diagnostic{Severity: diag.Error, Phase: "expand",
				Msg: fmt.Sprintf("expanding macro %s: %v", head.Name, err), Err: err}
		}
		return exp, err
	})
	return sys
}

// setPrimHook makes m's fallback primitives the process-wide builtins.
func setPrimHook(m *s1.Machine) {
	m.SetPrimHook(func(name *sexp.Symbol, args []sexp.Value) (sexp.Value, error) {
		return interp.CallBuiltin(m.Out, name, args)
	})
}

// expanderName names the expander of a system's epoch'th macro
// definition. No source can spell it: a plain token ends at a space and
// a |quoted| one at a bar, and the name holds both.
func expanderName(name *sexp.Symbol, epoch int) string {
	return fmt.Sprintf("|macro %s %d|", name.Name, epoch)
}

// wireMacros connects conv's defmacro and macro-call hooks to a macro
// table: define makes a defmacro's expander from its converted lambda,
// and expand runs one on a call's unevaluated argument forms.
func wireMacros[E any](conv *convert.Converter, macros map[*sexp.Symbol]E,
	define func(*sexp.Symbol, *tree.Lambda) (E, error),
	expand func(*sexp.Symbol, E, []sexp.Value) (sexp.Value, error)) {
	conv.OnDefmacro = func(name *sexp.Symbol, lambdaList sexp.Value, body []sexp.Value) error {
		lam, err := conv.ConvertLambda(sexp.List(append([]sexp.Value{sexp.SymLambda, lambdaList}, body...)...))
		if err != nil {
			return err
		}
		e, err := define(name, lam)
		if err == nil {
			macros[name] = e
		}
		return err
	}
	conv.UserMacro = func(head *sexp.Symbol, form sexp.Value) (sexp.Value, bool, error) {
		e, ok := macros[head]
		if !ok {
			return nil, false, nil
		}
		args, err := sexp.ListToSlice(form)
		if err == nil {
			form, err = expand(head, e, args[1:])
		}
		return form, err == nil, err
	}
}

// LoadString reads, converts, compiles and executes a program: defuns
// are compiled to machine code, defmacros to expanders on the machine,
// other top-level forms run on the simulator. When any unit fails, the
// returned error is the *diag.List of everything that went wrong — the
// surviving units are still compiled and installed.
func (s *System) LoadString(src string) error {
	_, err := s.EvalString(src)
	return err
}

// EvalString is LoadString returning the value of the last successful
// top-level form (nil when the program is definitions only) — the REPL
// entry.
func (s *System) EvalString(src string) (sexp.Value, error) {
	v, list := s.EvalStringDiag(src)
	if list.HasErrors() {
		return v, list
	}
	return v, nil
}

// LoadStringDiag is LoadString with the full diagnostic list: every
// failed unit (syntax error, convert error, panicking or faulted
// middle-end, runtime error in a top-level form) contributes one
// diagnostic, and every good unit is compiled regardless. The list is
// never nil; a clean load returns an empty one.
func (s *System) LoadStringDiag(src string) *diag.List {
	_, list := s.EvalStringDiag(src)
	return list
}

// unitName extracts the defining name from a (defun name ...) style
// top-level form, for diagnostic labeling; "" when the form defines
// nothing nameable.
func unitName(form sexp.Value) string {
	items, err := sexp.ListToSlice(form)
	if err != nil || len(items) < 2 {
		return ""
	}
	head, ok := items[0].(*sexp.Symbol)
	if !ok {
		return ""
	}
	switch head.Name {
	case "defun", "defmacro", "defvar", "defparameter", "defconstant":
		if n, ok := items[1].(*sexp.Symbol); ok {
			return n.Name
		}
	}
	return ""
}

// asDiag adapts an arbitrary unit error to a Diagnostic, filling in the
// unit name and source position when the error does not already carry
// them.
func asDiag(err error, unit string, line, col int) *diag.Diagnostic {
	if d, ok := err.(*diag.Diagnostic); ok {
		if d.Unit == "" {
			d.Unit = unit
		}
		if d.Line == 0 {
			d.Line, d.Col = line, col
		}
		return d
	}
	d := &diag.Diagnostic{
		Severity: diag.Error, Unit: unit, Line: line, Col: col,
		Msg: err.Error(), Err: err,
	}
	var inj *diag.InjectedFault
	if errors.As(err, &inj) {
		d.Phase = inj.Phase
	} else if errors.Is(err, convert.ErrTooDeep) {
		d.Phase = "convert"
	}
	return d
}

// EvalStringDiag is the diagnostic-accumulating load pipeline. The
// source is read with resynchronization (each syntax error costs one
// top-level form and reading resumes at the next), converted and
// compiled one unit at a time, and executed; a failed unit is skipped
// before anything of it reaches the machine, so the resulting image is
// byte-identical to compiling the source with the failed forms deleted.
// The value of the last successful top-level form is returned alongside
// the (never nil) diagnostic list. A restored system's first load of a
// source its boot snapshot holds a request plan for skips the reader
// and the converter (plan.go).
func (s *System) EvalStringDiag(src string) (sexp.Value, *diag.List) {
	list := diag.NewList(s.maxErrors)
	s.sources = append(s.sources, src)
	// Reading and macro-conversion are batch-granularity stages (they see
	// the whole text, not one defun), so their spans attach to a pseudo
	// unit named for the batch.
	s.batchCount++
	batch := s.Obs.Task(fmt.Sprintf("%%batch-%d", s.batchCount), 0)
	first := !s.loaded
	s.loaded = true
	// A restored system's first load may start from a request plan, or
	// record one (plan.go).
	planning := first && s.boot != nil && s.disk != nil && s.fault == nil
	epoch, expansions := s.macroEpoch, s.expansions
	var ld *load
	if planning {
		ld = s.planned(src, batch)
	}
	recording := planning && ld == nil
	if ld == nil {
		ld = s.frontEnd(src, batch, list)
	}

	s.compileDefs(ld.defs, list)

	// Top-level forms are units too, named %toplevel-N. Only a system's
	// first load after NewSystem or a restore keys them: that is the
	// state stateless requests and cold loads of a file start from, so
	// its forms recur under the same name in the same allocator context.
	// A later load's forms are named and placed by this system's own
	// history, and storing them would write an entry per load that
	// nothing replays. A resumed session's first /run is such a first
	// load too; it stores once per resume, and replays only if the same
	// checkpoint is resumed again.
	keyTop := s.disk != nil && first
	var last sexp.Value = sexp.Nil
	for _, u := range ld.tops {
		s.toplevelCount++
		u.name = fmt.Sprintf("%%toplevel-%d", s.toplevelCount)
		if keyTop && u.key == "" {
			src := fmt.Sprintf("%s#%d\x00%s", u.name, u.o.pos, sexp.Print(u.o.form))
			t := s.Obs.Task(u.name, 0)
			sp := t.Start("cache-probe")
			u.key = s.unitKey(src, u.o.specials)
			s.probeDisk(u, t)
			sp.End()
		}
		idx, ok := s.installUnit(u, list)
		if !ok {
			continue
		}
		w, err := s.Machine.CallIndex(idx)
		if err != nil {
			d := asDiag(err, u.name, u.o.line, u.o.col)
			d.Phase = "run"
			list.Add(d)
			continue
		}
		if v, err := s.Machine.ToValue(w); err != nil {
			d := asDiag(err, u.name, u.o.line, u.o.col)
			d.Phase = "run"
			list.Add(d)
		} else {
			last = v
		}
	}
	if recording && s.macroEpoch == epoch && s.expansions == expansions && list.Len() == 0 && !list.HasErrors() {
		s.recordPlan(src, ld)
	}
	return last, list
}

// frontEnd reads and converts src into its units. Definitions are keyed
// for the compile cache by compileDefs, top-level forms as they install.
func (s *System) frontEnd(src string, batch *obs.Task, list *diag.List) *load {
	sp := batch.Start("read")
	forms, rerrs := sexp.ReadAllRecover(src)
	sp.End()
	for _, re := range rerrs {
		list.Add(&diag.Diagnostic{
			Severity: diag.Error, Phase: "read",
			Line: re.Line, Col: re.Col, Msg: re.Msg, Err: re,
		})
	}

	sp = batch.Start("convert")
	defer sp.End()
	prog := convert.NewProgram()
	// First pass: gather proclamations so that later defuns see them.
	for _, f := range forms {
		s.Conv.ScanProclaim(f.Val)
	}
	// Second pass: convert per-form so one bad form costs one unit. The
	// origin of whatever each form appended travels with its units, for
	// diagnostic labeling and cache keys.
	ld := &load{}
	for _, f := range forms {
		err := func() (err error) {
			name := unitName(f.Val)
			defer func() {
				if r := recover(); r != nil {
					err = diag.FromPanic(r, "convert", name, 0, "")
				}
			}()
			if err := s.fault.Fire("convert", name); err != nil {
				return err
			}
			return s.Conv.TopForm(prog, f.Val)
		}()
		if err != nil {
			list.Add(asDiag(err, unitName(f.Val), f.Line, f.Col))
			continue
		}
		o := origin{line: f.Line, col: f.Col, form: f.Val, specials: s.Conv.SpecialsUsed()}
		for _, d := range prog.Defs[len(ld.defs):] {
			ld.defs = append(ld.defs, &unit{name: d.Name.Name, sym: d.Name, lam: d.Lambda, o: o})
		}
		for _, n := range prog.TopForms[len(ld.tops):] {
			ld.tops = append(ld.tops, &unit{lam: convert.WrapToplevel(n), o: o})
			o.pos++
		}
	}
	s.Conv.FinishProgram(prog)
	return ld
}

// safePrepare runs the concurrent-safe middle end of one unit under a
// recover barrier: a panicking unit (an optimizer bug, an injected
// fault) becomes an error diagnostic carrying the pipeline phase that
// was in flight, the worker id, and the unit's tree — and takes down
// only itself.
func (s *System) safePrepare(name string, lam *tree.Lambda, t *obs.Task, worker int) (p *codegen.Prepared, err error) {
	defer func() {
		if r := recover(); r != nil {
			d := diag.FromPanic(r, t.CurrentPhase(), name, worker, tree.Show(lam))
			if d.Phase == "" {
				d.Phase = "compile"
			}
			err = d
		}
	}()
	return s.Compiler.PrepareTask(name, lam, t)
}

// origin is where a unit came from: the source form that produced it
// and that form's position, for diagnostics and cache keys.
type origin struct {
	line, col int
	form      sexp.Value
	// pos is the unit's index among the top-level forms its source form
	// produced.
	pos int
	// specials is the converter's SpecialsUsed for the form.
	specials string
}

// load is one source text's units in source order, as the front end or
// a request plan produced them.
type load struct {
	defs, tops []*unit
}

// unit is one defun or top-level form flowing through the pipeline as an
// independent piece of work: cache probe, middle end, serial install.
type unit struct {
	name string
	// sym is a definition's name, nil for a top-level form.
	sym *sexp.Symbol
	lam *tree.Lambda
	// shared marks lam as a request plan's tree, which the middle end
	// must never see (it rewrites trees in place): a shared unit that
	// compiles converts its source form again first (privateTree).
	shared bool
	// replayed is set when the unit installed from the durable cache.
	replayed bool
	o        origin
	key      string // "" = not cached
	hitIdx   int
	hit      bool // resident hit: the body is installed at hitIdx
	disk     *compilecache.DiskEntry
	diskSrc  string // where disk came from (compilecache.FromProcess/FromFile)
	prepared *codegen.Prepared
	// binds are the function lookups of the installed body's emission
	// (codegen.Compiler.Binds).
	binds []codegen.FuncBind
	err   error
}

// residentBody is a keyed defun body installed in this system's
// machine: its function index and the function lookups its emission
// made (codegen.Compiler.Binds).
type residentBody struct {
	idx   int
	binds []codegen.FuncBind
}

// unitKey is the content address of a unit whose printed source is src.
func (s *System) unitKey(src, specials string) string {
	return compilecache.Key(src, s.Compiler.Opts, s.macroEpoch, specials)
}

// probeDisk fetches u's durable entry, if any. Whether it actually
// replays is decided at install time — earlier units' installs move the
// allocator context — so the probe only fetches and verifies the bytes.
func (s *System) probeDisk(u *unit, t *obs.Task) {
	sp := t.Start("disk-probe")
	u.disk, u.diskSrc = s.disk.Probe(u.key)
	sp.End()
}

// compileDefs compiles a batch of definitions. The machine-independent
// middle end (optimizer fixpoint through pdl annotation) of each miss
// runs concurrently on a bounded worker pool; emission into the shared
// machine then proceeds serially in source order, so the machine image —
// code layout, symbol and function indices, heap contents — evolves
// exactly as under a sequential compile, and listings are byte-identical
// regardless of Jobs. A unit that fails (or panics) anywhere before its
// emit step contributes a diagnostic to list and nothing to the machine.
func (s *System) compileDefs(units []*unit, list *diag.List) {
	for _, u := range units {
		// A request plan's units arrive keyed and probed.
		if s.disk != nil && u.disk == nil {
			t := s.Obs.Task(u.name, 0)
			sp := t.Start("cache-probe")
			u.key = s.unitKey(sexp.Print(u.o.form), u.o.specials)
			if r, ok := s.resident[u.key]; ok {
				u.hit, u.hitIdx, u.binds = true, r.idx, r.binds
			} else {
				s.probeDisk(u, t)
			}
			sp.End()
		}
	}

	// The middle end runs on a fixed pool of numbered workers (ids 1..N;
	// id 0 is the driver goroutine) so every span carries the identity of
	// the goroutine that produced it and per-worker span sets never
	// overlap in time — exactly what the trace view needs.
	pending := make([]*unit, 0, len(units))
	for _, u := range units {
		// Disk-hit candidates skip the concurrent middle end too: when the
		// replay turns out not to apply, installUnit compiles them inline
		// (the rare path — a corpus whose prefix diverged).
		if !u.hit && u.disk == nil {
			pending = append(pending, u)
		}
	}
	workers := s.jobs
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers <= 1 {
		for _, u := range pending {
			t := s.Obs.Task(u.name, 0)
			u.prepared, u.err = s.safePrepare(u.name, u.lam, t, 0)
		}
	} else {
		work := make(chan *unit)
		var wg sync.WaitGroup
		for w := 1; w <= workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for u := range work {
					t := s.Obs.Task(u.name, id)
					u.prepared, u.err = s.safePrepare(u.name, u.lam, t, id)
				}
			}(w)
		}
		for _, u := range pending {
			work <- u
		}
		close(work)
		wg.Wait()
	}

	// Size the code vector for the whole batch before installing it:
	// growing it install by install copies it, and its lowered stream,
	// once per doubling.
	need := 0
	for _, u := range units {
		switch {
		case u.err != nil || u.hit:
		case u.prepared != nil:
			need += u.prepared.CodeEstimate()
		case u.disk != nil:
			need += u.disk.Instrs()
		}
	}
	s.Machine.ReserveCode(need)

	for _, u := range units {
		if u.err != nil {
			// The unit failed before touching the machine: report it and
			// skip installation entirely, as if the form had been deleted
			// from the source.
			list.Add(asDiag(u.err, u.name, u.o.line, u.o.col))
			continue
		}
		if u.hit && !codegen.ResidentBindsHold(s.Machine, u.binds) {
			// The resident body embeds a function index that a name it
			// looked up no longer resolves to (an earlier definition,
			// perhaps in this batch, rebound it): compile instead.
			u.hit = false
			s.probeDisk(u, s.Obs.Task(u.name, 0))
		}
		if u.hit {
			// The body is already resident in this machine: rebind the
			// name to the cached function index and skip the entire
			// middle and back end.
			s.flight.Record(obs.Event{Kind: "cache-hit", Trace: s.traceID, Unit: u.name, Msg: "memory"})
			s.Machine.Stats.CompileCacheHits++
			s.Machine.RebindFunction(u.name, u.hitIdx)
			s.Machine.SetSymbolFunction(u.name, s1.Ptr(s1.TagFunc, uint64(u.hitIdx)))
			s.Defs[u.name] = u.hitIdx
			continue
		}
		if idx, ok := s.installUnit(u, list); ok {
			s.Defs[u.name] = idx
			if u.key != "" {
				s.resident[u.key] = residentBody{idx, u.binds}
			}
		}
	}
}

// installUnit puts one unit's body into the machine and binds its name
// to it. A durable entry replays when it (or its variant for the
// machine's current context) was captured in this allocator context;
// otherwise the unit is emitted — prepared inline first if it skipped
// the worker pool — and, when keyed, its emission is captured and
// stored. On failure the unit's diagnostic goes to list and it reports
// false.
func (s *System) installUnit(u *unit, list *diag.List) (int, bool) {
	fail := func(err error) (int, bool) {
		list.Add(asDiag(err, u.name, u.o.line, u.o.col))
		return 0, false
	}
	t := s.Obs.Task(u.name, 0)
	if u.disk != nil {
		if idx, ok := s.replayUnit(u, t, list); ok {
			u.replayed = true
			return idx, true
		}
	}
	if u.prepared == nil {
		// The unit skipped the worker pool: a durable candidate that did
		// not replay, or a top-level form.
		if u.shared {
			if err := s.privateTree(u); err != nil {
				return fail(err)
			}
		}
		if u.prepared, u.err = s.safePrepare(u.name, u.lam, t, 0); u.err != nil {
			return fail(u.err)
		}
	}
	if err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = diag.FromPanic(r, "emit", u.name, 0, "")
			}
		}()
		return s.fault.Fire("emit", u.name)
	}(); err != nil {
		return fail(err)
	}
	sp := t.Start("emit")
	var ctxBefore string
	genBefore := s.Compiler.GenCount()
	gcBefore := s.Machine.GCMeters.Collections
	if u.key != "" {
		s.flight.Record(obs.Event{Kind: "cache-miss", Trace: s.traceID, Unit: u.name})
		s.Machine.Stats.CompileCacheMisses++
		if s.disk != nil {
			// Record the emission's machine mutations for the durable
			// layer, against the context they started from.
			ctxBefore = s.Machine.AllocContext()
			s.Machine.BeginCapture()
		}
	}
	idx, err := s.Compiler.Emit(u.name, u.prepared)
	capt := s.Machine.EndCapture()
	sp.End()
	if err != nil {
		return fail(fmt.Errorf("compiling %s: %w", u.name, err))
	}
	u.binds = s.Compiler.Binds()
	if u.key != "" {
		// A collection mid-emission would make the recorded allocation
		// sequence context-dependent (the mark set at the collection
		// point includes code not yet present during a replay), so such
		// captures are discarded rather than stored.
		if capt != nil && s.Machine.GCMeters.Collections == gcBefore {
			s.storeCapture(u, idx, capt, ctxBefore, genBefore, list)
		}
	}
	// Rule events were buffered per-unit during the (possibly
	// concurrent) Prepare; appending them here, in the serialized
	// source-order install loop, keeps the recorder's rule stream
	// deterministic.
	s.Obs.AddRules(u.prepared.Rules())
	return idx, true
}

// replayUnit installs u's durable entry if its recorded allocator
// context and gensym counter match the machine right now, which
// reproduces the emission word for word. Otherwise an earlier load in
// this context may have stored its own capture as the context's
// variant; failing both, it reports false and the caller compiles — a
// mismatch is normal (a different corpus prefix), not an error.
func (s *System) replayUnit(u *unit, t *obs.Task, list *diag.List) (int, bool) {
	de, src := u.disk, u.diskSrc
	if de.Replayable(s.Machine, s.Compiler.GenCount()) != nil {
		de, src = s.disk.Probe(compilecache.VariantKey(u.key, s.Machine.AllocContext(), s.Compiler.GenCount()))
	}
	if de == nil || de.Replayable(s.Machine, s.Compiler.GenCount()) != nil {
		return 0, false
	}
	sp := t.Start("disk-replay")
	genBefore := s.Compiler.GenCount()
	idx, err := de.Install(s.Machine)
	sp.End()
	if err != nil {
		// A mid-replay failure may have left partial mutations;
		// recompiling is still correct, but flag it loudly.
		s.flight.Record(obs.Event{
			Kind: "cache-miss", Sev: obs.SevWarn, Trace: s.traceID,
			Unit: u.name, Msg: "replay failed: " + err.Error(),
		})
		list.Add(&diag.Diagnostic{
			Severity: diag.Warning, Unit: u.name,
			Phase: "disk-replay", Line: u.o.line, Col: u.o.col,
			Msg: "durable cache replay failed, recompiling: " + err.Error(),
			Err: err,
		})
		return 0, false
	}
	s.flight.Record(obs.Event{Kind: "cache-hit", Trace: s.traceID, Unit: u.name, Msg: src})
	s.Compiler.SetGenCount(genBefore + de.GenDelta)
	s.Machine.Stats.CompileCacheHits++
	// The capture recorded the bodies, not the name's function cell,
	// which Emit sets after installing them.
	s.Machine.RebindFunction(u.name, idx)
	s.Machine.SetSymbolFunction(u.name, s1.Ptr(s1.TagFunc, uint64(idx)))
	u.binds = de.Binds
	return idx, true
}

// storeCapture writes u's captured emission to the durable layer. A
// unit whose primary entry did not replay here stores its capture as
// this context's variant: overwriting the primary would only make the
// primary's own context recompile next time.
func (s *System) storeCapture(u *unit, idx int, capt *s1.Capture, ctxBefore string, genBefore int, list *diag.List) {
	key := u.key
	if u.disk != nil {
		key = compilecache.VariantKey(u.key, ctxBefore, genBefore)
	}
	f := s.Machine.Funcs[idx]
	de := &compilecache.DiskEntry{
		Key: key, Name: u.name,
		MinArgs: f.MinArgs, MaxArgs: f.MaxArgs,
		GenBefore: genBefore, GenDelta: s.Compiler.GenCount() - genBefore,
		Ctx: ctxBefore, Binds: u.binds, Capture: *capt,
	}
	if err := s.disk.Store(key, de); err != nil {
		list.Add(&diag.Diagnostic{
			Severity: diag.Warning, Unit: u.name,
			Phase: "disk-store", Line: u.o.line, Col: u.o.col,
			Msg: "durable cache store failed: " + err.Error(),
			Err: err,
		})
	}
}

// Call invokes a compiled function on the simulator with host values.
func (s *System) Call(name string, args ...sexp.Value) (sexp.Value, error) {
	if idx := s.Machine.FuncNamed(name); idx >= 0 {
		return s.callIndex(idx, args)
	}
	return nil, fmt.Errorf("s1: no function %q", name)
}

// callIndex invokes function index idx on the simulator with host
// values: the arguments go in through FromValue, the result comes out
// through ToValue.
func (s *System) callIndex(idx int, args []sexp.Value) (sexp.Value, error) {
	// Converted arguments stay pinned until CallIndex has pushed them.
	defer s.Machine.Unpin(s.Machine.PinDepth())
	words := make([]s1.Word, len(args))
	for i, a := range args {
		words[i] = s.Machine.Pin(s.Machine.FromValue(a))
	}
	w, err := s.Machine.CallIndex(idx, words...)
	if err != nil {
		return nil, err
	}
	return s.Machine.ToValue(w)
}

// Interpret invokes the same function in the reference interpreter, the
// test oracle, built on first use and caught up on each call by
// replaying the system's sources with interpreter-side macros; it
// defines only the functions the machine did (Defs). Global value cells
// set by top-level forms (which execute on the simulator) are mirrored
// into it first, so defvar'd specials are visible; thereafter the two
// engines' dynamic states evolve independently.
func (s *System) Interpret(name string, args ...sexp.Value) (sexp.Value, error) {
	o := s.oracle
	if o == nil {
		o = &oracle{in: interp.New(), conv: convert.New()}
		o.in.Out, o.conv.Constants = s.Machine.Out, s.Conv.Constants
		wireMacros(o.conv, map[*sexp.Symbol]*interp.Closure{},
			func(_ *sexp.Symbol, lam *tree.Lambda) (*interp.Closure, error) {
				return &interp.Closure{Lambda: lam}, nil
			},
			func(_ *sexp.Symbol, cl *interp.Closure, args []sexp.Value) (sexp.Value, error) {
				return o.in.Apply(cl, args)
			})
		s.oracle = o
	}
	// Read and convert the sources loaded since, running nothing; a form
	// that fails is skipped, as the original load skipped it.
	for _, src := range s.sources[o.loaded:] {
		forms, _ := sexp.ReadAllRecover(src)
		for _, f := range forms {
			o.conv.ScanProclaim(f.Val)
		}
		prog := convert.NewProgram()
		for _, f := range forms {
			func() {
				defer func() { recover() }() // a bad form costs itself, as in EvalStringDiag
				o.conv.TopForm(prog, f.Val)
			}()
		}
		for _, d := range prog.Defs {
			if _, ok := s.Defs[d.Name.Name]; ok {
				o.in.Funcs[d.Name] = &interp.Closure{Lambda: d.Lambda}
			}
		}
	}
	o.loaded = len(s.sources)
	for i := range s.Machine.Syms {
		cell := &s.Machine.Syms[i]
		if !cell.HasValue || cell.Uninterned {
			continue
		}
		sym := sexp.Intern(cell.Name)
		if _, ok := o.in.Globals[sym]; ok {
			continue
		}
		v, err := s.Machine.ToValue(cell.Value)
		if err != nil {
			continue // machine-only values stay machine-only
		}
		o.in.Globals[sym] = v
	}
	return o.in.CallNamed(sexp.Intern(name), args...)
}

// oracle is Interpret's interpreter and converter, and how many sources
// they have replayed.
type oracle struct {
	in     *interp.Interp
	conv   *convert.Converter
	loaded int
}

// Listing returns the assembly listing of a compiled function.
func (s *System) Listing(name string) (string, error) {
	idx, ok := s.Defs[name]
	if !ok {
		return "", fmt.Errorf("core: no compiled function %q", name)
	}
	f := s.Machine.Funcs[idx]
	var b strings.Builder
	fmt.Fprintf(&b, ";;; %s (entry %d)\n", f.Name, f.Entry)
	b.WriteString(s1.Listing(s.Machine.Code, f.Entry, f.End))
	return b.String(), nil
}

// StaticMOVs counts MOV instructions in a compiled function (the §6.1
// code-quality metric).
func (s *System) StaticMOVs(name string) (int, error) {
	idx, ok := s.Defs[name]
	if !ok {
		return 0, fmt.Errorf("core: no compiled function %q", name)
	}
	f := s.Machine.Funcs[idx]
	return s1.CountMOVs(s.Machine.Code, f.Entry, f.End), nil
}

// InstructionCount returns the number of instructions in a compiled
// function.
func (s *System) InstructionCount(name string) (int, error) {
	idx, ok := s.Defs[name]
	if !ok {
		return 0, fmt.Errorf("core: no compiled function %q", name)
	}
	f := s.Machine.Funcs[idx]
	return f.End - f.Entry, nil
}

// ReadConstArray reads back the machine's copy of a compile-time constant
// float array (writes by compiled code land in the machine heap, not in
// the host object).
func (s *System) ReadConstArray(fa *sexp.FloatArray) (*sexp.FloatArray, error) {
	w, ok := s.Compiler.ConstArrayWord(fa)
	if !ok {
		return nil, fmt.Errorf("core: array was never used by compiled code")
	}
	v, err := s.Machine.ToValue(w)
	if err != nil {
		return nil, err
	}
	out, ok := v.(*sexp.FloatArray)
	if !ok {
		return nil, fmt.Errorf("core: constant is not a float array")
	}
	return out, nil
}

// Stats exposes the simulator's meters.
func (s *System) Stats() *s1.Stats { return &s.Machine.Stats }

// ResetStats clears the simulator meters.
func (s *System) ResetStats() { s.Machine.ResetStats() }
