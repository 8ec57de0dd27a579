// Package core is the public face of the S-1 Lisp reproduction: a System
// bundles the reader, the preliminary converter, the source-level
// optimizer, the machine-dependent annotation phases, the code generator,
// the S-1 simulator, and the reference interpreter. Load Lisp source,
// call compiled functions, inspect listings and transcripts, and meter
// everything.
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
	"sort"
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
	// Out receives print output from both the machine and the
	// interpreter.
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
	// Cache enables the content-addressed compile cache: re-loading an
	// already-seen defun (same printed source, same options, same
	// constants, no macro redefinition in between) skips the middle end
	// and code generation entirely. Hit/miss counts appear in Stats().
	Cache bool
	// DiskCache, if non-nil, adds the durable on-disk layer under the
	// in-memory cache (implies Cache): misses probe the crash-safe store
	// and, when the entry's recorded allocator context matches this
	// machine, replay its captured emission instead of compiling —
	// producing the byte-identical image a recompile would have. The
	// handle is shared: many Systems (and many processes) may use one.
	// Ignored when Constants is non-empty, because compile-time constant
	// arrays are interned per-process and would break cross-process
	// replay.
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
	// GCMinorBudget bounds minor-collection pauses (the -gc-minor-budget
	// flag): a minor that overruns it escalates the next automatic
	// collection to a full one. 0 disables. Wall-clock dependent, so it
	// trades the collector's cross-run determinism for bounded pauses.
	GCMinorBudget time.Duration
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
	// NoTier disables the simulator's tiered execution engine (the
	// -notier flag): functions never promote to trace-refused,
	// block-lowered code and every instruction dispatches individually
	// from the pre-decoded stream. Observable behavior is identical
	// either way (see DESIGN.md §12); the switch exists for differential
	// testing and benchmarking.
	NoTier bool
	// HotThreshold overrides the tier promotion threshold (the
	// -hot-threshold flag): a function is re-optimized once its
	// invocation count reaches the threshold. 0 keeps the machine
	// default (s1.DefaultHotThreshold); negative promotes every function
	// at install time ("forced hot"). Ignored when NoTier is set.
	HotThreshold int64
	// Flight, if non-nil, receives runtime and cache events (GC pauses,
	// tier promotions, disk-cache hit/miss) for the always-on flight
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
	Interp   *interp.Interp
	Conv     *convert.Converter
	Compiler *codegen.Compiler
	// Defs holds the converted program definitions for inspection.
	Defs map[string]int // name -> function index

	// Obs is the observability recorder this system reports to (nil when
	// tracing is off).
	Obs *obs.Recorder

	macros        map[*sexp.Symbol]*interp.Closure
	toplevelCount int
	batchCount    int
	// sources accumulates every loaded source text, in load order — the
	// replay script a snapshot stores so a restore can rehydrate the
	// interpreter and macro expanders without touching the machine
	// (snapshot.go).
	sources []string

	jobs int
	// cache memoizes compiled bodies; constsFP and macroEpoch are the
	// non-source cache-key inputs (see compilecache.Key). disk is the
	// durable layer consulted on memory misses (nil = none).
	cache      *compilecache.Cache
	disk       *compilecache.Disk
	constsFP   string
	macroEpoch int

	// fault is the injection plan (nil = none); maxErrors is the
	// resolved stored-diagnostic cap (0 = unlimited).
	fault     *diag.Plan
	maxErrors int

	// flight is the event recorder (nil = none); traceID stamps its
	// events with the owning request's trace.
	flight  *obs.Flight
	traceID string
}

// TraceID returns the trace id this system stamps on flight events.
func (s *System) TraceID() string { return s.traceID }

// NewSystem builds a system.
func NewSystem(opts Options) *System {
	m := s1.NewFromArena(opts.Arena)
	in := interp.New()
	if opts.Out != nil {
		m.Out = opts.Out
		in.Out = opts.Out
	}
	// The machine's fallback primitives are the interpreter's builtins.
	m.SetPrimHook(func(name string, args []sexp.Value) (sexp.Value, error) {
		return in.CallNamed(sexp.Intern(name), args...)
	})
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
	if opts.NoTier {
		m.SetNoTier()
	} else if opts.HotThreshold != 0 {
		m.SetHotThreshold(opts.HotThreshold)
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
	if opts.GCMinorBudget > 0 {
		m.SetGCMinorBudget(opts.GCMinorBudget)
	}
	maxErrors := opts.MaxErrors
	switch {
	case maxErrors == 0:
		maxErrors = DefaultMaxErrors
	case maxErrors < 0:
		maxErrors = 0 // unlimited
	}
	conv := convert.New()
	var constsFP string
	if len(opts.Constants) > 0 {
		consts := map[*sexp.Symbol]sexp.Value{}
		for k, v := range opts.Constants {
			consts[sexp.Intern(k)] = v
		}
		conv.Constants = consts
		// Canonical fingerprint for the cache key: constants are fixed at
		// system construction, so this is computed once.
		names := make([]string, 0, len(opts.Constants))
		for k := range opts.Constants {
			names = append(names, k)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, k := range names {
			fmt.Fprintf(&b, "%s=%s\n", k, sexp.Print(opts.Constants[k]))
		}
		constsFP = b.String()
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	sys := &System{
		Machine:   m,
		Interp:    in,
		Conv:      conv,
		Compiler:  codegen.New(m, co),
		Defs:      map[string]int{},
		Obs:       opts.Obs,
		macros:    map[*sexp.Symbol]*interp.Closure{},
		jobs:      jobs,
		constsFP:  constsFP,
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
	if opts.Cache || opts.DiskCache != nil {
		sys.cache = compilecache.New()
	}
	if opts.DiskCache != nil && len(opts.Constants) == 0 {
		sys.disk = opts.DiskCache
	}
	// defmacro: expanders are interpreter closures applied to the
	// unevaluated argument forms.
	conv.OnDefmacro = func(name *sexp.Symbol, lambdaList sexp.Value, body []sexp.Value) error {
		items := append([]sexp.Value{sexp.SymLambda, lambdaList}, body...)
		lam, err := conv.ConvertLambda(sexp.List(items...))
		if err != nil {
			return err
		}
		sys.macros[name] = &interp.Closure{Lambda: lam}
		// A (re)defined macro can change any later expansion, and a
		// printed form does not reveal which macros it consumed: epoch the
		// cache keys so every earlier entry stops matching.
		sys.macroEpoch++
		return nil
	}
	conv.UserMacro = func(head *sexp.Symbol, form sexp.Value) (sexp.Value, bool, error) {
		cl, ok := sys.macros[head]
		if !ok {
			return nil, false, nil
		}
		args, err := sexp.ListToSlice(form)
		if err != nil {
			return nil, false, err
		}
		exp, err := in.Apply(cl, args[1:])
		if err != nil {
			return nil, false, fmt.Errorf("core: expanding macro %s: %w", head.Name, err)
		}
		return exp, true, nil
	}
	return sys
}

// LoadString reads, converts, compiles and executes a program: defuns
// are compiled to machine code (and also installed in the interpreter),
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
// the (never nil) diagnostic list.
func (s *System) EvalStringDiag(src string) (sexp.Value, *diag.List) {
	list := diag.NewList(s.maxErrors)
	s.sources = append(s.sources, src)
	// Reading and macro-conversion are batch-granularity stages (they see
	// the whole text, not one defun), so their spans attach to a pseudo
	// unit named for the batch.
	s.batchCount++
	batch := s.Obs.Task(fmt.Sprintf("%%batch-%d", s.batchCount), 0)
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
	prog := convert.NewProgram()
	// First pass: gather proclamations so that later defuns see them.
	for _, f := range forms {
		s.Conv.ScanProclaim(f.Val)
	}
	// Second pass: convert per-form so one bad form costs one unit. The
	// positions of whatever each form appended travel alongside Defs and
	// TopForms for diagnostic labeling.
	var defLines, defCols, topLines, topCols []int
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
		for len(defLines) < len(prog.Defs) {
			defLines, defCols = append(defLines, f.Line), append(defCols, f.Col)
		}
		for len(topLines) < len(prog.TopForms) {
			topLines, topCols = append(topLines, f.Line), append(topCols, f.Col)
		}
	}
	s.Conv.FinishProgram(prog)
	sp.End()

	s.compileDefs(prog.Defs, defLines, defCols, list)

	var last sexp.Value = sexp.Nil
	for i, form := range prog.TopForms {
		s.toplevelCount++
		name := fmt.Sprintf("%%toplevel-%d", s.toplevelCount)
		line, col := topLines[i], topCols[i]
		lam := convert.WrapToplevel(form)
		t := s.Obs.Task(name, 0)
		p, err := s.safePrepare(name, lam, t, 0)
		if err != nil {
			list.Add(asDiag(err, name, line, col))
			continue
		}
		sp := t.Start("emit")
		idx, err := s.Compiler.Emit(name, p)
		sp.End()
		if err != nil {
			list.Add(asDiag(err, name, line, col))
			continue
		}
		s.Obs.AddRules(p.Rules())
		w, err := s.Machine.CallIndex(idx)
		if err != nil {
			d := asDiag(err, name, line, col)
			d.Phase = "run"
			list.Add(d)
			continue
		}
		if v, err := s.Machine.ToValue(w); err != nil {
			d := asDiag(err, name, line, col)
			d.Phase = "run"
			list.Add(d)
		} else {
			last = v
		}
	}
	return last, list
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

// unit is one defun flowing through the pipeline as an independent piece
// of work: cache probe, concurrent middle end, serial install.
type unit struct {
	d        *convert.Def
	key      string
	hitIdx   int
	hit      bool
	disk     *compilecache.DiskEntry
	prepared *codegen.Prepared
	err      error
}

// compileDefs compiles a batch of definitions. The machine-independent
// middle end (optimizer fixpoint through pdl annotation) of each miss
// runs concurrently on a bounded worker pool; emission into the shared
// machine then proceeds serially in source order, so the machine image —
// code layout, symbol and function indices, heap contents — evolves
// exactly as under a sequential compile, and listings are byte-identical
// regardless of Jobs. A unit that fails (or panics) anywhere before its
// emit step contributes a diagnostic to list and nothing to the machine;
// lines/cols are the source positions of the defs, parallel to defs.
func (s *System) compileDefs(defs []*convert.Def, lines, cols []int, list *diag.List) {
	pos := func(i int) (int, int) {
		if i < len(lines) {
			return lines[i], cols[i]
		}
		return 0, 0
	}
	units := make([]*unit, len(defs))
	for i, d := range defs {
		u := &unit{d: d}
		units[i] = u
		if s.cache != nil && d.Source != nil {
			t := s.Obs.Task(d.Name.Name, 0)
			sp := t.Start("cache-probe")
			u.key = compilecache.Key(sexp.Print(d.Source), s.Compiler.Opts,
				s.constsFP, s.macroEpoch)
			if e, ok := s.cache.Lookup(u.key); ok {
				if s.fault.ShouldCorrupt("cache", d.Name.Name) {
					// Simulated corruption: point the entry past the
					// function table so validation must catch it.
					e.Index = len(s.Machine.Funcs) + 1
				}
				if verr := e.Validate(s.Machine); verr != nil {
					line, col := pos(i)
					list.Add(&diag.Diagnostic{
						Severity: diag.Warning, Unit: d.Name.Name,
						Phase: "cache", Line: line, Col: col,
						Msg: "corrupt cache entry, recompiling: " + verr.Error(),
						Err: verr,
					})
				} else {
					u.hit, u.hitIdx = true, e.Index
				}
			}
			if !u.hit && s.disk != nil {
				// Memory miss: probe the durable layer. Whether the entry
				// actually replays is decided at install time — earlier
				// units' installs move the allocator context — so the probe
				// only fetches and verifies the bytes.
				dsp := t.Start("disk-probe")
				if de, ok := s.disk.Lookup(u.key); ok {
					u.disk = de
				}
				dsp.End()
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
		// replay turns out not to apply, the install loop compiles them
		// inline (the rare path — a corpus whose prefix diverged).
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
			t := s.Obs.Task(u.d.Name.Name, 0)
			u.prepared, u.err = s.safePrepare(u.d.Name.Name, u.d.Lambda, t, 0)
		}
	} else {
		work := make(chan *unit)
		var wg sync.WaitGroup
		for w := 1; w <= workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for u := range work {
					t := s.Obs.Task(u.d.Name.Name, id)
					u.prepared, u.err = s.safePrepare(u.d.Name.Name, u.d.Lambda, t, id)
				}
			}(w)
		}
		for _, u := range pending {
			work <- u
		}
		close(work)
		wg.Wait()
	}

	for i, u := range units {
		d := u.d
		if u.err != nil {
			// The unit failed before touching the machine: report it and
			// skip installation entirely (including the interpreter), as
			// if the form had been deleted from the source.
			line, col := pos(i)
			list.Add(asDiag(u.err, d.Name.Name, line, col))
			continue
		}
		// The interpreter gets the converted tree (its role is the
		// semantic baseline).
		s.Interp.DefineFunction(d.Name, &interp.Closure{Lambda: d.Lambda})
		if u.hit {
			// The body is already resident in this machine: rebind the
			// name to the cached function index and skip the entire
			// middle and back end.
			s.flight.Record(obs.Event{Kind: "cache-hit", Trace: s.traceID, Unit: d.Name.Name, Msg: "memory"})
			s.Machine.Stats.CompileCacheHits++
			s.Machine.RebindFunction(d.Name.Name, u.hitIdx)
			s.Machine.SetSymbolFunction(d.Name.Name, s1.Ptr(s1.TagFunc, uint64(u.hitIdx)))
			s.Defs[d.Name.Name] = u.hitIdx
			continue
		}
		if u.disk != nil {
			// A durable entry exists for this source. If its recorded
			// allocator context and gensym counter match the machine right
			// now, replaying it reproduces the emission word for word.
			// Otherwise compile inline — a mismatch is normal (different
			// corpus prefix), not an error.
			t := s.Obs.Task(d.Name.Name, 0)
			if rerr := u.disk.Replayable(s.Machine, s.Compiler.GenCount()); rerr == nil {
				sp := t.Start("disk-replay")
				genBefore := s.Compiler.GenCount()
				idx, ierr := u.disk.Install(s.Machine)
				sp.End()
				if ierr == nil {
					s.flight.Record(obs.Event{Kind: "cache-hit", Trace: s.traceID, Unit: d.Name.Name, Msg: "disk"})
					s.Compiler.SetGenCount(genBefore + u.disk.GenDelta)
					s.Machine.Stats.CompileCacheHits++
					s.Machine.RebindFunction(d.Name.Name, idx)
					s.Machine.SetSymbolFunction(d.Name.Name, s1.Ptr(s1.TagFunc, uint64(idx)))
					s.Defs[d.Name.Name] = idx
					f := s.Machine.Funcs[idx]
					last := u.disk.Capture.Funcs[len(u.disk.Capture.Funcs)-1]
					s.cache.Store(u.key, compilecache.Entry{
						Index: idx, MinArgs: f.MinArgs, MaxArgs: f.MaxArgs,
						Items: s1.ToItems(last.Items),
					})
					continue
				}
				// A mid-replay failure may have left partial mutations;
				// recompiling is still correct, but flag it loudly.
				s.flight.Record(obs.Event{
					Kind: "cache-miss", Sev: obs.SevWarn, Trace: s.traceID,
					Unit: d.Name.Name, Msg: "replay failed: " + ierr.Error(),
				})
				line, col := pos(i)
				list.Add(&diag.Diagnostic{
					Severity: diag.Warning, Unit: d.Name.Name,
					Phase: "disk-replay", Line: line, Col: col,
					Msg: "durable cache replay failed, recompiling: " + ierr.Error(),
					Err: ierr,
				})
			}
			// Inline fallback: this unit skipped the worker-pool Prepare.
			u.prepared, u.err = s.safePrepare(d.Name.Name, d.Lambda, t, 0)
			if u.err != nil {
				line, col := pos(i)
				list.Add(asDiag(u.err, d.Name.Name, line, col))
				continue
			}
		}
		if err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = diag.FromPanic(r, "emit", d.Name.Name, 0, "")
				}
			}()
			return s.fault.Fire("emit", d.Name.Name)
		}(); err != nil {
			line, col := pos(i)
			list.Add(asDiag(err, d.Name.Name, line, col))
			continue
		}
		var idx int
		var err error
		t := s.Obs.Task(d.Name.Name, 0)
		sp := t.Start("emit")
		if s.cache != nil && u.key != "" {
			s.flight.Record(obs.Event{Kind: "cache-miss", Trace: s.traceID, Unit: d.Name.Name})
			s.Machine.Stats.CompileCacheMisses++
			var items []s1.Item
			var ctxBefore string
			genBefore := s.Compiler.GenCount()
			gcBefore := s.Machine.GCMeters.Collections
			if s.disk != nil {
				// Record the emission's machine mutations for the durable
				// layer, against the context they started from.
				ctxBefore = s.Machine.AllocContext()
				s.Machine.BeginCapture()
			}
			idx, items, err = s.Compiler.EmitRecorded(d.Name.Name, u.prepared)
			capt := s.Machine.EndCapture()
			if err == nil {
				f := s.Machine.Funcs[idx]
				s.cache.Store(u.key, compilecache.Entry{
					Index: idx, MinArgs: f.MinArgs, MaxArgs: f.MaxArgs, Items: items,
				})
				// A collection mid-emission would make the recorded
				// allocation sequence context-dependent (the mark set at
				// the collection point includes code not yet present during
				// a replay), so such captures are discarded rather than
				// stored.
				if capt != nil && s.Machine.GCMeters.Collections == gcBefore {
					de := &compilecache.DiskEntry{
						Key: u.key, Name: d.Name.Name,
						MinArgs: f.MinArgs, MaxArgs: f.MaxArgs,
						GenBefore: genBefore, GenDelta: s.Compiler.GenCount() - genBefore,
						Ctx: ctxBefore, Capture: *capt,
					}
					if serr := s.disk.Store(u.key, de); serr != nil {
						line, col := pos(i)
						list.Add(&diag.Diagnostic{
							Severity: diag.Warning, Unit: d.Name.Name,
							Phase: "disk-store", Line: line, Col: col,
							Msg: "durable cache store failed: " + serr.Error(),
							Err: serr,
						})
					}
				}
			}
		} else {
			idx, err = s.Compiler.Emit(d.Name.Name, u.prepared)
		}
		sp.End()
		if err != nil {
			line, col := pos(i)
			list.Add(asDiag(fmt.Errorf("compiling %s: %w", d.Name.Name, err), d.Name.Name, line, col))
			continue
		}
		// Rule events were buffered per-unit during the (possibly
		// concurrent) Prepare; appending them here, in the serialized
		// source-order install loop, keeps the recorder's rule stream
		// deterministic.
		s.Obs.AddRules(u.prepared.Rules())
		s.Defs[d.Name.Name] = idx
	}
}

// Call invokes a compiled function on the simulator with host values.
func (s *System) Call(name string, args ...sexp.Value) (sexp.Value, error) {
	// Converted arguments stay pinned until CallFunction has pushed them.
	defer s.Machine.Unpin(s.Machine.PinDepth())
	words := make([]s1.Word, len(args))
	for i, a := range args {
		words[i] = s.Machine.Pin(s.Machine.FromValue(a))
	}
	w, err := s.Machine.CallFunction(name, words...)
	if err != nil {
		return nil, err
	}
	return s.Machine.ToValue(w)
}

// Interpret invokes the same function in the reference interpreter.
// Global value cells established by top-level forms (which execute on the
// simulator) are mirrored into the interpreter first, so defvar'd
// specials are visible; thereafter the two engines' dynamic states evolve
// independently.
func (s *System) Interpret(name string, args ...sexp.Value) (sexp.Value, error) {
	for i := range s.Machine.Syms {
		cell := &s.Machine.Syms[i]
		if !cell.HasValue {
			continue
		}
		sym := sexp.Intern(cell.Name)
		if _, ok := s.Interp.Globals[sym]; ok {
			continue
		}
		v, err := s.Machine.ToValue(cell.Value)
		if err != nil {
			continue // machine-only values stay machine-only
		}
		s.Interp.Globals[sym] = v
	}
	return s.Interp.CallNamed(sexp.Intern(name), args...)
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
