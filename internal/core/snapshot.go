package core

import (
	"fmt"
	"maps"

	"repro/internal/convert"
	"repro/internal/interp"
	"repro/internal/sexp"
	"repro/internal/snapshot"
)

// System snapshot and verified restore (DESIGN.md §14). A snapshot
// captures the machine image plus the compiler pinning (gensym counter,
// macro epoch, allocator context) and the loaded source texts; a restore
// rebuilds a System whose observable state — image fingerprint,
// allocator context, compile-cache keys, interpreter definitions, macro
// expanders — is indistinguishable from one that cold-compiled the same
// sources, at the cost of a deserialize instead of a compile.

// Snapshot captures the system's current state. The system must be at a
// quiescent point: no load in progress, machine not mid-execution.
// Systems built with compile-time Constants cannot snapshot — constants
// are interned per-process host objects, the same reason they are
// excluded from the durable compile cache.
func (s *System) Snapshot() (*snapshot.Snapshot, error) {
	if len(s.Conv.Constants) > 0 {
		return nil, fmt.Errorf("core: systems with compile-time constants cannot snapshot")
	}
	img, err := s.Machine.ExportImage()
	if err != nil {
		return nil, err
	}
	return &snapshot.Snapshot{
		Meta: snapshot.Meta{
			ImageHash:     s.Machine.ImageFingerprint(),
			AllocCtx:      s.Machine.AllocContext(),
			GenCount:      s.Compiler.GenCount(),
			MacroEpoch:    s.macroEpoch,
			ToplevelCount: s.toplevelCount,
			BatchCount:    s.batchCount,
			SourceHash:    snapshot.HashSources(s.sources),
		},
		Sources: append([]string(nil), s.sources...),
		Image:   img,
	}, nil
}

// RestoreSystem builds a System from a snapshot instead of compiling:
// Rehydrate followed by Restore. A caller restoring one snapshot many
// times rehydrates it once and calls Restore for each system.
func RestoreSystem(opts Options, snap *snapshot.Snapshot) (*System, error) {
	r, err := Rehydrate(snap)
	if err != nil {
		return nil, err
	}
	return r.Restore(opts)
}

// Rehydrated is a snapshot whose sources have been read and converted
// once, kept as the machine-free state every system restored from it
// starts with: the proclaimed specials, the macro expanders, the
// interpreter's function and global cells, and the Defs table. Restore
// copies those maps into each new system; the converted trees they
// point to are shared read-only (TopForm gives every form its own
// special-variable records, so no later conversion adds references to
// a shared tree). It also keeps the request plans its restored systems
// record (plan.go), which a new snapshot, being a new Rehydrated, starts
// without.
type Rehydrated struct {
	// Snap is the snapshot every Restore loads and verifies.
	Snap *snapshot.Snapshot

	specials map[*sexp.Symbol]bool
	macros   map[*sexp.Symbol]*interp.Closure
	interp   *interp.Interp
	defs     map[string]int
	plans    planMemo
}

// Rehydrate reads and converts snap's sources once, without a machine:
// defuns bind to the function indices the snapshot's image records. It
// does not verify the image; every Restore does.
func Rehydrate(snap *snapshot.Snapshot) (*Rehydrated, error) {
	if snap == nil || snap.Image == nil {
		return nil, fmt.Errorf("core: restore requires a snapshot with an image")
	}
	bound := make(map[string]int, len(snap.Image.Bindings))
	for _, b := range snap.Image.Bindings {
		bound[b.Name] = b.Idx
	}
	sys := &System{
		Interp: interp.New(),
		Conv:   convert.New(),
		Defs:   map[string]int{},
		macros: map[*sexp.Symbol]*interp.Closure{},
	}
	sys.wireMacros()
	sys.rehydrate(snap.Sources, bound)
	return &Rehydrated{
		Snap:     snap,
		specials: sys.Conv.Specials,
		macros:   sys.macros,
		interp:   sys.Interp,
		defs:     sys.Defs,
	}, nil
}

// Restore builds a System from r's snapshot. The options configure the
// new system exactly as NewSystem would (the execution toggles —
// NoTier, HotThreshold, GCStress, limits — apply to the restored
// machine; Options.Constants is rejected); the snapshot supplies the
// machine image and the compiler pinning, and r the machine-free state,
// copied. Safe for concurrent use.
//
// The restore is *verified*: after the image loads, the machine's
// recomputed ImageFingerprint and AllocContext must equal the ones
// recorded at snapshot time, or the restore fails — the caller's
// contract is to fall back to a cold compile on any error, so a
// mismatched or damaged snapshot degrades to a slow boot, never to a
// wrong image being served.
func (r *Rehydrated) Restore(opts Options) (*System, error) {
	snap := r.Snap
	if len(opts.Constants) > 0 {
		return nil, fmt.Errorf("core: systems with compile-time constants cannot restore from snapshots")
	}
	sys := newSystem(opts, r.interp.Fork())
	if err := sys.Machine.LoadImage(snap.Image); err != nil {
		return nil, err
	}
	if got := sys.Machine.ImageFingerprint(); got != snap.Meta.ImageHash {
		return nil, fmt.Errorf("core: restored image hash %s does not match snapshot's %s", got, snap.Meta.ImageHash)
	}
	if got := sys.Machine.AllocContext(); got != snap.Meta.AllocCtx {
		return nil, fmt.Errorf("core: restored allocator context %s does not match snapshot's %s", got, snap.Meta.AllocCtx)
	}
	sys.Compiler.SetGenCount(snap.Meta.GenCount)
	sys.toplevelCount = snap.Meta.ToplevelCount
	sys.batchCount = snap.Meta.BatchCount
	// Rehydration replayed every defmacro, bumping its scratch system's
	// epoch; the recorded value is what makes compile-cache keys computed
	// here match ones computed by the exporting system.
	sys.macroEpoch = snap.Meta.MacroEpoch
	sys.sources = append([]string(nil), snap.Sources...)
	sys.Conv.Specials = maps.Clone(r.specials)
	sys.macros = maps.Clone(r.macros)
	sys.Defs = maps.Clone(r.defs)
	sys.boot = r
	return sys, nil
}

// rehydrate rebuilds the machine-free side of the system — interpreter
// function definitions, macro expanders, proclamations, and the Defs
// name table — by re-running the reader and converter over the stored
// sources. Nothing here touches the machine: top-level forms are
// converted (so defmacro and proclaim take effect) but never compiled
// or executed, and function bodies bind by name to the image's code,
// whose index bound records. Forms that fail to read or convert are
// skipped, exactly as the original diagnostic-accumulating load
// skipped them.
func (s *System) rehydrate(sources []string, bound map[string]int) {
	for _, src := range sources {
		forms, _ := sexp.ReadAllRecover(src)
		for _, f := range forms {
			s.Conv.ScanProclaim(f.Val)
		}
		prog := convert.NewProgram()
		for _, f := range forms {
			func() {
				defer func() { recover() }() // a bad form costs itself, as in EvalStringDiag
				s.Conv.TopForm(prog, f.Val)
			}()
		}
		s.Conv.FinishProgram(prog)
		for _, d := range prog.Defs {
			idx, ok := bound[d.Name.Name]
			if !ok {
				// The original load failed this unit (it never reached the
				// machine); leave it undefined here too.
				continue
			}
			s.Interp.DefineFunction(d.Name, &interp.Closure{Lambda: d.Lambda})
			s.Defs[d.Name.Name] = idx
		}
	}
}
