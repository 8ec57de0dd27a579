package core

import (
	"fmt"

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
	if s.constsFP != "" {
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

// RestoreSystem builds a System from a snapshot instead of compiling.
// The options configure the new system exactly as NewSystem would (the
// execution toggles — NoTier, HotThreshold, GCStress, limits —
// apply to the restored machine; Options.Constants is rejected); the
// snapshot supplies the machine image and the compiler pinning.
//
// The restore is *verified*: after the image loads, the machine's
// recomputed ImageFingerprint and AllocContext must equal the ones
// recorded at snapshot time, or the restore fails — the caller's
// contract is to fall back to a cold compile on any error, so a
// mismatched or damaged snapshot degrades to a slow boot, never to a
// wrong image being served.
func RestoreSystem(opts Options, snap *snapshot.Snapshot) (*System, error) {
	if snap == nil || snap.Image == nil {
		return nil, fmt.Errorf("core: restore requires a snapshot with an image")
	}
	if len(opts.Constants) > 0 {
		return nil, fmt.Errorf("core: systems with compile-time constants cannot restore from snapshots")
	}
	sys := NewSystem(opts)
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
	sys.sources = append([]string(nil), snap.Sources...)
	sys.rehydrate(snap.Sources)
	// Rehydration replayed every defmacro, bumping the epoch once per
	// macro; pin it to the recorded value so compile-cache keys computed
	// by this system match ones computed by the exporting system.
	sys.macroEpoch = snap.Meta.MacroEpoch
	return sys, nil
}

// rehydrate rebuilds the machine-free side of the system — interpreter
// function definitions, macro expanders, proclamations, and the Defs
// name table — by re-running the reader and converter over the stored
// sources. Nothing here touches the machine: top-level forms are
// converted (so defmacro and proclaim take effect) but never compiled
// or executed, and function bodies bind to the already-restored machine
// code by name. Forms that fail to read or convert are skipped, exactly
// as the original diagnostic-accumulating load skipped them.
func (s *System) rehydrate(sources []string) {
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
			idx := s.Machine.FuncNamed(d.Name.Name)
			if idx < 0 {
				// The original load failed this unit (it never reached the
				// machine); leave it undefined here too.
				continue
			}
			s.Interp.DefineFunction(d.Name, &interp.Closure{Lambda: d.Lambda})
			s.Defs[d.Name.Name] = idx
		}
	}
}
