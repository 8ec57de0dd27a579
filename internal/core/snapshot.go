package core

import (
	"fmt"
	"maps"

	"repro/internal/convert"
	"repro/internal/s1"
	"repro/internal/sexp"
	"repro/internal/snapshot"
)

// System snapshot and verified restore (DESIGN.md §14). A snapshot
// captures the machine image plus the compiler pinning (gensym counter,
// macro epoch, allocator context) and the loaded source texts; a restore
// rebuilds a System whose observable state — image fingerprint,
// allocator context, compile-cache keys, macro expanders — is
// indistinguishable from one that cold-compiled the same sources, at the
// cost of a copy instead of a compile.

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

// Rehydrated is a snapshot whose image has been loaded and verified
// once and whose sources have been read once, kept as the state every
// system restored from it starts with: the template machine, the
// proclaimed specials, each macro's expander index, and the Defs table,
// which Restore copies into each new system. It also keeps the request
// plans its restored systems record (plan.go), which a new snapshot,
// being a new Rehydrated, starts without.
type Rehydrated struct {
	// Snap is the snapshot every Restore copies.
	Snap *snapshot.Snapshot

	// template is Snap's image loaded into a machine that never runs,
	// and imageHash its fingerprint, verified equal to Snap's recorded
	// one when Rehydrate loaded it.
	template  *s1.Machine
	imageHash string

	specials map[*sexp.Symbol]bool
	macros   map[*sexp.Symbol]int
	defs     map[string]int
	plans    planMemo
}

// MissingExpanderError reports a snapshot whose sources define macros
// its image holds no expanders for (an image written before expanders
// were compiled, say): the two do not belong together.
type MissingExpanderError struct {
	Macro string // the first defmacro without an expander, if any
}

func (e *MissingExpanderError) Error() string {
	return fmt.Sprintf("core: snapshot image has no expander for macro %q", e.Macro)
}

// Rehydrate reads snap's sources once, converting, compiling and
// running nothing: it scans the top-level forms for proclamations, and
// binds each defun to the function index the snapshot's image records
// for its name and each defmacro to its expander's (expanderName at
// the macro epoch so far). A definition the original load failed has
// no binding, and a failed defmacro took no epoch, so both are left
// out, as the load left them. The expanders found must number the
// snapshot's macro epoch, or Rehydrate fails with a
// MissingExpanderError and the caller compiles cold.
//
// The image is verified here, once: it loads into the template machine,
// whose recomputed ImageFingerprint must equal the one recorded at
// snapshot time (and whose heap must pass its invariants), or Rehydrate
// fails, so a damaged snapshot never becomes one that systems restore
// from.
func Rehydrate(snap *snapshot.Snapshot) (*Rehydrated, error) {
	if snap == nil || snap.Image == nil {
		return nil, fmt.Errorf("core: restore requires a snapshot with an image")
	}
	bound := make(map[string]int, len(snap.Image.Bindings))
	for _, b := range snap.Image.Bindings {
		bound[b.Name] = b.Idx
	}
	conv := convert.New()
	r := &Rehydrated{Snap: snap, macros: map[*sexp.Symbol]int{}, defs: map[string]int{}}
	epoch, missing := 0, ""
	for _, src := range snap.Sources {
		forms, _ := sexp.ReadAllRecover(src)
		for _, f := range forms {
			conv.ScanProclaim(f.Val)
			items, err := sexp.ListToSlice(f.Val)
			if err != nil || len(items) < 3 {
				continue
			}
			head, _ := items[0].(*sexp.Symbol)
			name, _ := items[1].(*sexp.Symbol)
			switch {
			case head == nil || name == nil:
			case head.Name == "defun":
				if idx, ok := bound[name.Name]; ok {
					r.defs[name.Name] = idx
				}
			case head.Name == "defmacro":
				if idx, ok := bound[expanderName(name, epoch)]; ok {
					r.macros[name] = idx
					epoch++
				} else if missing == "" {
					missing = name.Name
				}
			}
		}
	}
	if epoch != snap.Meta.MacroEpoch {
		return nil, &MissingExpanderError{Macro: missing}
	}
	r.specials = conv.Specials
	r.template = s1.New()
	if err := r.template.LoadImage(snap.Image); err != nil {
		return nil, err
	}
	r.imageHash = r.template.ImageFingerprint()
	if r.imageHash != snap.Meta.ImageHash {
		return nil, fmt.Errorf("core: restored image hash %s does not match snapshot's %s", r.imageHash, snap.Meta.ImageHash)
	}
	return r, nil
}

// Restore builds a System from r's snapshot. The options configure the
// new system exactly as NewSystem would (the execution toggles —
// GCStress, limits — apply to the restored
// machine; Options.Constants is rejected); the snapshot supplies the
// machine image and the compiler pinning, and r the converter state and
// name tables, copied. Safe for concurrent use.
//
// The machine is a copy of r's template (s1.Machine.LoadFrom), whose
// image Rehydrate verified. The restore is still checked: the
// snapshot's recorded image hash must still be the one verified, and
// the new machine's AllocContext, which depends on its configuration
// (the heap limit, forced collection), must equal the one recorded at
// snapshot time, or the restore fails — the caller's contract is to
// fall back to a cold compile on any error, so a mismatched or damaged
// snapshot degrades to a slow boot, never to a wrong image being
// served.
func (r *Rehydrated) Restore(opts Options) (*System, error) {
	snap := r.Snap
	if len(opts.Constants) > 0 {
		return nil, fmt.Errorf("core: systems with compile-time constants cannot restore from snapshots")
	}
	if snap.Meta.ImageHash != r.imageHash {
		return nil, fmt.Errorf("core: snapshot's image hash %s is not the %s verified at rehydration", snap.Meta.ImageHash, r.imageHash)
	}
	sys := NewSystem(opts)
	if err := sys.Machine.LoadFrom(r.template); err != nil {
		return nil, err
	}
	if got := sys.Machine.AllocContext(); got != snap.Meta.AllocCtx {
		return nil, fmt.Errorf("core: restored allocator context %s does not match snapshot's %s", got, snap.Meta.AllocCtx)
	}
	sys.Compiler.SetGenCount(snap.Meta.GenCount)
	sys.toplevelCount = snap.Meta.ToplevelCount
	sys.batchCount = snap.Meta.BatchCount
	// Rehydrate counted one expander per epoch; the recorded value is
	// what makes compile-cache keys computed here match ones computed by
	// the exporting system.
	sys.macroEpoch = snap.Meta.MacroEpoch
	sys.sources = append([]string(nil), snap.Sources...)
	sys.Conv.Specials = maps.Clone(r.specials)
	maps.Copy(sys.macros, r.macros) // the table the converter's hooks read
	sys.Defs = maps.Clone(r.defs)
	sys.boot = r
	return sys, nil
}
