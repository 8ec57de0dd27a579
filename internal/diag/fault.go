package diag

import (
	"fmt"
	"os"
	"strings"
)

// Fault injection makes the recovery paths first-class tested code: a
// Plan, parsed from the SLC_FAULT environment variable or the -fault
// flag, fires panics and errors at pipeline phase boundaries so that
// per-unit degradation can be exercised deterministically, including
// under -jobs N.
//
// Grammar (entries separated by ';'):
//
//	plan     := entry (';' entry)*
//	entry    := phase ':' selector ':' kind
//	phase    := pipeline stage name ("optimize", "emit", "disk", ...) | '*'
//	selector := "defun=" name | "unit=" name | '*'
//	kind     := "panic" | "error" | "cache-write" | "deadline"
//	          | "snapshot-write" | "snapshot-read"
//
// Examples:
//
//	SLC_FAULT=optimize:defun=exptl:panic      # panic while optimizing exptl
//	SLC_FAULT=rep:defun=f:error;emit:defun=g:panic
//	SLC_FAULT=disk:*:cache-write              # tear every durable cache write
//	SLC_FAULT=request:*:deadline              # expire every slcd request deadline
//	SLC_FAULT=snapshot:*:snapshot-write       # tear every snapshot checkpoint write
//	SLC_FAULT=snapshot:unit=boot:snapshot-read # treat the boot snapshot as corrupt

// Fault kinds.
const (
	KindPanic = "panic"
	KindError = "error"
	// KindCacheWrite makes the durable cache write a torn entry file —
	// checksum-valid header, truncated payload — exercising the startup
	// recovery and quarantine path without a real crash.
	KindCacheWrite = "cache-write"
	// KindDeadline makes the daemon treat the matching request's context
	// as already expired, exercising the timeout-diagnostic path.
	KindDeadline = "deadline"
	// KindSnapshotWrite makes the snapshot store write a torn snapshot
	// file — valid header, truncated sections — with the atomicity
	// protocol bypassed, exercising open-time quarantine (DESIGN.md §14).
	KindSnapshotWrite = "snapshot-write"
	// KindSnapshotRead makes the snapshot store treat the matching read
	// as corrupt, exercising the quarantine-and-cold-compile fallback
	// without damaging the file on disk first.
	KindSnapshotRead = "snapshot-read"
)

// Fault is one injection rule.
type Fault struct {
	// Phase matches the pipeline stage name; "*" matches any phase.
	Phase string
	// Unit matches the compilation unit name; "*" matches any unit.
	Unit string
	// Kind is one of the Kind* constants.
	Kind string
}

func (f Fault) matches(phase, unit string) bool {
	return (f.Phase == "*" || f.Phase == phase) &&
		(f.Unit == "*" || f.Unit == unit)
}

// InjectedFault is the panic/error value a firing fault produces; the
// recovery machinery recognizes it to label diagnostics precisely.
type InjectedFault struct {
	Phase, Unit, Kind string
}

func (f *InjectedFault) Error() string {
	return fmt.Sprintf("injected %s fault at %s:%s", f.Kind, f.Phase, f.Unit)
}

// Plan is a parsed fault-injection plan. A nil *Plan never fires, so
// the hot path pays one nil check.
type Plan struct {
	faults []Fault
	// OnFire, when non-nil, is called with (kind, phase, unit) every time
	// a fault actually fires or a Should query matches — the flight
	// recorder uses it to log injected failures alongside their effects.
	// Set it once after ParsePlan, before the plan is shared.
	OnFire func(kind, phase, unit string)
}

func (p *Plan) fired(kind, phase, unit string) {
	if p.OnFire != nil {
		p.OnFire(kind, phase, unit)
	}
}

// ParsePlan parses the SLC_FAULT grammar. An empty string yields a nil
// plan.
func ParsePlan(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	p := &Plan{}
	for _, ent := range strings.Split(s, ";") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		parts := strings.SplitN(ent, ":", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("diag: fault entry %q: want phase:selector:kind", ent)
		}
		f := Fault{Phase: parts[0], Kind: parts[2]}
		switch sel := parts[1]; {
		case sel == "*":
			f.Unit = "*"
		case strings.HasPrefix(sel, "defun="):
			f.Unit = strings.TrimPrefix(sel, "defun=")
		case strings.HasPrefix(sel, "unit="):
			f.Unit = strings.TrimPrefix(sel, "unit=")
		default:
			return nil, fmt.Errorf("diag: fault selector %q: want defun=NAME, unit=NAME or *", sel)
		}
		switch f.Kind {
		case KindPanic, KindError, KindCacheWrite, KindDeadline,
			KindSnapshotWrite, KindSnapshotRead:
		default:
			return nil, fmt.Errorf("diag: fault kind %q: want panic, error, cache-write, deadline, snapshot-write or snapshot-read", f.Kind)
		}
		if f.Phase == "" || f.Unit == "" {
			return nil, fmt.Errorf("diag: fault entry %q: empty phase or unit", ent)
		}
		p.faults = append(p.faults, f)
	}
	if len(p.faults) == 0 {
		return nil, nil
	}
	return p, nil
}

// PlanFromEnv parses SLC_FAULT from the environment.
func PlanFromEnv() (*Plan, error) {
	return ParsePlan(os.Getenv("SLC_FAULT"))
}

// Fire checks the plan at a phase boundary for one unit: a matching
// panic fault panics with an *InjectedFault, a matching error fault
// returns one, and no match (or a nil plan) returns nil. The other
// kinds never fire here — they are consulted via Should.
func (p *Plan) Fire(phase, unit string) error {
	if p == nil {
		return nil
	}
	for _, f := range p.faults {
		if !f.matches(phase, unit) {
			continue
		}
		switch f.Kind {
		case KindPanic:
			p.fired(KindPanic, phase, unit)
			panic(&InjectedFault{Phase: phase, Unit: unit, Kind: KindPanic})
		case KindError:
			p.fired(KindError, phase, unit)
			return &InjectedFault{Phase: phase, Unit: unit, Kind: KindError}
		}
	}
	return nil
}

// Should reports whether a fault of the given kind matches. It serves
// the kinds that are consulted at a decision point rather than fired as
// a panic/error: cache-write and snapshot-write/-read (the durable
// layer) and deadline (daemon request entry).
func (p *Plan) Should(kind, phase, unit string) bool {
	if p == nil {
		return false
	}
	for _, f := range p.faults {
		if f.Kind == kind && f.matches(phase, unit) {
			p.fired(kind, phase, unit)
			return true
		}
	}
	return false
}
