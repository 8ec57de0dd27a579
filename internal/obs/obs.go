// Package obs is the observability layer of the reproduction: a
// low-overhead tracing and metrics subsystem threaded through the compile
// pipeline and the S-1 simulator. The paper's own methodology is
// observational — its tables are meters read off the compiler and the
// simulator — and obs generalizes those meters into three instruments:
//
//   - Phase tracing: every per-defun pipeline stage (read, convert,
//     cache-probe, optimize, cse, analysis, binding, rep, pdl, emit)
//     records a Span with duration, tree-node count and worker id.
//     Spans export as Chrome trace-event JSON (trace.go), viewable in
//     Perfetto, and aggregate into a per-phase table (report.go).
//   - Rule provenance: every optimizer rule fire becomes a RuleEvent
//     (rule name, back-translated before/after source), generalizing the
//     §5 transcript into a queryable log with a top-N report.
//   - Runtime metrics: the machine meters surface over HTTP in
//     Prometheus text format alongside net/http/pprof (debug.go).
//
// The whole API is nil-safe: a nil *Recorder produces nil *Task and
// *ActiveSpan values whose methods are no-ops, so instrumented code pays
// only a nil check on the hot path when observability is off.
package obs

import (
	"sync"
	"time"
)

// Span is one completed pipeline phase for one compilation unit.
type Span struct {
	// Phase is the pipeline stage name (e.g. "optimize", "emit").
	Phase string
	// Unit is the compilation unit — the defun name, or a %batch-N /
	// %toplevel-N pseudo-unit for whole-batch and top-level-form work.
	Unit string
	// Worker identifies the goroutine: 0 is the driving goroutine
	// (read, convert, cache probes, emission, sequential compiles),
	// 1..Jobs are middle-end pool workers.
	Worker int
	// Start and End are offsets from the Recorder's epoch.
	Start, End time.Duration
	// Nodes is the tree-node count after the phase ran (0 if not
	// measured).
	Nodes int
}

// RuleEvent is one optimizer transformation, the structured form of a
// §5 transcript entry.
type RuleEvent struct {
	// Unit is the function being optimized.
	Unit string
	// Rule is the transformation name (e.g. META-SUBSTITUTE).
	Rule string
	// Before and After are the back-translated source forms.
	Before, After string
	// Ts is the fire time as an offset from the Recorder's epoch.
	Ts time.Duration
	// Worker is the goroutine that fired the rule.
	Worker int
}

// Instant is a standalone point event on a worker timeline — runtime
// happenings (GC pauses, cache traffic) merged into the
// Chrome trace alongside the compile-phase spans.
type Instant struct {
	// Name is the event label shown in the trace viewer.
	Name string
	// Cat is the trace category (e.g. "runtime", "cache").
	Cat string
	// Ts is the offset from the Recorder's epoch.
	Ts time.Duration
	// Worker is the timeline (thread) the event renders on.
	Worker int
	// Args are extra key/values shown when the event is selected.
	Args map[string]any
}

// Recorder collects spans, rule events and instants. All methods are
// safe for concurrent use and safe on a nil receiver (no-ops).
type Recorder struct {
	epoch       time.Time
	mu          sync.Mutex
	spans       []Span
	rules       []RuleEvent
	instants    []Instant
	threadNames map[int]string
}

// NewRecorder returns an empty recorder with its epoch set to now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Epoch returns the recorder's zero time (zero value on a nil
// recorder). Callers converting wall-clock event times into trace
// offsets subtract this.
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// SetThreadName overrides the display name of one worker timeline in
// the trace export (the default is "driver"/"worker N").
func (r *Recorder) SetThreadName(worker int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.threadNames == nil {
		r.threadNames = map[int]string{}
	}
	r.threadNames[worker] = name
	r.mu.Unlock()
}

// AddInstant records a point event for the trace export.
func (r *Recorder) AddInstant(ev Instant) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.instants = append(r.instants, ev)
	r.mu.Unlock()
}

// Instants returns a snapshot of the recorded instants.
func (r *Recorder) Instants() []Instant {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Instant, len(r.instants))
	copy(out, r.instants)
	return out
}

// Task returns a span factory for one compilation unit on one worker.
// Returns nil (a valid no-op task) on a nil recorder.
func (r *Recorder) Task(unit string, worker int) *Task {
	if r == nil {
		return nil
	}
	return &Task{r: r, unit: unit, worker: worker}
}

// AddRules appends rule events. The compile pipeline buffers each unit's
// events and appends them at emission time, which is serialized in source
// order — so the rule log is deterministic regardless of Jobs.
func (r *Recorder) AddRules(evs []RuleEvent) {
	if r == nil || len(evs) == 0 {
		return
	}
	r.mu.Lock()
	r.rules = append(r.rules, evs...)
	r.mu.Unlock()
}

// Spans returns a snapshot of the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Rules returns a snapshot of the recorded rule events.
func (r *Recorder) Rules() []RuleEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RuleEvent, len(r.rules))
	copy(out, r.rules)
	return out
}

// CountSpans reports how many spans match unit and phase ("" matches
// anything).
func (r *Recorder) CountSpans(unit, phase string) int {
	n := 0
	for _, s := range r.Spans() {
		if (unit == "" || s.Unit == unit) && (phase == "" || s.Phase == phase) {
			n++
		}
	}
	return n
}

// Task makes spans for one (unit, worker) pair.
type Task struct {
	r      *Recorder
	unit   string
	worker int
	// phase names the currently open span, giving panic recovery a way
	// to report which pipeline stage was in flight. Tasks are used by a
	// single goroutine, so no lock.
	phase string
}

// CurrentPhase returns the phase of the open span, "" when none is open
// (or for the nil no-op task).
func (t *Task) CurrentPhase() string {
	if t == nil {
		return ""
	}
	return t.phase
}

// Live reports whether the task records anything (false for the nil
// no-op task). Use it to skip building event payloads when off.
func (t *Task) Live() bool { return t != nil }

// Worker returns the task's worker id (0 for the nil task).
func (t *Task) Worker() int {
	if t == nil {
		return 0
	}
	return t.worker
}

// Since returns the current offset from the recorder epoch (0 for the
// nil task).
func (t *Task) Since() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.r.epoch)
}

// Start opens a span for one phase. End must be called on the same
// goroutine; spans on one worker must nest properly (which they do when
// Start/End bracket call structure).
func (t *Task) Start(phase string) *ActiveSpan {
	if t == nil {
		return nil
	}
	t.phase = phase
	return &ActiveSpan{t: t, phase: phase, start: time.Since(t.r.epoch)}
}

// ActiveSpan is an open span; End records it.
type ActiveSpan struct {
	t     *Task
	phase string
	start time.Duration
	nodes int
}

// SetNodes attaches a tree-node count to the span.
func (s *ActiveSpan) SetNodes(n int) {
	if s != nil {
		s.nodes = n
	}
}

// End closes the span and records it.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	t := s.t
	t.phase = ""
	sp := Span{
		Phase: s.phase, Unit: t.unit, Worker: t.worker,
		Start: s.start, End: time.Since(t.r.epoch), Nodes: s.nodes,
	}
	t.r.mu.Lock()
	t.r.spans = append(t.r.spans, sp)
	t.r.mu.Unlock()
}
