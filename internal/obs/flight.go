package obs

// The flight recorder is the always-on half of the observability layer:
// a bounded, lock-free ring of typed events (request lifecycle, load
// shedding, deadline interrupts, GC pauses, disk-cache
// traffic, fault injection) that survives until the moment of a crash
// and can therefore explain it. Writers pay one atomic add, one small
// allocation and one atomic pointer store per event — events are rare
// (none fire per-instruction), so the recorder stays within the ≤3%
// overhead budget measured by BenchmarkObsOverhead.
//
// Readers (the /debug/events endpoint, the SIGQUIT/panic dump, the
// per-request trace export) snapshot the ring without stopping writers:
// each slot holds an immutable *Event, so a concurrent overwrite swaps
// whole events and a reader can never observe a half-written record.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Event kinds. The runtime (internal/s1) emits the same strings through
// Machine.OnEvent without importing this package; keep them in sync.
const (
	EvReqStart        = "req-start"
	EvReqFinish       = "req-finish"
	EvLoadShed        = "load-shed"
	EvDeadline        = "deadline"
	EvGCPause         = "gc-pause"
	EvGCMinorPause    = "gc-minor-pause"
	EvCacheHit        = "cache-hit"
	EvCacheMiss       = "cache-miss"
	EvCacheQuarantine = "cache-quarantine"
	EvFault           = "fault"
	EvPanic           = "panic"
	// Snapshot lifecycle (DESIGN.md §14): a checkpoint written, a warm
	// boot restored, a file quarantined, and a restore that degraded to a
	// cold compile.
	EvSnapshotCheckpoint = "snapshot-checkpoint"
	EvSnapshotRestore    = "snapshot-restore"
	EvSnapshotQuarantine = "snapshot-quarantine"
	EvSnapshotFallback   = "snapshot-fallback"
	// Scheduler lifecycle (DESIGN.md §16): a task parked waiting for a
	// slot, resumed (DurNs = the wait), preempted at a safepoint, or
	// failed on a dry tenant gas bucket. internal/sched emits the same
	// strings without importing this package; keep them in sync.
	EvSchedPark    = "sched-park"
	EvSchedResume  = "sched-resume"
	EvSchedPreempt = "sched-preempt"
	EvGasExhausted = "gas-exhausted"
	// Resident-session lifecycle (DESIGN.md §16): created, deleted,
	// idle-expired, checkpointed at drain, restored at boot, or promised
	// by the manifest with no restorable checkpoint (a hard kill).
	EvSessionCreate     = "session-create"
	EvSessionDelete     = "session-delete"
	EvSessionExpire     = "session-expire"
	EvSessionCheckpoint = "session-checkpoint"
	EvSessionRestore    = "session-restore"
	EvSessionLost       = "session-lost"
)

// Severities, ordered.
const (
	SevDebug = "debug"
	SevInfo  = "info"
	SevWarn  = "warn"
	SevError = "error"
)

// sevRank orders severities for minimum-severity filtering; unknown
// strings rank as info.
func sevRank(s string) int {
	switch s {
	case SevDebug:
		return 0
	case SevWarn:
		return 2
	case SevError:
		return 3
	}
	return 1
}

// kindSeverity is the default severity of each event kind; Record fills
// it in when the caller leaves Sev empty.
func kindSeverity(kind string) string {
	switch kind {
	case EvLoadShed, EvDeadline, EvCacheQuarantine, EvFault,
		EvSnapshotQuarantine, EvSnapshotFallback,
		EvGasExhausted, EvSessionLost:
		return SevWarn
	case EvPanic:
		return SevError
	}
	return SevInfo
}

// Event is one flight-recorder record. All fields are immutable once
// recorded.
type Event struct {
	// Seq is the global record number (1-based, never reused); gaps in a
	// snapshot mean the ring wrapped over the missing records.
	Seq uint64 `json:"seq"`
	// WallNs is the wall-clock time (UnixNano) derived from the
	// recorder's monotonic clock, so event order and spacing stay exact
	// even across wall-clock adjustments.
	WallNs int64 `json:"wall_ns"`
	// MonoNs is nanoseconds since the recorder was created.
	MonoNs int64 `json:"mono_ns"`
	// Kind is one of the Ev* constants.
	Kind string `json:"kind"`
	// Sev is one of the Sev* constants (defaulted from Kind when empty
	// at Record time).
	Sev string `json:"sev"`
	// Trace is the W3C trace id correlating this event to one request.
	Trace string `json:"trace,omitempty"`
	// Unit names what the event is about: a function, a request path, a
	// cache entry.
	Unit string `json:"unit,omitempty"`
	// Msg is free-form detail.
	Msg string `json:"msg,omitempty"`
	// Reason says why a decision event went the way it did (a load shed
	// is "saturated" or "draining").
	Reason string `json:"reason,omitempty"`
	// DurNs carries the event's duration when it has one (GC pause,
	// request wall time).
	DurNs int64 `json:"dur_ns,omitempty"`
	// Tenant and Session are the multi-tenant routing labels (reserved
	// for the M:N scheduler; the daemon passes them through from
	// requests today).
	Tenant  string `json:"tenant,omitempty"`
	Session string `json:"session,omitempty"`
}

// Flight is the bounded event ring. All methods are safe for concurrent
// use and safe on a nil receiver (no-ops), so instrumented code can be
// wired unconditionally.
type Flight struct {
	start    time.Time
	seq      atomic.Uint64
	slots    []atomic.Pointer[Event]
	sizeMask uint64
}

// DefaultFlightSize is the ring capacity used when NewFlight is given a
// non-positive size.
const DefaultFlightSize = 4096

// NewFlight returns a recorder holding the most recent events; size is
// rounded up to a power of two (minimum 16).
func NewFlight(size int) *Flight {
	n := 16
	for n < size {
		n <<= 1
	}
	if size <= 0 {
		n = DefaultFlightSize
	}
	return &Flight{
		start:    time.Now(),
		slots:    make([]atomic.Pointer[Event], n),
		sizeMask: uint64(n - 1),
	}
}

// Record stamps and stores one event. The caller fills Kind and any of
// Trace/Unit/Msg/DurNs/Tenant/Session; Seq, WallNs, MonoNs and a
// defaulted Sev are assigned here. Safe on a nil recorder.
func (f *Flight) Record(ev Event) {
	if f == nil {
		return
	}
	mono := time.Since(f.start)
	ev.MonoNs = mono.Nanoseconds()
	ev.WallNs = f.start.Add(mono).UnixNano()
	if ev.Sev == "" {
		ev.Sev = kindSeverity(ev.Kind)
	}
	ev.Seq = f.seq.Add(1)
	f.slots[(ev.Seq-1)&f.sizeMask].Store(&ev)
}

// Len reports how many events have ever been recorded (not how many are
// still resident).
func (f *Flight) Len() uint64 {
	if f == nil {
		return 0
	}
	return f.seq.Load()
}

// Filter selects events for Snapshot/WriteJSON/HTTP. Zero values match
// everything.
type Filter struct {
	// Kind matches exactly when non-empty.
	Kind string
	// MinSev drops events below this severity when non-empty.
	MinSev string
	// Trace matches the trace id exactly when non-empty.
	Trace string
	// Unit matches exactly when non-empty.
	Unit string
	// Max bounds the result to the most recent N events when > 0.
	Max int
}

func (fl Filter) match(ev *Event) bool {
	if fl.Kind != "" && ev.Kind != fl.Kind {
		return false
	}
	if fl.Trace != "" && ev.Trace != fl.Trace {
		return false
	}
	if fl.Unit != "" && ev.Unit != fl.Unit {
		return false
	}
	if fl.MinSev != "" && sevRank(ev.Sev) < sevRank(fl.MinSev) {
		return false
	}
	return true
}

// Snapshot returns the matching resident events in sequence order.
// Writers are not blocked; a record racing the snapshot either appears
// or does not, but never appears torn.
func (f *Flight) Snapshot(fl Filter) []Event {
	if f == nil {
		return nil
	}
	out := make([]Event, 0, len(f.slots))
	for i := range f.slots {
		if p := f.slots[i].Load(); p != nil && fl.match(p) {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if fl.Max > 0 && len(out) > fl.Max {
		out = out[len(out)-fl.Max:]
	}
	return out
}

// flightDump is the JSON shape of a recorder dump.
type flightDump struct {
	// Recorded is the total ever recorded; Dropped is how many of those
	// the ring has already overwritten.
	Recorded uint64  `json:"recorded"`
	Dropped  uint64  `json:"dropped"`
	Events   []Event `json:"events"`
}

// WriteJSON dumps the matching events as one JSON object — the
// SIGQUIT/panic post-mortem format and the /debug/events body.
func (f *Flight) WriteJSON(w io.Writer, fl Filter) error {
	if f == nil {
		return fmt.Errorf("obs: no flight recorder")
	}
	total := f.seq.Load()
	dropped := uint64(0)
	if total > uint64(len(f.slots)) {
		dropped = total - uint64(len(f.slots))
	}
	enc := json.NewEncoder(w)
	return enc.Encode(flightDump{Recorded: total, Dropped: dropped, Events: f.Snapshot(fl)})
}

// ServeHTTP serves the ring as /debug/events with query filters:
// ?kind=gc-pause&sev=warn&trace=<id>&unit=<name>&n=100.
func (f *Flight) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fl := Filter{
		Kind:   r.URL.Query().Get("kind"),
		MinSev: r.URL.Query().Get("sev"),
		Trace:  r.URL.Query().Get("trace"),
		Unit:   r.URL.Query().Get("unit"),
	}
	if n := r.URL.Query().Get("n"); n != "" {
		if v, err := strconv.Atoi(n); err == nil {
			fl.Max = v
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if f == nil {
		json.NewEncoder(w).Encode(flightDump{Events: []Event{}})
		return
	}
	f.WriteJSON(w, fl)
}
