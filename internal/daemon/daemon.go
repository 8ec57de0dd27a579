// Package daemon is the long-running compile/eval service behind
// cmd/slcd: a local HTTP/JSON API that accepts Lisp source, compiles it
// with the full pipeline, optionally calls a compiled function, and
// returns printed values plus structured diagnostics.
//
// Every request runs in its own fresh core.System — simulator machines
// are not shareable — with its own step and heap budgets, under the
// PR 3 panic-isolation barriers: a panicking, faulted, or runaway unit
// degrades to a positioned diagnostic in the response and the daemon
// keeps serving. The durable compile cache (internal/compilecache) is
// the shared state that makes per-request systems cheap: a warm request
// replays its compilation from disk instead of re-running the middle
// end.
//
// Robustness machinery (DESIGN.md §11):
//
//   - admission control: every request — /compile, /run and /session
//     alike — executes under the M:N machine scheduler (internal/sched,
//     DESIGN.md §16). At most SchedWorkers machines run at once and at
//     most QueueDepth more may be admitted behind them; past that the
//     daemon sheds with 429 + Retry-After instead of queuing unboundedly
//   - deadlines: each request gets a context deadline (ReqTimeout) that
//     covers its queue wait too; when it fires, the request's machine is
//     interrupted cooperatively and the response is a 504 with a
//     structured diagnostic
//   - graceful shutdown: Drain stops admission (503, readiness goes
//     false) and waits for in-flight requests; cmd/slcd wires it to
//     SIGTERM
//   - observability: per-request spans land in a ring buffer exported as
//     JSON off the obs debug mux, next to /healthz and /readyz
package daemon

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compilecache"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/s1"
	"repro/internal/sched"
	"repro/internal/sexp"
	"repro/internal/snapshot"
)

// stressSched makes servers built afterwards force a scheduler yield at
// every safepoint, so every program parks and resumes constantly — the
// differential torture mode for the park/resume path. Only tests set
// it (TestSchedModeDifferential runs its sequence both ways).
var stressSched bool

// Config sizes and arms a Server. Zero values take the documented
// defaults.
type Config struct {
	// SchedWorkers bounds concurrently executing machines (default
	// GOMAXPROCS). Admitted requests beyond it wait in the scheduler's
	// tenant queues, and running ones park at safepoints when their
	// quantum expires with others waiting.
	SchedWorkers int
	// QueueDepth bounds requests admitted beyond SchedWorkers (default
	// 16); admission past SchedWorkers+QueueDepth sheds with 429.
	QueueDepth int
	// ReqTimeout is the per-request deadline (default 10s).
	ReqTimeout time.Duration
	// MaxSteps/MaxHeapWords are the per-request machine budgets
	// (0 = the machine defaults / unlimited).
	MaxSteps     int64
	MaxHeapWords int64
	// OptWatchdog bounds each unit's optimizer fixpoint.
	OptWatchdog time.Duration
	// HotThreshold is ignored: every function runs lowered from
	// install.
	//
	// Deprecated: kept so configurations written for the old tiered
	// engine still compile.
	HotThreshold int64
	// Disk is the shared durable compile cache (nil = none).
	Disk *compilecache.Disk
	// Prelude is Lisp source loaded into every request's system before
	// the request's own source (the daemon's standard library). With
	// Snapshots set, the prelude is compiled once and each request
	// restores the verified snapshot — warm boot — instead of
	// recompiling; without it, each request cold-loads the prelude.
	Prelude string
	// Snapshots is the durable snapshot store backing warm boot across
	// process restarts (nil = in-memory warm boot only). See Boot and
	// Checkpoint.
	Snapshots *snapshot.Store
	// GasRate is each tenant's gas refill in simulated S-1 cycles per
	// second (0 = gas metering off); GasBurst is the bucket capacity
	// (default 10×GasRate). An exhausted tenant gets a typed 429, not a
	// deadline 504.
	GasRate  int64
	GasBurst int64
	// MaxSessions bounds resident sessions (default 10000);
	// SessionIdleTTL expires sessions idle longer than it (0 = never).
	MaxSessions    int
	SessionIdleTTL time.Duration
	// Fault is the injection plan; a matching deadline fault makes a
	// request behave as if its deadline had already expired.
	Fault *diag.Plan
	// Flight is the always-on event recorder shared with the rest of the
	// process (nil = the server builds its own; the recorder is never
	// off).
	Flight *obs.Flight
	// Logger receives structured per-request log records (nil = discard).
	Logger *slog.Logger
}

// DiagJSON is one diagnostic in the response body.
type DiagJSON struct {
	Severity string `json:"severity"`
	Unit     string `json:"unit,omitempty"`
	Phase    string `json:"phase,omitempty"`
	Line     int    `json:"line,omitempty"`
	Col      int    `json:"col,omitempty"`
	Msg      string `json:"msg"`
}

// Request is the body of POST /compile and POST /run.
type Request struct {
	// Source is the Lisp program text: defuns are compiled, other
	// top-level forms run on the simulator.
	Source string `json:"source"`
	// Fn, for /run, names the compiled function to call after loading.
	Fn string `json:"fn,omitempty"`
	// Args are the call arguments as printed S-expressions.
	Args []string `json:"args,omitempty"`
	// Tenant and Session are optional routing labels, carried through
	// logs, spans and flight events (the M:N scheduler's future keys).
	Tenant  string `json:"tenant,omitempty"`
	Session string `json:"session,omitempty"`
}

// Response is the body of every API reply (including sheds and
// timeouts, which additionally use the HTTP status code).
type Response struct {
	OK bool `json:"ok"`
	// Value is the printed value of the call (/run) or of the last
	// top-level form (/compile).
	Value string `json:"value,omitempty"`
	// Defs lists the functions compiled by this request.
	Defs []string `json:"defs,omitempty"`
	// Session echoes the session id a request created or ran against.
	Session     string     `json:"session,omitempty"`
	Diagnostics []DiagJSON `json:"diagnostics,omitempty"`
	TimedOut    bool       `json:"timed_out,omitempty"`
	// GasExhausted marks a 429 caused by the tenant's gas budget (the
	// program ran out of paid-for cycles) as opposed to load shedding.
	GasExhausted bool    `json:"gas_exhausted,omitempty"`
	DurationMs   float64 `json:"duration_ms"`
	// status, when non-zero, overrides the HTTP status the handler would
	// derive from OK/TimedOut (sessions' 404/409, gas's 429). Internal.
	status int
	// TraceID is the request's W3C trace id (accepted from the incoming
	// traceparent header or generated); the same id is echoed in the
	// response traceparent header and stamped on the daemon span, the
	// flight events and the Chrome trace.
	TraceID string `json:"trace_id,omitempty"`
	// Trace, present when the request asked for ?trace=1, is the
	// request's Chrome trace-event JSON: compile phase spans plus the
	// runtime events (GC pauses, cache traffic) that
	// carried this trace id.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// Stats are the daemon's lifetime counters, exported as metrics.
type Stats struct {
	Accepted  int64 `json:"accepted"`
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"` // compile/run errors (structured, served)
	Shed      int64 `json:"shed"`
	TimedOut  int64 `json:"timed_out"`
	Panics    int64 `json:"panics"` // requests that hit the last-resort barrier
	Drained   int64 `json:"drained"`
	// TierCacheFills aggregates the per-request machines' call-site
	// inline-cache fills over the daemon's lifetime.
	TierCacheFills int64 `json:"tier_cache_fills"`
	// Snapshot counters: per-request systems served from the boot
	// snapshot, restores that failed verification and fell back to a
	// cold compile, and checkpoints written.
	SnapshotRestores        int64 `json:"snapshot_restores"`
	SnapshotRestoreFailures int64 `json:"snapshot_restore_failures"`
	SnapshotCheckpoints     int64 `json:"snapshot_checkpoints"`
	// GC counters aggregate the per-request machines' collector activity
	// (full and minor collections, words promoted out of the nursery).
	GCFullCollections  int64 `json:"gc_full_collections"`
	GCMinorCollections int64 `json:"gc_minor_collections"`
	GCWordsPromoted    int64 `json:"gc_words_promoted"`
	// ArenaRecycles counts request machines built on a recycled storage
	// arena (heap/stack/record slices reused from an earlier request).
	ArenaRecycles int64 `json:"arena_recycles"`
	// GasExhausted counts requests rejected or halted by a dry tenant
	// gas bucket (typed 429s, distinct from Shed).
	GasExhausted int64 `json:"gas_exhausted"`
	// MarshaledPrims sums the request machines' fallback-primitive
	// calls that took the marshaled host hook (s1.Stats.MarshaledPrims).
	MarshaledPrims int64 `json:"marshaled_prims"`
	// Request-plan counters (core.PlanStats): loads that skipped the
	// reader and converter by a boot-snapshot plan, plans recorded, and
	// loads whose plan named an entry the durable cache had lost.
	PlanHits      int64 `json:"plan_hits"`
	PlanRecords   int64 `json:"plan_records"`
	PlanFallbacks int64 `json:"plan_fallbacks"`
	// Session lifecycle counters. Restored counts sessions revived from
	// drain-time checkpoints at boot; Lost counts sessions the manifest
	// promised but no restorable checkpoint backed (a hard kill).
	SessionsCreated  int64 `json:"sessions_created"`
	SessionsExpired  int64 `json:"sessions_expired"`
	SessionsRestored int64 `json:"sessions_restored"`
	SessionsLost     int64 `json:"sessions_lost"`
}

// span is one request's record in the export ring. New fields are
// omitempty/additive so the JSON shape stays backward-compatible with
// the PR 5 consumers that read id/path/status/start/duration_ms.
type span struct {
	ID         int64   `json:"id"`
	Path       string  `json:"path"`
	Status     int     `json:"status"`
	OK         bool    `json:"ok"`
	TimedOut   bool    `json:"timed_out,omitempty"`
	Start      string  `json:"start"`
	DurationMs float64 `json:"duration_ms"`
	Note       string  `json:"note,omitempty"`
	// StartMonoNs is the request start on the server's monotonic clock
	// (nanoseconds since the server was built) — unlike Start it orders
	// and spaces spans exactly across wall-clock adjustments.
	StartMonoNs int64 `json:"start_mono_ns"`
	// TraceID links the span to the request's flight events and Chrome
	// trace.
	TraceID string `json:"trace_id,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Session string `json:"session,omitempty"`
}

// spanRingSize bounds the request-span export.
const spanRingSize = 256

// Server is the daemon. It is an http.Handler serving the request API;
// RegisterDebug hangs the health/readiness/span endpoints off a debug
// mux.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// sched is the M:N machine scheduler every request executes under;
	// sessions is the resident-session store.
	sched    *sched.Sched
	sessions *sessionStore

	draining atomic.Bool
	inflight sync.WaitGroup

	// flight is the always-on event recorder; log the structured logger.
	// epoch anchors StartMonoNs.
	flight *obs.Flight
	log    *slog.Logger
	epoch  time.Time

	// Latency histograms (Prometheus histogram series on /metrics).
	reqHist     *obs.Histogram
	phaseHist   *obs.Histogram
	gcHist      *obs.Histogram
	gcMinorHist *obs.Histogram
	cyclesHist  *obs.Histogram
	schedHist   *obs.Histogram

	// arenas recycles request machines' large slices (s1.Arena): a
	// finished request releases its heap, record and code storage here
	// and the next request resets it to the high-water mark instead of
	// reallocating.
	arenas arenaPool

	// boot is the current verified prelude snapshot with its rehydrated
	// state, swapped as one; per-request systems restore from it instead
	// of recompiling the prelude.
	boot atomic.Pointer[core.Rehydrated]

	mu     sync.Mutex
	stats  Stats
	nextID int64
	ring   []span
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.SchedWorkers <= 0 {
		cfg.SchedWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.ReqTimeout <= 0 {
		cfg.ReqTimeout = 10 * time.Second
	}
	if cfg.Flight == nil {
		cfg.Flight = obs.NewFlight(obs.DefaultFlightSize)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 10000
	}
	s := &Server{
		cfg:    cfg,
		flight: cfg.Flight,
		log:    cfg.Logger,
		epoch:  time.Now(),
		arenas: arenaPool{max: cfg.SchedWorkers},
		reqHist: obs.NewHistogram("slcd_request_seconds",
			"Request wall time in seconds.", obs.DurationBuckets()),
		phaseHist: obs.NewHistogram("slcd_compile_phase_seconds",
			"Compile pipeline phase durations in seconds.", obs.DurationBuckets()),
		gcHist: obs.NewHistogram("slcd_gc_pause_seconds",
			"Simulator full-GC pause durations in seconds.", obs.ExpBuckets(1e-6, 2, 20)),
		gcMinorHist: obs.NewHistogram("slcd_gc_minor_pause_seconds",
			"Simulator minor-GC pause durations in seconds.", obs.ExpBuckets(1e-6, 2, 20)),
		cyclesHist: obs.NewHistogram("slcd_eval_cycles",
			"Simulated S-1 cycles per request.", obs.CycleBuckets()),
		schedHist: obs.NewHistogram("slcd_sched_wait_seconds",
			"Scheduling latency: time parked tasks waited for a slot.", obs.DurationBuckets()),
	}
	s.sessions = newSessionStore(cfg.MaxSessions, cfg.SessionIdleTTL)
	s.sched = sched.New(sched.Config{
		Workers:   cfg.SchedWorkers,
		MaxQueued: cfg.QueueDepth,
		GasRate:   cfg.GasRate,
		GasBurst:  cfg.GasBurst,
		Stress:    stressSched,
		OnEvent: func(kind, tenant string, d time.Duration) {
			if kind == sched.EvResume {
				s.schedHist.ObserveDuration(d)
			}
			s.flight.Record(obs.Event{Kind: kind, Tenant: tenant, DurNs: d.Nanoseconds()})
		},
	})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /compile", func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, false, s.runRequest) })
	s.mux.HandleFunc("POST /run", func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, true, s.runRequest) })
	s.mux.HandleFunc("POST /session", func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, false, s.createSession) })
	s.mux.HandleFunc("POST /admin/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /session", s.handleSessionList)
	s.mux.HandleFunc("GET /session/{id}", s.handleSessionGet)
	s.mux.HandleFunc("DELETE /session/{id}", s.handleSessionDelete)
	// Quarantines in either durable store land in the flight recorder.
	record := func(kind, name string) { s.flight.Record(obs.Event{Kind: kind, Unit: name}) }
	if cfg.Disk != nil {
		cfg.Disk.SetEventHook(record)
	}
	if cfg.Snapshots != nil {
		cfg.Snapshots.SetEventHook(record)
	}
	return s
}

// Flight returns the server's event recorder (never nil after New).
func (s *Server) Flight() *obs.Flight { return s.flight }

// Register wires the server's metrics, histograms and flight recorder
// into an obs.Registry (the /metrics + /debug/events provider).
func (s *Server) Register(reg *obs.Registry) {
	reg.AddMetrics(s.Metrics).
		AddHistogram(s.reqHist).
		AddHistogram(s.phaseHist).
		AddHistogram(s.gcHist).
		AddHistogram(s.gcMinorHist).
		AddHistogram(s.cyclesHist).
		AddHistogram(s.schedHist).
		SetFlight(s.flight)
}

// ServeHTTP makes the Server mountable directly (tests use
// httptest.NewServer(s)).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Stats returns a copy of the lifetime counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Metrics exposes the counters in the obs metrics-snapshot shape.
func (s *Server) Metrics() map[string]float64 {
	st := s.Stats()
	m := map[string]float64{
		"slcd_requests_accepted":           float64(st.Accepted),
		"slcd_requests_ok":                 float64(st.Succeeded),
		"slcd_requests_failed":             float64(st.Failed),
		"slcd_requests_shed":               float64(st.Shed),
		"slcd_requests_timeout":            float64(st.TimedOut),
		"slcd_requests_panic":              float64(st.Panics),
		"slcd_tier_call_cache_fills_total": float64(st.TierCacheFills),
		// 0 = closed, 1 = open, 2 = half-open (compilecache.BreakerState
		// order); 0 when no disk cache is configured.
		"slcd_cache_breaker_state":             0,
		"slcd_snapshot_restores_total":         float64(st.SnapshotRestores),
		"slcd_snapshot_restore_failures_total": float64(st.SnapshotRestoreFailures),
		"slcd_snapshot_checkpoints_total":      float64(st.SnapshotCheckpoints),
		"slcd_gc_full_total":                   float64(st.GCFullCollections),
		"slcd_gc_minor_total":                  float64(st.GCMinorCollections),
		"slcd_gc_promoted_words_total":         float64(st.GCWordsPromoted),
		"slcd_marshaled_prims_total":           float64(st.MarshaledPrims),
		"slcd_arena_recycles_total":            float64(st.ArenaRecycles),
		"slcd_plan_hits_total":                 float64(st.PlanHits),
		"slcd_plan_records_total":              float64(st.PlanRecords),
		"slcd_plan_fallbacks_total":            float64(st.PlanFallbacks),
	}
	// The durable compile cache's meters; file reads count the verified
	// reads that filled its process-wide layer, so hits minus file reads
	// is the lookups served without touching the file system.
	var ds compilecache.DiskStats
	if s.cfg.Disk != nil {
		m["slcd_cache_breaker_state"] = float64(s.cfg.Disk.Breaker().State())
		ds = s.cfg.Disk.Stats()
	}
	m["slcd_cache_disk_hits_total"] = float64(ds.Hits)
	m["slcd_cache_disk_misses_total"] = float64(ds.Misses)
	m["slcd_cache_disk_stores_total"] = float64(ds.Stores)
	m["slcd_cache_disk_corrupt_total"] = float64(ds.Corrupt)
	m["slcd_cache_disk_file_reads_total"] = float64(ds.FileReads)
	m["slcd_sessions_resident"] = float64(s.sessions.count())
	m["slcd_sessions_created_total"] = float64(st.SessionsCreated)
	m["slcd_sessions_expired_total"] = float64(st.SessionsExpired)
	m["slcd_sessions_restored_total"] = float64(st.SessionsRestored)
	m["slcd_sessions_lost_total"] = float64(st.SessionsLost)
	m["slcd_gas_exhausted_total"] = float64(st.GasExhausted)
	for k, v := range s.sched.Metrics() {
		m[k] = v
	}
	return m
}

// Degraded lists the subsystems currently operating in a reduced mode:
// the daemon still serves (readiness stays true) but an operator should
// look. Surfaced as the "degraded" array on /readyz.
func (s *Server) Degraded() []string {
	var out []string
	if d := s.cfg.Disk; d != nil && d.Breaker().State() != compilecache.BreakerClosed {
		out = append(out, "cache-breaker-open")
	}
	if s.cfg.Prelude != "" && s.cfg.Snapshots != nil && s.boot.Load() == nil {
		// Warm boot is configured but no verified snapshot is live:
		// every request is paying a cold prelude compile.
		out = append(out, "snapshot-cold")
	}
	if n := s.sessions.lostCount(); n > 0 {
		// The session manifest promised sessions no checkpoint backed —
		// a hard kill lost them. The daemon serves (new sessions work);
		// the operator learns the old ones are gone.
		out = append(out, "session-store")
	}
	return out
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops admitting requests (429s become 503s, readiness goes
// false) and blocks until every in-flight request has completed or ctx
// expires. It returns nil on a clean drain.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Every request is out; all sessions are idle. Checkpoint them so
		// the next boot can revive them with state intact.
		s.checkpointSessions()
		s.mu.Lock()
		s.stats.Drained++
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("daemon: drain deadline expired with requests in flight")
	}
}

// RegisterDebug hangs /healthz, /readyz and /requests off mux (the obs
// -debug-addr server).
func (s *Server) RegisterDebug(mux *http.ServeMux) {
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{"ok": false, "reason": "draining"})
			return
		}
		// Degraded subsystems (open cache breaker, cold snapshot) are
		// reported but keep readiness true: the daemon serves correct
		// results either way, just slower.
		out := map[string]any{"ok": true}
		if deg := s.Degraded(); len(deg) > 0 {
			out["degraded"] = deg
		}
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/requests", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		out := struct {
			Stats  Stats  `json:"stats"`
			Recent []span `json:"recent"`
		}{Stats: s.stats, Recent: append([]span(nil), s.ring...)}
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
}

// record appends one finished request to the span ring.
func (s *Server) record(sp span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	sp.ID = s.nextID
	if len(s.ring) >= spanRingSize {
		s.ring = s.ring[1:]
	}
	s.ring = append(s.ring, sp)
}

// writeJSON sends resp with the given status.
func writeJSON(w http.ResponseWriter, status int, resp *Response) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}

// ParseTraceparent extracts the trace id from a W3C traceparent header
// value ("00-<32 hex>-<16 hex>-<2 hex>"). Returns "" when the header is
// absent or malformed (the caller then generates a fresh id).
func ParseTraceparent(h string) string {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return ""
	}
	tid := strings.ToLower(parts[1])
	if !isHex(tid) || !isHex(strings.ToLower(parts[2])) || tid == strings.Repeat("0", 32) {
		return ""
	}
	return tid
}

func isHex(s string) bool {
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// randHex returns n random bytes hex-encoded (2n characters).
func randHex(n int) string {
	b := make([]byte, n)
	rand.Read(b)
	return hex.EncodeToString(b)
}

// reqInfo identifies one request through its lifecycle: when it started
// (wall clock and the server's monotonic clock), the trace it belongs
// to, whether the caller asked for a per-request Chrome trace, and
// whether it calls a function after loading (/run) or not.
type reqInfo struct {
	start     time.Time
	startMono int64
	traceID   string
	wantTrace bool
	call      bool
}

// runFunc executes one admitted request, filling resp in place. tk is
// the request's scheduler task: its Safepoint method must be wired into
// every machine the request drives (eval does this).
type runFunc func(ctx context.Context, req *Request, rq *reqInfo, tk *sched.Task, resp *Response)

// Load-shed reasons, carried by the load-shed flight event.
const (
	shedSaturated = "saturated"
	shedDraining  = "draining"
)

// serve is the one request lifecycle behind POST /compile, /run and
// /session: trace context, the drain check, body decode and deadline,
// then admission, slot wait and execution inside sched.Run, and the
// shared tail that turns the outcome into a status and records it. The
// machine's safepoints (wired to the task inside eval) are where
// preemption and gas metering happen. The deadline covers queue wait
// too: a parked request whose context dies leaves the queue and is
// answered 504 without ever running.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, call bool, run runFunc) {
	rq := &reqInfo{
		start:     time.Now(),
		startMono: time.Since(s.epoch).Nanoseconds(),
		wantTrace: r.URL.Query().Get("trace") == "1",
		call:      call,
	}
	// Trace context: accept the caller's traceparent or start a new
	// trace; either way the daemon is one new span within it, and the
	// response header carries trace id + our span id back.
	rq.traceID = ParseTraceparent(r.Header.Get("traceparent"))
	if rq.traceID == "" {
		rq.traceID = randHex(16)
	}
	w.Header().Set("traceparent", "00-"+rq.traceID+"-"+randHex(8)+"-01")

	if s.draining.Load() {
		s.shed(w, r, rq, shedDraining)
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()

	var req Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, &Response{
			Diagnostics: []DiagJSON{{Severity: "error", Phase: "request",
				Msg: "bad request body: " + err.Error()}},
			DurationMs: msSince(rq.start), TraceID: rq.traceID,
		})
		return
	}

	timeout := s.cfg.ReqTimeout
	if s.cfg.Fault.Should(diag.KindDeadline, "request", req.Fn) {
		// Injected deadline: the request starts life already expired.
		timeout = -time.Nanosecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	var resp *Response
	runErr := s.sched.Run(ctx, req.Tenant, func(tk *sched.Task) error {
		s.mu.Lock()
		s.stats.Accepted++
		s.mu.Unlock()
		s.flight.Record(obs.Event{Kind: obs.EvReqStart, Trace: rq.traceID,
			Unit: r.URL.Path, Tenant: req.Tenant, Session: req.Session})
		resp = s.execute(ctx, &req, rq, tk, run)
		return nil
	})

	var ge *sched.GasError
	switch {
	case errors.Is(runErr, sched.ErrSaturated):
		s.shed(w, r, rq, shedSaturated)
		return
	case errors.As(runErr, &ge):
		// The tenant's gas bucket ran dry — at admission (fail-fast,
		// resp == nil) or mid-run at a safepoint. Either way the answer
		// is the typed 429, not a deadline 504: the program was not slow,
		// it was out of budget.
		w.Header().Set("Retry-After", retryAfterSecs(ge.RetryAfter))
		resp = &Response{
			GasExhausted: true,
			status:       http.StatusTooManyRequests,
			Diagnostics: []DiagJSON{{Severity: "error", Phase: "gas",
				Msg: ge.Error()}},
		}
	case resp == nil && errors.Is(runErr, context.DeadlineExceeded):
		resp = &Response{TimedOut: true,
			Diagnostics: []DiagJSON{{Severity: "error", Phase: "deadline",
				Msg: "request deadline exceeded while queued"}}}
	case resp == nil:
		// Client went away while the request was parked in the queue.
		resp = &Response{status: http.StatusServiceUnavailable,
			Diagnostics: []DiagJSON{{Severity: "error", Phase: "admission",
				Msg: "request canceled while queued"}}}
	}
	s.finish(w, r, &req, resp, rq)
}

// retryAfterSecs renders a duration as a Retry-After header value,
// rounded up so the client never retries early.
func retryAfterSecs(d time.Duration) string {
	secs := int64(d/time.Second) + 1
	return fmt.Sprintf("%d", secs)
}

// shed answers a request refused before it ran: 429 + Retry-After when
// the scheduler's queue is full (reason "saturated"), 503 while the
// server drains ("draining"). Both leave a load-shed flight event that
// carries the reason and a span; only saturation counts in
// slcd_requests_shed.
func (s *Server) shed(w http.ResponseWriter, r *http.Request, rq *reqInfo, reason string) {
	status, msg := http.StatusTooManyRequests, "server saturated, retry later"
	if reason == shedDraining {
		status, msg = http.StatusServiceUnavailable, "server is draining"
	} else {
		s.mu.Lock()
		s.stats.Shed++
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
	}
	s.flight.Record(obs.Event{Kind: obs.EvLoadShed, Trace: rq.traceID, Unit: r.URL.Path, Reason: reason})
	s.log.LogAttrs(r.Context(), slog.LevelWarn, "request shed",
		slog.String("trace_id", rq.traceID), slog.String("path", r.URL.Path),
		slog.String("reason", reason))
	writeJSON(w, status, &Response{
		Diagnostics: []DiagJSON{{Severity: "error", Phase: "admission", Msg: msg}},
		DurationMs:  msSince(rq.start), TraceID: rq.traceID,
	})
	s.record(span{Path: r.URL.Path, Status: status,
		Start: rq.start.UTC().Format(time.RFC3339Nano), StartMonoNs: rq.startMono,
		DurationMs: msSince(rq.start), Note: "shed: " + reason, TraceID: rq.traceID})
}

// finish maps the response to an HTTP status, updates counters, and
// emits the span, flight events and log line — the tail of every
// request that was admitted.
func (s *Server) finish(w http.ResponseWriter, r *http.Request, req *Request, resp *Response, rq *reqInfo) {
	resp.DurationMs = msSince(rq.start)
	resp.TraceID = rq.traceID
	s.reqHist.ObserveDuration(time.Since(rq.start))
	status := http.StatusOK
	switch {
	case resp.status != 0:
		status = resp.status
		s.mu.Lock()
		if resp.GasExhausted {
			s.stats.GasExhausted++
		} else {
			s.stats.Failed++
		}
		s.mu.Unlock()
	case resp.TimedOut:
		status = http.StatusGatewayTimeout
		s.mu.Lock()
		s.stats.TimedOut++
		s.mu.Unlock()
		s.flight.Record(obs.Event{Kind: obs.EvDeadline, Trace: rq.traceID,
			Unit: req.Fn, Tenant: req.Tenant, Session: req.Session})
	case !resp.OK:
		status = http.StatusUnprocessableEntity
		s.mu.Lock()
		s.stats.Failed++
		s.mu.Unlock()
	default:
		s.mu.Lock()
		s.stats.Succeeded++
		s.mu.Unlock()
	}
	writeJSON(w, status, resp)
	dur := time.Since(rq.start)
	s.flight.Record(obs.Event{Kind: obs.EvReqFinish, Trace: rq.traceID,
		Unit: r.URL.Path, DurNs: dur.Nanoseconds(), Msg: fmt.Sprintf("status=%d", status),
		Tenant: req.Tenant, Session: req.Session})
	s.record(span{Path: r.URL.Path, Status: status, OK: resp.OK, TimedOut: resp.TimedOut,
		Start: rq.start.UTC().Format(time.RFC3339Nano), StartMonoNs: rq.startMono,
		DurationMs: msSince(rq.start), Note: firstDiag(resp),
		TraceID: rq.traceID, Tenant: req.Tenant, Session: req.Session})
	level := slog.LevelInfo
	if !resp.OK {
		level = slog.LevelWarn
	}
	s.log.LogAttrs(r.Context(), level, "request served",
		slog.String("trace_id", rq.traceID),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Bool("ok", resp.OK),
		slog.Bool("timed_out", resp.TimedOut),
		slog.Duration("duration", dur),
		slog.String("fn", req.Fn),
		slog.String("tenant", req.Tenant),
		slog.String("session", req.Session))
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func firstDiag(r *Response) string {
	if len(r.Diagnostics) == 0 {
		return ""
	}
	return r.Diagnostics[0].Msg
}

// runtimeTid is the trace thread id carrying runtime instants (GC
// pauses, cache traffic) in per-request exports, kept
// clear of the compile workers' small ids.
const runtimeTid = 99

// execute runs one admitted request under the last-resort panic
// barrier. The compile pipeline has its own per-unit barriers; this one
// catches anything that escapes them, so a wholly unexpected panic
// still degrades to a structured response.
func (s *Server) execute(ctx context.Context, req *Request, rq *reqInfo, tk *sched.Task, run runFunc) (resp *Response) {
	resp = &Response{}
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			s.stats.Panics++
			s.mu.Unlock()
			s.flight.Record(obs.Event{Kind: obs.EvPanic, Trace: rq.traceID,
				Unit: req.Fn, Msg: fmt.Sprintf("%v", r),
				Tenant: req.Tenant, Session: req.Session})
			resp.OK = false
			resp.Diagnostics = append(resp.Diagnostics, DiagJSON{
				Severity: "error", Phase: "request",
				Msg: fmt.Sprintf("internal panic: %v", r),
			})
		}
	}()
	run(ctx, req, rq, tk, resp)
	return resp
}

// runRequest is the runFunc of /compile and /run: a request naming a
// resident session runs in that session's system (runSession), any
// other in a fresh per-request system.
func (s *Server) runRequest(ctx context.Context, req *Request, rq *reqInfo, tk *sched.Task, resp *Response) {
	if req.Session != "" {
		s.runSession(ctx, req, rq, tk, resp)
		return
	}

	// Every request gets its own phase-span recorder: the spans feed the
	// phase-latency histogram, and when the caller asked for ?trace=1
	// they become its Chrome trace.
	rec := obs.NewRecorder()
	opts := s.sysOptions()
	opts.Obs = rec
	opts.TraceID = rq.traceID
	// Build the request machine on a recycled storage arena when the pool
	// has one: the heap, record and code slices reset to the previous
	// request's high-water mark instead of reallocating.
	ar := s.arenas.get()
	recycled := ar.Uses() > 0
	opts.Arena = ar
	sys := s.bootSystem(opts, rq.traceID)
	// Hand the machine's storage back to the arena pool on every exit
	// path. Registered first so it runs after the other defers are done
	// reading the machine.
	defer func() {
		if recycled {
			s.mu.Lock()
			s.stats.ArenaRecycles++
			s.mu.Unlock()
		}
		if sys.Machine.ReleaseArena() {
			s.arenas.put(ar)
		}
	}()
	// Tee the machine's runtime events into the GC-pause histograms on
	// top of the flight recording core already wired up.
	if prev := sys.Machine.OnEvent; prev != nil {
		sys.Machine.OnEvent = func(kind, unit string, d time.Duration) {
			switch kind {
			case obs.EvGCPause:
				s.gcHist.ObserveDuration(d)
			case obs.EvGCMinorPause:
				s.gcMinorHist.ObserveDuration(d)
			}
			prev(kind, unit, d)
		}
	}
	// Feed the phase histogram (and the optional per-request trace) on
	// every exit path, including the panic barrier.
	defer func() {
		for _, sp := range rec.Spans() {
			s.phaseHist.ObserveDuration(sp.End - sp.Start)
		}
		if rq.wantTrace {
			if tr := s.buildRequestTrace(rec, rq.traceID); tr != nil {
				resp.Trace = tr
			}
		}
	}()
	s.eval(ctx, tk, sys, req, rq.call, machineMeters{}, resp)
}

// machineMeters are the machine counters slcd folds into its lifetime
// totals: the collector's, the marshaled fallback-primitive calls and
// the call-site inline-cache fills.
type machineMeters struct {
	gc         s1.GCStats
	marshaled  int64
	cacheFills int64
}

func metersOf(m *s1.Machine) machineMeters {
	return machineMeters{gc: m.GCMeters, marshaled: m.Stats.MarshaledPrims, cacheFills: m.CacheFills()}
}

// eval is the one evaluation of a request's source and call, shared by
// stateless, session and session-setup requests. It wires the task's
// safepoints and the deadline into sys's machine, loads req.Source and,
// when call is set and req.Fn is named, calls it. Diagnostics, defs,
// the printed value and the mapping of a deadline or run error land in
// resp; resp.OK is set only on success. On every exit path, including
// the panic barrier, it folds the machine's meters minus base into the
// lifetime counters: a fresh machine passes the zero base, so its boot
// counts too.
func (s *Server) eval(ctx context.Context, tk *sched.Task, sys *core.System, req *Request, call bool, base machineMeters, resp *Response) {
	m := sys.Machine
	// Every machine safepoint becomes a scheduling and gas-metering point,
	// and the deadline interrupts the machine cooperatively: Run checks
	// the flag every few hundred dispatches and unwinds with a
	// RuntimeError.
	m.OnSafepoint = tk.Safepoint
	stop := context.AfterFunc(ctx, m.Interrupt)
	defer func() {
		stop()
		m.OnSafepoint = nil
		if c := m.Stats.Cycles; c > 0 {
			s.cyclesHist.Observe(float64(c))
		}
		now := metersOf(m)
		s.mu.Lock()
		s.stats.GCFullCollections += now.gc.Collections - base.gc.Collections
		s.stats.GCMinorCollections += now.gc.MinorCollections - base.gc.MinorCollections
		s.stats.GCWordsPromoted += now.gc.WordsPromoted - base.gc.WordsPromoted
		s.stats.MarshaledPrims += now.marshaled - base.marshaled
		s.stats.TierCacheFills += now.cacheFills - base.cacheFills
		s.mu.Unlock()
	}()

	before := sys.PlanStats()
	v, list := sys.EvalStringDiag(req.Source)
	if ps := sys.PlanStats(); ps != before {
		s.mu.Lock()
		s.stats.PlanHits += ps.Hits - before.Hits
		s.stats.PlanRecords += ps.Records - before.Records
		s.stats.PlanFallbacks += ps.Fallbacks - before.Fallbacks
		s.mu.Unlock()
	}
	for _, d := range list.All() {
		resp.Diagnostics = append(resp.Diagnostics, DiagJSON{
			Severity: d.Severity.String(), Unit: d.Unit, Phase: d.Phase,
			Line: d.Line, Col: d.Col, Msg: d.Msg,
		})
	}
	if ctx.Err() != nil {
		resp.TimedOut = true
		resp.Diagnostics = append(resp.Diagnostics, DiagJSON{
			Severity: "error", Phase: "deadline",
			Msg: "request deadline exceeded",
		})
		return
	}
	if list.HasErrors() {
		return
	}
	for name := range sys.Defs {
		resp.Defs = append(resp.Defs, name)
	}
	if v != nil {
		resp.Value = sexp.Print(v)
	}

	if call && req.Fn != "" {
		args := make([]sexp.Value, len(req.Args))
		for i, a := range req.Args {
			av, err := sexp.ReadOne(a)
			if err != nil {
				resp.Diagnostics = append(resp.Diagnostics, DiagJSON{
					Severity: "error", Phase: "request",
					Msg: fmt.Sprintf("argument %d: %v", i, err),
				})
				return
			}
			args[i] = av
		}
		cv, err := sys.Call(req.Fn, args...)
		if err != nil {
			if ctx.Err() != nil {
				resp.TimedOut = true
				resp.Diagnostics = append(resp.Diagnostics, DiagJSON{
					Severity: "error", Unit: req.Fn, Phase: "deadline",
					Msg: "request deadline exceeded: " + err.Error(),
				})
			} else {
				resp.Diagnostics = append(resp.Diagnostics, DiagJSON{
					Severity: "error", Unit: req.Fn, Phase: "run", Msg: err.Error(),
				})
			}
			return
		}
		resp.Value = sexp.Print(cv)
	}
	resp.OK = true
}

// buildRequestTrace renders one request's Chrome trace: the compile
// phase spans recorded by rec plus every flight event stamped with the
// request's trace id, merged as instants on a dedicated "runtime"
// thread. Returns nil if the trace cannot be rendered.
func (s *Server) buildRequestTrace(rec *obs.Recorder, traceID string) json.RawMessage {
	epoch := rec.Epoch().UnixNano()
	evs := s.flight.Snapshot(obs.Filter{Trace: traceID})
	if len(evs) > 0 {
		rec.SetThreadName(runtimeTid, "runtime")
	}
	for _, ev := range evs {
		// Flight events carry wall-clock stamps; the recorder wants
		// offsets from its epoch. Events recorded before the system was
		// built (admission, req-start) clamp to the trace origin.
		ts := time.Duration(ev.WallNs - epoch)
		if ts < 0 {
			ts = 0
		}
		args := map[string]any{"sev": ev.Sev}
		if ev.Unit != "" {
			args["unit"] = ev.Unit
		}
		if ev.Msg != "" {
			args["msg"] = ev.Msg
		}
		if ev.DurNs > 0 {
			args["dur_ns"] = ev.DurNs
		}
		rec.AddInstant(obs.Instant{
			Name: ev.Kind, Cat: "flight", Ts: ts, Worker: runtimeTid, Args: args,
		})
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		return nil
	}
	return json.RawMessage(buf.Bytes())
}

// arenaPool is a bounded LIFO of released request arenas. It keeps at
// most one arena per scheduler worker, the number of request machines
// that can run at once. Unlike a sync.Pool it never drops an arena it
// has room for (a sync.Pool empties on GC, and under the race detector
// drops Puts at random), and the most recently released arena, whose
// storage is warmest, is reused first.
type arenaPool struct {
	mu   sync.Mutex
	free []*s1.Arena
	max  int
}

// get returns a released arena, or a fresh empty one.
func (p *arenaPool) get() *s1.Arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return &s1.Arena{}
	}
	a := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return a
}

// put keeps a for reuse unless max arenas are already kept.
func (p *arenaPool) put(a *s1.Arena) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < p.max {
		p.free = append(p.free, a)
	}
}
