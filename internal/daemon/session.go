package daemon

// Resident sessions (DESIGN.md §16). A session is a core.System that
// outlives requests: POST /session creates it (optionally evaluating
// setup source), /run with {"session": id} resumes it with definitions
// and heap intact, DELETE /session/{id} retires it. Idle sessions are
// cheap — their 16 MB machine stack is parked into a shared pool and
// the goroutine-free System is just its heap — which is what lets one
// node hold thousands of them. Resuming is cheap too: a parked stack
// carries its dirty mark (one past the highest word written, every
// word above it zero), so reattaching clears only the words the
// previous tenant wrote rather than the whole segment.
//
// Durability: the session *manifest* (ids + tenants) is rewritten on
// every lifecycle change into <snapdir>/sessions/manifest.json, and a
// clean Drain checkpoints each session as a "session-<id>" snapshot in
// the store. Boot replays the manifest: sessions whose checkpoint
// restores come back resident; sessions the manifest promises but no
// checkpoint backs (the process was killed, not drained) are reported
// lost — /readyz shows "session-store" degraded but the daemon serves.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/compilecache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sexp"
)

var (
	errSessionNotFound = errors.New("session not found")
	errSessionBusy     = errors.New("session is busy with another request")
	errSessionLimit    = errors.New("session limit reached")
)

// session is one resident system. busy serializes requests: a session
// machine is single-threaded, so a second concurrent request is a 409,
// not a queue.
type session struct {
	id       string
	tenant   string
	sys      *core.System
	created  time.Time
	lastUsed time.Time
	requests int64
	restored bool
	busy     bool
}

// sessionStore is the id-keyed resident-session table.
type sessionStore struct {
	mu   sync.Mutex
	max  int
	ttl  time.Duration
	byID map[string]*session
	// lost lists manifest entries that had no restorable checkpoint at
	// boot; non-empty makes /readyz report the store degraded.
	lost []string
}

func newSessionStore(max int, ttl time.Duration) *sessionStore {
	return &sessionStore{max: max, ttl: ttl, byID: map[string]*session{}}
}

func (st *sessionStore) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.byID)
}

func (st *sessionStore) lostCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.lost)
}

func (st *sessionStore) addLost(id string) {
	st.mu.Lock()
	st.lost = append(st.lost, id)
	st.mu.Unlock()
}

// add registers a new session, enforcing the residency bound.
func (st *sessionStore) add(ses *session) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.byID) >= st.max {
		return errSessionLimit
	}
	st.byID[ses.id] = ses
	return nil
}

// claim marks the session busy for one request.
func (st *sessionStore) claim(id string) (*session, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ses := st.byID[id]
	if ses == nil {
		return nil, errSessionNotFound
	}
	if ses.busy {
		return nil, errSessionBusy
	}
	ses.busy = true
	ses.requests++
	return ses, nil
}

// release returns a claimed session to the idle population.
func (st *sessionStore) release(ses *session) {
	st.mu.Lock()
	ses.busy = false
	ses.lastUsed = time.Now()
	st.mu.Unlock()
}

// remove deletes a session; a busy session cannot be removed.
func (st *sessionStore) remove(id string) (*session, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ses := st.byID[id]
	if ses == nil {
		return nil, errSessionNotFound
	}
	if ses.busy {
		return nil, errSessionBusy
	}
	delete(st.byID, id)
	return ses, nil
}

// reap removes idle sessions past the TTL and returns them.
func (st *sessionStore) reap(now time.Time) []*session {
	if st.ttl <= 0 {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []*session
	for id, ses := range st.byID {
		if !ses.busy && now.Sub(ses.lastUsed) > st.ttl {
			delete(st.byID, id)
			out = append(out, ses)
		}
	}
	return out
}

// all returns the current sessions (pointers; fields other than id must
// be read under the store lock or while the session is claimed).
func (st *sessionStore) all() []*session {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*session, 0, len(st.byID))
	for _, ses := range st.byID {
		out = append(out, ses)
	}
	return out
}

// sessionInfo is the GET /session JSON row.
type sessionInfo struct {
	ID       string    `json:"id"`
	Tenant   string    `json:"tenant,omitempty"`
	Created  time.Time `json:"created"`
	LastUsed time.Time `json:"last_used"`
	Requests int64     `json:"requests"`
	Busy     bool      `json:"busy,omitempty"`
	Restored bool      `json:"restored,omitempty"`
}

func (st *sessionStore) infos() []sessionInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]sessionInfo, 0, len(st.byID))
	for _, ses := range st.byID {
		out = append(out, sessionInfo{
			ID: ses.id, Tenant: ses.tenant, Created: ses.created,
			LastUsed: ses.lastUsed, Requests: ses.requests,
			Busy: ses.busy, Restored: ses.restored,
		})
	}
	return out
}

func sessionErrStatus(err error) int {
	switch {
	case errors.Is(err, errSessionNotFound):
		return http.StatusNotFound
	case errors.Is(err, errSessionBusy):
		return http.StatusConflict
	case errors.Is(err, errSessionLimit):
		return http.StatusTooManyRequests
	}
	return http.StatusInternalServerError
}

// executeSession runs one request inside a resident session's system:
// claim, clear any stale interrupt from a previous request's deadline,
// wire the scheduler safepoint hook, evaluate, and park the machine
// stack on the way out. Mutates resp in place (the caller's panic
// barrier stays armed around it).
func (s *Server) executeSession(ctx context.Context, req *Request, call bool, traceID string, tk *sched.Task, resp *Response) {
	s.expireSessions()
	ses, err := s.sessions.claim(req.Session)
	if err != nil {
		resp.status = sessionErrStatus(err)
		resp.Diagnostics = append(resp.Diagnostics, DiagJSON{
			Severity: "error", Phase: "session", Msg: err.Error()})
		return
	}
	resp.Session = ses.id
	sys := ses.sys
	// A session that hit its deadline last request parks with the kill
	// signal still latched; running again without clearing it would 504
	// at the first safepoint (the arena path asserts the same invariant
	// at adoption).
	sys.Machine.ClearInterrupt()
	// Budgets (steps, safepoint cycle accounting) are per request, not
	// per session lifetime.
	sys.Machine.ResetStats()
	gm0 := sys.Machine.GCMeters
	if tk != nil {
		sys.Machine.OnSafepoint = tk.Safepoint
	}
	defer func() {
		sys.Machine.OnSafepoint = nil
		gm := sys.Machine.GCMeters
		s.mu.Lock()
		s.stats.GCFullCollections += gm.Collections - gm0.Collections
		s.stats.GCMinorCollections += gm.MinorCollections - gm0.MinorCollections
		s.stats.GCWordsPromoted += gm.WordsPromoted - gm0.WordsPromoted
		s.mu.Unlock()
		if c := sys.Machine.Stats.Cycles; c > 0 {
			s.cyclesHist.Observe(float64(c))
		}
		sys.Machine.ParkStack()
		s.sessions.release(ses)
	}()
	stop := context.AfterFunc(ctx, func() { sys.Machine.Interrupt() })
	defer stop()

	v, list := sys.EvalStringDiag(req.Source)
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

// handleSessionCreate is POST /session: build a warm-booted system,
// evaluate the optional setup source (under the scheduler when it is
// on, so creation is preempted and gas-metered like any run), park it,
// and register it.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	traceID := ParseTraceparent(r.Header.Get("traceparent"))
	if traceID == "" {
		traceID = randHex(16)
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, &Response{
			Diagnostics: []DiagJSON{{Severity: "error", Phase: "admission",
				Msg: "server is draining"}},
			DurationMs: msSince(start), TraceID: traceID,
		})
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()
	s.expireSessions()
	var req Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, &Response{
			Diagnostics: []DiagJSON{{Severity: "error", Phase: "request",
				Msg: "bad request body: " + err.Error()}},
			DurationMs: msSince(start), TraceID: traceID,
		})
		return
	}
	opts := s.sysOptions()
	opts.Obs = obs.NewRecorder()
	opts.TraceID = traceID
	sys := s.bootSystem(opts, traceID)
	resp := &Response{}
	if req.Source != "" {
		evalSetup := func(tk *sched.Task) error {
			if tk != nil {
				sys.Machine.OnSafepoint = tk.Safepoint
				defer func() { sys.Machine.OnSafepoint = nil }()
			}
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ReqTimeout)
			defer cancel()
			stop := context.AfterFunc(ctx, func() { sys.Machine.Interrupt() })
			defer stop()
			_, list := sys.EvalStringDiag(req.Source)
			for _, d := range list.All() {
				resp.Diagnostics = append(resp.Diagnostics, DiagJSON{
					Severity: d.Severity.String(), Unit: d.Unit, Phase: d.Phase,
					Line: d.Line, Col: d.Col, Msg: d.Msg,
				})
			}
			if ctx.Err() != nil {
				resp.TimedOut = true
			}
			return nil
		}
		var runErr error
		if s.sched != nil {
			runErr = s.sched.Run(r.Context(), req.Tenant, evalSetup)
		} else {
			runErr = evalSetup(nil)
		}
		var ge *sched.GasError
		switch {
		case errors.As(runErr, &ge):
			w.Header().Set("Retry-After", retryAfterSecs(ge.RetryAfter))
			writeJSON(w, http.StatusTooManyRequests, &Response{
				GasExhausted: true,
				Diagnostics: []DiagJSON{{Severity: "error", Phase: "gas",
					Msg: ge.Error()}},
				DurationMs: msSince(start), TraceID: traceID,
			})
			return
		case errors.Is(runErr, sched.ErrSaturated):
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, &Response{
				Diagnostics: []DiagJSON{{Severity: "error", Phase: "admission",
					Msg: "server saturated, retry later"}},
				DurationMs: msSince(start), TraceID: traceID,
			})
			return
		}
		if resp.TimedOut {
			resp.DurationMs = msSince(start)
			resp.TraceID = traceID
			resp.Diagnostics = append(resp.Diagnostics, DiagJSON{
				Severity: "error", Phase: "deadline",
				Msg: "session setup deadline exceeded"})
			writeJSON(w, http.StatusGatewayTimeout, resp)
			return
		}
		if hasErrors(resp.Diagnostics) {
			resp.DurationMs = msSince(start)
			resp.TraceID = traceID
			writeJSON(w, http.StatusUnprocessableEntity, resp)
			return
		}
	}
	ses := &session{
		id: randHex(8), tenant: req.Tenant, sys: sys,
		created: time.Now(), lastUsed: time.Now(),
	}
	sys.Machine.ClearInterrupt()
	sys.Machine.ParkStack()
	if err := s.sessions.add(ses); err != nil {
		writeJSON(w, sessionErrStatus(err), &Response{
			Diagnostics: []DiagJSON{{Severity: "error", Phase: "session",
				Msg: err.Error()}},
			DurationMs: msSince(start), TraceID: traceID,
		})
		return
	}
	s.mu.Lock()
	s.stats.SessionsCreated++
	s.mu.Unlock()
	s.flight.Record(obs.Event{Kind: obs.EvSessionCreate, Trace: traceID,
		Tenant: req.Tenant, Session: ses.id})
	s.writeSessionManifest()
	for name := range sys.Defs {
		resp.Defs = append(resp.Defs, name)
	}
	resp.OK = true
	resp.Session = ses.id
	resp.DurationMs = msSince(start)
	resp.TraceID = traceID
	writeJSON(w, http.StatusOK, resp)
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "session created",
		slog.String("session", ses.id), slog.String("tenant", req.Tenant))
}

func hasErrors(ds []DiagJSON) bool {
	for _, d := range ds {
		if d.Severity == "error" {
			return true
		}
	}
	return false
}

// handleSessionList is GET /session.
func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	s.expireSessions()
	infos := s.sessions.infos()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"count":    len(infos),
		"sessions": infos,
	})
}

// handleSessionGet is GET /session/{id}.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	s.expireSessions()
	id := r.PathValue("id")
	for _, info := range s.sessions.infos() {
		if info.ID == id {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(info)
			return
		}
	}
	writeJSON(w, http.StatusNotFound, &Response{
		Diagnostics: []DiagJSON{{Severity: "error", Phase: "session",
			Msg: errSessionNotFound.Error()}},
	})
}

// handleSessionDelete is DELETE /session/{id}.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.sessions.remove(id); err != nil {
		writeJSON(w, sessionErrStatus(err), &Response{
			Diagnostics: []DiagJSON{{Severity: "error", Phase: "session",
				Msg: err.Error()}},
		})
		return
	}
	s.flight.Record(obs.Event{Kind: obs.EvSessionDelete, Session: id})
	s.writeSessionManifest()
	writeJSON(w, http.StatusOK, &Response{OK: true, Session: id})
}

// expireSessions reaps idle sessions past the TTL and keeps the
// manifest in step.
func (s *Server) expireSessions() {
	reaped := s.sessions.reap(time.Now())
	if len(reaped) == 0 {
		return
	}
	s.mu.Lock()
	s.stats.SessionsExpired += int64(len(reaped))
	s.mu.Unlock()
	for _, ses := range reaped {
		s.flight.Record(obs.Event{Kind: obs.EvSessionExpire,
			Tenant: ses.tenant, Session: ses.id})
	}
	s.writeSessionManifest()
}

// --- durability: manifest, drain checkpoint, boot restore ---

// sessionSnapPrefix namespaces session checkpoints in the snapshot
// store ("session-<id>.snap" next to the pinned boot snapshot).
const sessionSnapPrefix = "session-"

// sessionManifest is the on-disk registry of resident sessions. It
// lives in a subdirectory of the snapshot store (the store's Recover
// quarantines unknown files in its root, but skips directories).
type sessionManifest struct {
	Version  int             `json:"version"`
	Sessions []manifestEntry `json:"sessions"`
}

type manifestEntry struct {
	ID      string    `json:"id"`
	Tenant  string    `json:"tenant,omitempty"`
	Created time.Time `json:"created"`
}

func (s *Server) sessionManifestDir() string {
	if s.cfg.Snapshots == nil {
		return ""
	}
	return filepath.Join(s.cfg.Snapshots.Dir(), "sessions")
}

// writeSessionManifest rewrites the manifest from the live session set
// (atomic temp-file + rename, same protocol as the stores). Best
// effort: a write failure costs restore-after-restart, never serving.
func (s *Server) writeSessionManifest() {
	dir := s.sessionManifestDir()
	if dir == "" {
		return
	}
	man := sessionManifest{Version: 1}
	for _, ses := range s.sessions.all() {
		man.Sessions = append(man.Sessions, manifestEntry{
			ID: ses.id, Tenant: ses.tenant, Created: ses.created,
		})
	}
	data, err := json.Marshal(&man)
	if err != nil {
		return
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		s.log.LogAttrs(nil, slog.LevelWarn, "session manifest write failed",
			slog.String("err", err.Error()))
		return
	}
	if err := compilecache.AtomicWriteFile(dir, "manifest.json", data); err != nil {
		s.log.LogAttrs(nil, slog.LevelWarn, "session manifest write failed",
			slog.String("err", err.Error()))
	}
}

// checkpointSessions snapshots every resident session into the store
// (Drain calls it after the last request finishes, so every session is
// idle). Sessions that fail to snapshot are logged and skipped; they
// will be reported lost at the next boot.
func (s *Server) checkpointSessions() {
	if s.cfg.Snapshots == nil {
		return
	}
	s.expireSessions()
	n := 0
	for _, ses := range s.sessions.all() {
		snap, err := ses.sys.Snapshot()
		if err == nil {
			err = s.cfg.Snapshots.Save(sessionSnapPrefix+ses.id, snap)
		}
		if err != nil {
			s.log.LogAttrs(nil, slog.LevelWarn, "session checkpoint failed",
				slog.String("session", ses.id), slog.String("err", err.Error()))
			continue
		}
		s.flight.Record(obs.Event{Kind: obs.EvSessionCheckpoint,
			Tenant: ses.tenant, Session: ses.id})
		n++
	}
	s.writeSessionManifest()
	if n > 0 {
		s.log.LogAttrs(nil, slog.LevelInfo, "sessions checkpointed",
			slog.Int("count", n))
	}
}

// restoreSessions replays the manifest at boot: each listed session is
// revived from its "session-<id>" checkpoint if one restores, and
// reported lost if not — the latter is the hard-kill signature (the
// manifest was written at creation, the checkpoint only at drain). Lost
// sessions degrade /readyz without failing startup.
func (s *Server) restoreSessions() {
	dir := s.sessionManifestDir()
	if dir == "" {
		return
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return // first boot, or no sessions were ever created
	}
	var man sessionManifest
	if err := json.Unmarshal(data, &man); err != nil {
		s.log.LogAttrs(nil, slog.LevelWarn, "session manifest unreadable",
			slog.String("err", err.Error()))
		return
	}
	for _, ent := range man.Sessions {
		snap, err := s.cfg.Snapshots.Load(sessionSnapPrefix + ent.ID)
		var sys *core.System
		if err == nil {
			sys, err = core.RestoreSystem(s.sysOptions(), snap)
		}
		if err != nil {
			s.sessions.addLost(ent.ID)
			s.mu.Lock()
			s.stats.SessionsLost++
			s.mu.Unlock()
			s.flight.Record(obs.Event{Kind: obs.EvSessionLost,
				Tenant: ent.Tenant, Session: ent.ID, Msg: err.Error()})
			s.log.LogAttrs(nil, slog.LevelWarn, "session lost",
				slog.String("session", ent.ID), slog.String("err", err.Error()))
			continue
		}
		sys.Machine.ParkStack()
		ses := &session{
			id: ent.ID, tenant: ent.Tenant, sys: sys,
			created: ent.Created, lastUsed: time.Now(), restored: true,
		}
		if err := s.sessions.add(ses); err != nil {
			s.sessions.addLost(ent.ID)
			continue
		}
		s.mu.Lock()
		s.stats.SessionsRestored++
		s.mu.Unlock()
		s.flight.Record(obs.Event{Kind: obs.EvSessionRestore,
			Tenant: ent.Tenant, Session: ent.ID})
	}
	// The manifest now reflects only the survivors.
	s.writeSessionManifest()
}
