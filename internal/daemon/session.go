package daemon

// Resident sessions (DESIGN.md §16). A session is a core.System that
// outlives requests: POST /session creates it (optionally evaluating
// setup source), /run with {"session": id} resumes it with definitions
// and heap intact, DELETE /session/{id} retires it. Idle sessions are
// cheap — the goroutine-free System is just its heap plus a small
// machine stack, owned by its machine, that doubles toward StackLimit
// only while a program runs deep and is back to its initial 4 KB when
// the call ends — which is what lets one node hold thousands of them.
// Resuming costs nothing extra: the machine keeps its stack between
// requests.
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
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/sched"
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

// runSession runs one /compile or /run request inside a resident
// session's system: claim, clear any stale interrupt from a previous
// request's deadline, evaluate, and release the claim.
func (s *Server) runSession(ctx context.Context, req *Request, rq *reqInfo, tk *sched.Task, resp *Response) {
	s.expireSessions()
	ses, err := s.sessions.claim(req.Session)
	if err != nil {
		resp.status = sessionErrStatus(err)
		resp.Diagnostics = append(resp.Diagnostics, DiagJSON{
			Severity: "error", Phase: "session", Msg: err.Error()})
		return
	}
	resp.Session = ses.id
	m := ses.sys.Machine
	// A session that hit its deadline last request idles with the kill
	// signal still latched; running again without clearing it would 504
	// at the first safepoint (the arena path asserts the same invariant
	// at adoption).
	m.ClearInterrupt()
	// Budgets (steps, safepoint cycle accounting) are per request, not
	// per session lifetime.
	m.ResetStats()
	defer s.sessions.release(ses)
	s.eval(ctx, tk, ses.sys, req, rq.call, metersOf(m), resp)
}

// createSession is the runFunc of POST /session: build a warm-booted
// system, evaluate the optional setup source in it like any request
// (so setup is admitted, preempted, gas-metered and deadlined like a
// /run), then register it. A session exists only if its setup
// succeeded.
func (s *Server) createSession(ctx context.Context, req *Request, rq *reqInfo, tk *sched.Task, resp *Response) {
	s.expireSessions()
	opts := s.sysOptions()
	opts.Obs = obs.NewRecorder()
	opts.TraceID = rq.traceID
	sys := s.bootSystem(opts, rq.traceID)
	s.eval(ctx, tk, sys, req, false, machineMeters{}, resp)
	if !resp.OK {
		return
	}
	// Creation answers with the session's id and defs, not the value of
	// the setup's last form.
	resp.Value = ""
	ses := &session{
		id: randHex(8), tenant: req.Tenant, sys: sys,
		created: time.Now(), lastUsed: time.Now(),
	}
	sys.Machine.ClearInterrupt()
	if err := s.sessions.add(ses); err != nil {
		*resp = Response{status: sessionErrStatus(err),
			Diagnostics: []DiagJSON{{Severity: "error", Phase: "session", Msg: err.Error()}}}
		return
	}
	s.mu.Lock()
	s.stats.SessionsCreated++
	s.mu.Unlock()
	s.flight.Record(obs.Event{Kind: obs.EvSessionCreate, Trace: rq.traceID,
		Tenant: req.Tenant, Session: ses.id})
	s.writeSessionManifest()
	resp.Session = ses.id
	s.log.LogAttrs(ctx, slog.LevelInfo, "session created",
		slog.String("session", ses.id), slog.String("tenant", req.Tenant))
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
	if err := durable.WriteAtomic(dir, "manifest.json", data); err != nil {
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
