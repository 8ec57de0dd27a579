package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/compilecache"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// sessionSetupSrc gives a session observable state: a special counter
// and a bumper, so cross-request persistence is visible in values.
const sessionSetupSrc = `
(defvar *n* 0)
(defun bump () (setq *n* (+ *n* 1)) *n*)`

// getJSON decodes a GET endpoint's JSON body.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	hr, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if err := json.NewDecoder(hr.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: undecodable body: %v", url, err)
	}
	return hr.StatusCode
}

// TestSessionLifecycle: create with setup source, resume with state
// intact across requests, list/get, delete, then 404.
func TestSessionLifecycle(t *testing.T) {
	s := New(Config{SchedWorkers: 2, ReqTimeout: 10 * time.Second})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, resp, _ := post(t, ts, "/session", Request{Source: sessionSetupSrc, Tenant: "acme"})
	if code != http.StatusOK || !resp.OK || resp.Session == "" {
		t.Fatalf("create: status %d, resp %+v", code, resp)
	}
	id := resp.Session
	foundBump := false
	for _, d := range resp.Defs {
		if d == "bump" {
			foundBump = true
		}
	}
	if !foundBump {
		t.Errorf("setup defs not reported: %v", resp.Defs)
	}

	// The counter advances across requests: the heap is resident.
	for i := 1; i <= 3; i++ {
		code, r, _ := post(t, ts, "/run", Request{Session: id, Source: "(bump)"})
		if code != http.StatusOK || !r.OK || r.Value != strconv.Itoa(i) {
			t.Fatalf("resume %d: status %d, resp %+v", i, code, r)
		}
		if r.Session != id {
			t.Errorf("resume %d: session echo = %q", i, r.Session)
		}
	}

	// Definitions added mid-session persist too.
	if code, r, _ := post(t, ts, "/run", Request{Session: id,
		Source: "(defun dbl (x) (* 2 x))"}); code != http.StatusOK || !r.OK {
		t.Fatalf("mid-session defun: %d %+v", code, r)
	}
	if code, r, _ := post(t, ts, "/run", Request{Session: id,
		Fn: "dbl", Args: []string{"21"}}); code != http.StatusOK || r.Value != "42" {
		t.Fatalf("mid-session def lost: %d %+v", code, r)
	}

	var list struct {
		Count    int           `json:"count"`
		Sessions []sessionInfo `json:"sessions"`
	}
	if code := getJSON(t, ts.URL+"/session", &list); code != http.StatusOK || list.Count != 1 {
		t.Fatalf("list: %d %+v", code, list)
	}
	if list.Sessions[0].ID != id || list.Sessions[0].Tenant != "acme" || list.Sessions[0].Requests != 5 {
		t.Errorf("list row: %+v", list.Sessions[0])
	}
	var info sessionInfo
	if code := getJSON(t, ts.URL+"/session/"+id, &info); code != http.StatusOK || info.ID != id {
		t.Fatalf("get: %d %+v", code, info)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+id, nil)
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", hr.StatusCode)
	}
	if code, _, _ := post(t, ts, "/run", Request{Session: id, Source: "(bump)"}); code != http.StatusNotFound {
		t.Errorf("deleted session served a request: %d", code)
	}
	if code, _, _ := post(t, ts, "/run", Request{Session: "nope", Source: "(bump)"}); code != http.StatusNotFound {
		t.Errorf("unknown session id: %d", code)
	}
	if st := s.Stats(); st.SessionsCreated != 1 {
		t.Errorf("SessionsCreated = %d", st.SessionsCreated)
	}
}

// TestSessionReloadHitsResidentBodies: a session /run that sends its
// setup source again rebinds every defun to the body the session
// already installed. The durable cache takes no entry after the
// session's creation, the function table grows only by the request's
// top-level wrappers, and each defun counts one hit.
func TestSessionReloadHitsResidentBodies(t *testing.T) {
	d, err := compilecache.OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := New(Config{SchedWorkers: 1, Disk: d, ReqTimeout: 10 * time.Second})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const src = sessionSetupSrc + `
(defun twice (x) (* 2 x))
(defun quad (x) (twice (twice x)))`
	const nDefs = 3
	code, resp, _ := post(t, ts, "/session", Request{Source: src})
	if code != http.StatusOK || !resp.OK {
		t.Fatalf("create: status %d, resp %+v", code, resp)
	}
	id := resp.Session
	// inspect reads the idle session's system under a claim. Each
	// request resets the machine's meters, so they count that request.
	inspect := func() (funcs int, hits, misses int64) {
		t.Helper()
		ses, err := s.sessions.claim(id)
		if err != nil {
			t.Fatal(err)
		}
		defer s.sessions.release(ses)
		st := ses.sys.Stats()
		return len(ses.sys.Machine.Funcs), st.CompileCacheHits, st.CompileCacheMisses
	}
	funcs, _, misses := inspect()
	// The creating load keys its top-level forms as well as its defuns.
	tops := int(misses - nDefs)
	stores := d.Stats().Stores
	for i := 1; i <= 2; i++ {
		if code, r, _ := post(t, ts, "/run", Request{Session: id, Source: src}); code != http.StatusOK || !r.OK {
			t.Fatalf("reload %d: status %d, resp %+v", i, code, r)
		}
		grown, hits, misses := inspect()
		if got := d.Stats().Stores; got != stores {
			t.Errorf("reload %d: %d disk stores, want %d", i, got, stores)
		}
		if grown-funcs != tops {
			t.Errorf("reload %d: function table grew by %d, want %d top-level wrappers", i, grown-funcs, tops)
		}
		if hits != nDefs || misses != 0 {
			t.Errorf("reload %d: %d hits / %d misses, want %d / 0", i, hits, misses, nDefs)
		}
		funcs = grown
	}
	if code, r, _ := post(t, ts, "/run", Request{Session: id, Fn: "quad", Args: []string{"5"}}); code != http.StatusOK || r.Value != "20" {
		t.Errorf("(quad 5) after the reloads: %d %+v", code, r)
	}
}

// TestSessionBusyAndStaleInterrupt: a session is single-threaded — a
// concurrent second request gets 409, a deadline 504 does not poison
// the session (the stale-kill regression: the machine parks with the
// kill signal latched, and the next request must clear it, not 504
// instantly).
func TestSessionBusyAndStaleInterrupt(t *testing.T) {
	s := New(Config{SchedWorkers: 2, ReqTimeout: 500 * time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, resp, _ := post(t, ts, "/session", Request{Source: spinSrc})
	if code != http.StatusOK {
		t.Fatalf("create: %d %+v", code, resp)
	}
	id := resp.Session

	done := make(chan Response, 1)
	go func() {
		_, r, _ := post(t, ts, "/run", Request{Session: id, Fn: "spin", Args: []string{"1"}})
		done <- r
	}()
	// Wait until the spin owns the session, then collide with it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var info sessionInfo
		getJSON(t, ts.URL+"/session/"+id, &info)
		if info.Busy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never became busy")
		}
		time.Sleep(time.Millisecond)
	}
	if code, r, _ := post(t, ts, "/run", Request{Session: id, Source: "(defun ok (x) x)"}); code != http.StatusConflict {
		t.Errorf("concurrent session request: %d %+v, want 409", code, r)
	}
	// A busy session cannot be deleted either.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+id, nil)
	if hr, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		hr.Body.Close()
		if hr.StatusCode != http.StatusConflict {
			t.Errorf("delete busy session: %d, want 409", hr.StatusCode)
		}
	}

	r := <-done
	if !r.TimedOut {
		t.Fatalf("spin should have hit its deadline: %+v", r)
	}

	// The stale-interrupt regression: the very next request on the same
	// session must run to completion, not 504 at its first safepoint.
	code, r, _ = post(t, ts, "/run", Request{Session: id,
		Source: "(defun ok (x) x)", Fn: "ok", Args: []string{"7"}})
	if code != http.StatusOK || !r.OK || r.Value != "7" {
		t.Fatalf("session poisoned by a stale interrupt: %d %+v", code, r)
	}
}

// TestSessionLimitAndTTL: the residency bound returns 429; idle
// sessions past the TTL are reaped and their ids 404.
func TestSessionLimitAndTTL(t *testing.T) {
	s := New(Config{SchedWorkers: 1, MaxSessions: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()
	for i := 0; i < 2; i++ {
		if code, r, _ := post(t, ts, "/session", Request{}); code != http.StatusOK {
			t.Fatalf("create %d: %d %+v", i, code, r)
		}
	}
	if code, r, _ := post(t, ts, "/session", Request{}); code != http.StatusTooManyRequests {
		t.Fatalf("over-limit create: %d %+v, want 429", code, r)
	}

	s2 := New(Config{SchedWorkers: 1, SessionIdleTTL: 50 * time.Millisecond})
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	_, resp, _ := post(t, ts2, "/session", Request{Source: sessionSetupSrc})
	id := resp.Session
	time.Sleep(120 * time.Millisecond)
	if code, _, _ := post(t, ts2, "/run", Request{Session: id, Source: "(bump)"}); code != http.StatusNotFound {
		t.Errorf("expired session still served: %d", code)
	}
	if st := s2.Stats(); st.SessionsExpired != 1 {
		t.Errorf("SessionsExpired = %d", st.SessionsExpired)
	}
}

// TestSessionDrainCheckpointRestore: a clean drain checkpoints every
// resident session; the next boot restores them with heap state intact
// and nothing lost.
func TestSessionDrainCheckpointRestore(t *testing.T) {
	dir := t.TempDir()

	st1, err := snapshot.OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	sA := New(Config{SchedWorkers: 1, Snapshots: st1})
	if err := sA.Boot(); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(sA)
	_, resp, _ := post(t, tsA, "/session", Request{Source: sessionSetupSrc, Tenant: "acme"})
	id := resp.Session
	if id == "" {
		t.Fatalf("create: %+v", resp)
	}
	// Advance the counter so the checkpoint carries mutated heap state.
	for i := 0; i < 2; i++ {
		post(t, tsA, "/run", Request{Session: id, Source: "(bump)"})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := sA.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	tsA.Close()
	st1.Close()

	sB := New(Config{SchedWorkers: 1, Snapshots: openSnapStore(t, dir, nil)})
	if err := sB.Boot(); err != nil {
		t.Fatal(err)
	}
	if st := sB.Stats(); st.SessionsRestored != 1 || st.SessionsLost != 0 {
		t.Fatalf("restore stats: %+v", st)
	}
	tsB := httptest.NewServer(sB)
	defer tsB.Close()
	code, r, _ := post(t, tsB, "/run", Request{Session: id, Source: "(bump)"})
	if code != http.StatusOK || r.Value != "3" {
		t.Fatalf("restored session lost its heap: %d %+v (want *n* = 3)", code, r)
	}
	var info sessionInfo
	getJSON(t, tsB.URL+"/session/"+id, &info)
	if !info.Restored || info.Tenant != "acme" {
		t.Errorf("restored session row: %+v", info)
	}

	mux := http.NewServeMux()
	sB.RegisterDebug(mux)
	dbg := httptest.NewServer(mux)
	defer dbg.Close()
	if _, body := readyzBody(t, dbg); body["degraded"] != nil {
		t.Errorf("clean restore reports degraded: %v", body["degraded"])
	}
}

// TestSessionHardKillLostDegraded is the kill-9 signature in-process:
// the manifest promises a session (written at create) but no checkpoint
// backs it (only Drain writes those), so the next boot reports it lost
// and /readyz degrades to "session-store" while the daemon serves.
func TestSessionHardKillLostDegraded(t *testing.T) {
	dir := t.TempDir()

	st1, err := snapshot.OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	sA := New(Config{SchedWorkers: 1, Snapshots: st1})
	if err := sA.Boot(); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(sA)
	_, resp, _ := post(t, tsA, "/session", Request{Source: sessionSetupSrc})
	id := resp.Session
	// No Drain: the process "dies" here.
	tsA.Close()
	st1.Close()

	flight := obs.NewFlight(obs.DefaultFlightSize)
	sB := New(Config{SchedWorkers: 1, Snapshots: openSnapStore(t, dir, nil), Flight: flight})
	if err := sB.Boot(); err != nil {
		t.Fatalf("boot after a hard kill must serve, not fail: %v", err)
	}
	if st := sB.Stats(); st.SessionsLost != 1 || st.SessionsRestored != 0 {
		t.Errorf("lost-session stats: %+v", st)
	}
	if evs := flight.Snapshot(obs.Filter{Kind: obs.EvSessionLost}); len(evs) != 1 || evs[0].Sev != obs.SevWarn {
		t.Errorf("session-lost flight events: %+v", evs)
	}

	mux := http.NewServeMux()
	sB.RegisterDebug(mux)
	dbg := httptest.NewServer(mux)
	defer dbg.Close()
	code, body := readyzBody(t, dbg)
	if code != http.StatusOK || body["ok"] != true {
		t.Fatalf("readyz after lost sessions must stay 200/ok: %d %v", code, body)
	}
	deg, _ := body["degraded"].([]any)
	foundDeg := false
	for _, d := range deg {
		if d == "session-store" {
			foundDeg = true
		}
	}
	if !foundDeg {
		t.Errorf("degraded = %v, want session-store listed", body["degraded"])
	}

	tsB := httptest.NewServer(sB)
	defer tsB.Close()
	if code, _, _ := post(t, tsB, "/run", Request{Session: id, Source: "(bump)"}); code != http.StatusNotFound {
		t.Errorf("lost session served: %d", code)
	}
	// Degraded but serving: ordinary requests and new sessions work.
	if code, r, _ := post(t, tsB, "/run", Request{
		Source: "(defun ok (x) x)", Fn: "ok", Args: []string{"1"}}); code != http.StatusOK {
		t.Errorf("daemon not serving while degraded: %d %+v", code, r)
	}
	if code, _, _ := post(t, tsB, "/session", Request{}); code != http.StatusOK {
		t.Errorf("session creation broken while degraded: %d", code)
	}
	if v := sB.Metrics()["slcd_sessions_lost_total"]; v != 1 {
		t.Errorf("slcd_sessions_lost_total = %v", v)
	}
}

// TestHelperDaemonSessionPark is the child body for the SIGKILL session
// torture: it boots from the shared directory, creates the requested
// number of sessions (each manifest write is durable), then parks
// forever until the parent kills it.
func TestHelperDaemonSessionPark(t *testing.T) {
	dir := os.Getenv("SLCD_SESSION_TORTURE_DIR")
	if dir == "" {
		t.Skip("helper process for TestKill9SessionTorture")
	}
	st, err := snapshot.OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Config{SchedWorkers: 2, Snapshots: st})
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	n, _ := strconv.Atoi(os.Getenv("SLCD_SESSION_TORTURE_N"))
	for i := 0; i < n; i++ {
		code, resp, _ := post(t, ts, "/session", Request{Source: sessionSetupSrc})
		if code != http.StatusOK {
			t.Fatalf("create %d: %d %+v", i, code, resp)
		}
	}
	select {} // hold the sessions resident until SIGKILL
}

// TestKill9SessionTorture: SIGKILL a daemon holding parked sessions;
// the next boot must come up serving with every promised session
// reported lost and /readyz degraded — never an error, never a hang.
func TestKill9SessionTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	dir := t.TempDir()
	const n = 5

	cmd := exec.Command(os.Args[0], "-test.run=TestHelperDaemonSessionPark$", "-test.v=false")
	cmd.Env = append(os.Environ(),
		"SLCD_SESSION_TORTURE_DIR="+dir,
		"SLCD_SESSION_TORTURE_N="+strconv.Itoa(n))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until the manifest promises all n sessions, then kill -9.
	manifest := filepath.Join(dir, "sessions", "manifest.json")
	deadline := time.Now().Add(30 * time.Second)
	for {
		var man sessionManifest
		if data, err := os.ReadFile(manifest); err == nil &&
			json.Unmarshal(data, &man) == nil && len(man.Sessions) >= n {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("child never parked %d sessions\nchild: %s", n, out.String())
		}
		time.Sleep(time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()

	s := New(Config{SchedWorkers: 1, Snapshots: openSnapStore(t, dir, nil)})
	if err := s.Boot(); err != nil {
		t.Fatalf("boot after kill -9 failed: %v\nchild: %s", err, out.String())
	}
	if st := s.Stats(); st.SessionsLost != n {
		t.Errorf("SessionsLost = %d, want %d", st.SessionsLost, n)
	}
	mux := http.NewServeMux()
	s.RegisterDebug(mux)
	dbg := httptest.NewServer(mux)
	defer dbg.Close()
	code, body := readyzBody(t, dbg)
	if code != http.StatusOK || body["ok"] != true {
		t.Fatalf("readyz after kill -9: %d %v", code, body)
	}
	deg, _ := body["degraded"].([]any)
	found := false
	for _, d := range deg {
		if d == "session-store" {
			found = true
		}
	}
	if !found {
		t.Errorf("degraded = %v, want session-store", body["degraded"])
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	if code, r, _ := post(t, ts, "/run", Request{
		Source: "(defun ok (x) x)", Fn: "ok", Args: []string{"2"}}); code != http.StatusOK {
		t.Errorf("daemon not serving after torture: %d %+v", code, r)
	}
}

// TestManyResidentSessions: a node holds a large resident-session
// population cheaply (each parked machine keeps only its small initial
// stack, no arenas) and any of them resumes correctly. The full
// 10k-sessions-per-node figure is the BenchmarkScheduler/resident-sessions
// measurement; this asserts the mechanism at a scale CI can afford.
func TestManyResidentSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("creates a thousand sessions")
	}
	const n = 1000
	s := New(Config{SchedWorkers: 4, MaxSessions: 10000, ReqTimeout: 30 * time.Second})
	ts := httptest.NewServer(s)
	defer ts.Close()

	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				code, resp, _ := post(t, ts, "/session", Request{Source: sessionSetupSrc})
				if code != http.StatusOK || resp.Session == "" {
					errs <- fmt.Errorf("create %d: status %d", i, code)
					return
				}
				ids[i] = resp.Session
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.sessions.count(); got != n {
		t.Fatalf("resident sessions = %d, want %d", got, n)
	}
	// Spot-check resumability across the population.
	for i := 0; i < n; i += n / 20 {
		code, r, _ := post(t, ts, "/run", Request{Session: ids[i], Source: "(bump)"})
		if code != http.StatusOK || r.Value != "1" {
			t.Fatalf("session %d did not resume: %d %+v", i, code, r)
		}
	}
	if st := s.Stats(); st.SessionsCreated != n {
		t.Errorf("SessionsCreated = %d", st.SessionsCreated)
	}
}

// TestSessionCreateAccounting: POST /session runs its setup through the
// same admission and finish tail as /run, so a gas 429, a saturated 429
// and a setup-deadline 504 are each counted, flight-recorded and leave a
// span in /requests — and create no session.
func TestSessionCreateAccounting(t *testing.T) {
	const setup = spinSrc + "\n(spin 1)"
	lastSpan := func(s *Server) span {
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.ring) == 0 {
			return span{}
		}
		return s.ring[len(s.ring)-1]
	}
	checkSpan := func(t *testing.T, s *Server, status int, traceID string) {
		t.Helper()
		if sp := lastSpan(s); sp.Path != "/session" || sp.Status != status || sp.TraceID != traceID {
			t.Errorf("last span = %+v, want /session %d trace %s", sp, status, traceID)
		}
		if n := s.sessions.count(); n != 0 {
			t.Errorf("%d sessions resident after a failed create", n)
		}
	}

	t.Run("gas", func(t *testing.T) {
		s := New(Config{SchedWorkers: 1, ReqTimeout: 30 * time.Second,
			GasRate: 1000, GasBurst: 200_000})
		ts := httptest.NewServer(s)
		defer ts.Close()
		code, resp, hdr := post(t, ts, "/session", Request{Source: setup, Tenant: "dry"})
		if code != http.StatusTooManyRequests || !resp.GasExhausted || hdr.Get("Retry-After") == "" {
			t.Fatalf("gas-starved setup: status %d, resp %+v", code, resp)
		}
		if st := s.Stats(); st.GasExhausted != 1 {
			t.Errorf("GasExhausted = %d, want 1", st.GasExhausted)
		}
		m := s.Metrics()
		if m["slcd_gas_exhausted_total"] != 1 || m[`slcd_sched_tenant_gas_exhausted_total{tenant="dry"}`] != 1 {
			t.Errorf("gas metrics disagree: daemon %v, tenant %v", m["slcd_gas_exhausted_total"],
				m[`slcd_sched_tenant_gas_exhausted_total{tenant="dry"}`])
		}
		checkSpan(t, s, http.StatusTooManyRequests, resp.TraceID)
	})

	t.Run("saturated", func(t *testing.T) {
		s := New(Config{SchedWorkers: 1, QueueDepth: 1, ReqTimeout: 3 * time.Second})
		ts := httptest.NewServer(s)
		defer ts.Close()
		// Hold the one slot and the one queue place with spinners.
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				post(t, ts, "/run", Request{Source: spinSrc, Fn: "spin", Args: []string{"1"}})
			}()
		}
		defer wg.Wait()
		deadline := time.Now().Add(2 * time.Second)
		for st := s.sched.Stats(); st.Running+st.Queued < 2; st = s.sched.Stats() {
			if time.Now().After(deadline) {
				t.Fatal("spinners never filled the scheduler")
			}
			time.Sleep(time.Millisecond)
		}
		code, resp, hdr := post(t, ts, "/session", Request{Source: sessionSetupSrc})
		if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
			t.Fatalf("create on a saturated server: status %d, resp %+v", code, resp)
		}
		if st := s.Stats(); st.Shed != 1 {
			t.Errorf("Shed = %d, want 1", st.Shed)
		}
		if evs := s.Flight().Snapshot(obs.Filter{Kind: obs.EvLoadShed, Trace: resp.TraceID}); len(evs) != 1 {
			t.Errorf("load-shed events for the create = %+v", evs)
		}
		checkSpan(t, s, http.StatusTooManyRequests, resp.TraceID)
	})

	t.Run("deadline", func(t *testing.T) {
		s := New(Config{SchedWorkers: 1, ReqTimeout: 200 * time.Millisecond})
		ts := httptest.NewServer(s)
		defer ts.Close()
		code, resp, _ := post(t, ts, "/session", Request{Source: setup})
		if code != http.StatusGatewayTimeout || !resp.TimedOut {
			t.Fatalf("spinning setup: status %d, resp %+v", code, resp)
		}
		if st := s.Stats(); st.TimedOut != 1 {
			t.Errorf("TimedOut = %d, want 1", st.TimedOut)
		}
		if evs := s.Flight().Snapshot(obs.Filter{Kind: obs.EvDeadline, Trace: resp.TraceID}); len(evs) != 1 {
			t.Errorf("deadline events for the create = %+v", evs)
		}
		checkSpan(t, s, http.StatusGatewayTimeout, resp.TraceID)
	})
}

// TestSessionRunFoldsCacheFills: a session /run whose first call
// through a late-bound site fills its inline cache raises
// slcd_tier_call_cache_fills_total, as a stateless /run does.
func TestSessionRunFoldsCacheFills(t *testing.T) {
	s := New(Config{SchedWorkers: 1, ReqTimeout: 10 * time.Second})
	ts := httptest.NewServer(s)
	defer ts.Close()
	// many is compiled before sq exists, so its call late-binds through
	// sq's function cell: an inline-cache site.
	code, resp, _ := post(t, ts, "/session", Request{Source: `
(defun many (n) (prog (i) (setq i 0) l (if (>= i n) (return i)) (sq i) (setq i (+ i 1)) (go l)))
(defun sq (x) (* x x))`})
	if code != http.StatusOK || !resp.OK {
		t.Fatalf("create: status %d, resp %+v", code, resp)
	}
	before := s.Metrics()["slcd_tier_call_cache_fills_total"]
	if code, r, _ := post(t, ts, "/run", Request{Session: resp.Session, Source: "(many 1000)"}); code != http.StatusOK || !r.OK {
		t.Fatalf("session run: status %d, resp %+v", code, r)
	}
	if after := s.Metrics()["slcd_tier_call_cache_fills_total"]; after <= before {
		t.Errorf("slcd_tier_call_cache_fills_total = %v after a session /run calling sq, %v before", after, before)
	}
}
