package daemon

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/compilecache"
	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// snapTestPrelude is the daemon "standard library" the warm-boot tests
// pin: a couple of compiled functions and a macro, enough that serving
// them proves the snapshot round trip (machine code, interpreter defs,
// macro expanders) end to end.
const snapTestPrelude = `
(defmacro twice (x) (list '+ x x))
(defun exptl (b n a) (if (= n 0) a (exptl b (- n 1) (* a b))))
(defun pre-twice (x) (twice x))`

func openSnapStore(t *testing.T, dir string, fault *diag.Plan) *snapshot.Store {
	t.Helper()
	st, err := snapshot.OpenStore(dir, fault)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// runPrelude asserts a prelude-defined function is callable with an
// empty request source — i.e. the prelude really is loaded into the
// request's system, warm or cold.
func runPrelude(t *testing.T, ts *httptest.Server) {
	t.Helper()
	code, resp, _ := post(t, ts, "/run", Request{Fn: "exptl", Args: []string{"2", "10", "1"}})
	if code != http.StatusOK || !resp.OK || resp.Value != "1024" {
		t.Fatalf("prelude call: status %d, resp %+v", code, resp)
	}
}

// TestWarmBootFromStore is the tentpole path: daemon one cold-compiles
// the prelude and checkpoints; daemon two (fresh process state, same
// directory) boots warm from the snapshot and serves prelude functions
// with zero compiles.
func TestWarmBootFromStore(t *testing.T) {
	dir := t.TempDir()

	s1 := New(Config{SchedWorkers: 1, Prelude: snapTestPrelude, Snapshots: openSnapStore(t, dir, nil)})
	if err := s1.Boot(); err != nil {
		t.Fatalf("first boot: %v", err)
	}
	if st := s1.Stats(); st.SnapshotCheckpoints != 1 {
		t.Errorf("first boot should have checkpointed once, stats %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "boot"+snapshot.FileSuffix)); err != nil {
		t.Fatalf("no boot snapshot on disk: %v", err)
	}

	s2 := New(Config{SchedWorkers: 1, Prelude: snapTestPrelude, Snapshots: openSnapStore(t, dir, nil)})
	if err := s2.Boot(); err != nil {
		t.Fatalf("second boot: %v", err)
	}
	if st := s2.Stats(); st.SnapshotCheckpoints != 0 {
		t.Errorf("second boot recompiled instead of restoring, stats %+v", st)
	}
	if s2.boot.Load() == nil {
		t.Fatal("second boot has no live snapshot")
	}

	ts := httptest.NewServer(s2)
	defer ts.Close()
	runPrelude(t, ts)
	code, resp, _ := post(t, ts, "/run", Request{Source: "(defun f (x) (pre-twice x))", Fn: "f", Args: []string{"21"}})
	if code != http.StatusOK || resp.Value != "42" {
		t.Errorf("mixed warm+compile request: %d %+v", code, resp)
	}
	if st := s2.Stats(); st.SnapshotRestores != 2 || st.SnapshotRestoreFailures != 0 {
		t.Errorf("requests were not served from the snapshot: %+v", st)
	}
}

// TestBootStalePrelude: a snapshot written for a different prelude is
// valid but stale; boot must recompile the new prelude and replace it,
// not serve the old library.
func TestBootStalePrelude(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{SchedWorkers: 1, Prelude: "(defun old-fn (x) x)", Snapshots: openSnapStore(t, dir, nil)})
	if err := s1.Boot(); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{SchedWorkers: 1, Prelude: snapTestPrelude, Snapshots: openSnapStore(t, dir, nil)})
	if err := s2.Boot(); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.SnapshotCheckpoints != 1 {
		t.Errorf("stale snapshot was not replaced: %+v", st)
	}
	ts := httptest.NewServer(s2)
	defer ts.Close()
	runPrelude(t, ts)
	if code, resp, _ := post(t, ts, "/run", Request{Fn: "old-fn", Args: []string{"1"}}); code == http.StatusOK && resp.OK {
		t.Error("stale prelude function old-fn still served after re-checkpoint")
	}
}

// TestBootReadFaultFallsBack: an injected snapshot-read fault makes the
// stored snapshot unusable at boot; the daemon must quarantine it, cold
// compile, re-checkpoint, and serve — never crash.
func TestBootReadFaultFallsBack(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{SchedWorkers: 1, Prelude: snapTestPrelude, Snapshots: openSnapStore(t, dir, nil)})
	if err := s1.Boot(); err != nil {
		t.Fatal(err)
	}

	plan, err := diag.ParsePlan("snapshot:unit=boot:snapshot-read")
	if err != nil {
		t.Fatal(err)
	}
	flight := obs.NewFlight(obs.DefaultFlightSize)
	s2 := New(Config{SchedWorkers: 1, Prelude: snapTestPrelude,
		Snapshots: openSnapStore(t, dir, plan), Flight: flight})
	if err := s2.Boot(); err != nil {
		t.Fatalf("boot must degrade, not fail: %v", err)
	}
	if st := s2.Stats(); st.SnapshotCheckpoints != 1 {
		t.Errorf("fallback did not re-checkpoint: %+v", st)
	}
	var sawFallback, sawQuarantine bool
	for _, ev := range flight.Snapshot(obs.Filter{}) {
		switch ev.Kind {
		case obs.EvSnapshotFallback:
			sawFallback = true
		case obs.EvSnapshotQuarantine:
			sawQuarantine = true
		}
	}
	if !sawFallback || !sawQuarantine {
		t.Errorf("flight recorder missing events: fallback=%v quarantine=%v", sawFallback, sawQuarantine)
	}
	ts := httptest.NewServer(s2)
	defer ts.Close()
	runPrelude(t, ts)
}

// TestPerRequestRestoreFailureFallsBack: if the live snapshot stops
// verifying (tampered in memory here), each request falls back to a
// cold prelude compile and still succeeds.
func TestPerRequestRestoreFailureFallsBack(t *testing.T) {
	s := New(Config{SchedWorkers: 1, Prelude: snapTestPrelude})
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	boot := s.boot.Load()
	if boot == nil {
		t.Fatal("boot left no snapshot")
	}
	boot.Snap.Meta.ImageHash = "tampered"
	ts := httptest.NewServer(s)
	defer ts.Close()
	runPrelude(t, ts)
	if st := s.Stats(); st.SnapshotRestoreFailures != 1 || st.SnapshotRestores != 0 {
		t.Errorf("expected one restore failure with cold fallback: %+v", st)
	}
}

// TestAdminCheckpoint: POST /admin/checkpoint rewrites the snapshot on
// demand (the HTTP spelling of SIGUSR1).
func TestAdminCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{SchedWorkers: 1, Prelude: snapTestPrelude, Snapshots: openSnapStore(t, dir, nil)})
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	hr, err := http.Post(ts.URL+"/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var out struct {
		OK          bool  `json:"ok"`
		Checkpoints int64 `json:"checkpoints"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusOK || !out.OK || out.Checkpoints != 2 {
		t.Errorf("checkpoint: status %d, body %+v", hr.StatusCode, out)
	}

	// Without a prelude there is nothing to checkpoint: a clean 500.
	bare := New(Config{SchedWorkers: 1})
	tsb := httptest.NewServer(bare)
	defer tsb.Close()
	if hr, err := http.Post(tsb.URL+"/admin/checkpoint", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		hr.Body.Close()
		if hr.StatusCode != http.StatusInternalServerError {
			t.Errorf("preludeless checkpoint: status %d", hr.StatusCode)
		}
	}
}

// readyzBody fetches /readyz off a debug mux and decodes it.
func readyzBody(t *testing.T, dbg *httptest.Server) (int, map[string]any) {
	t.Helper()
	hr, err := http.Get(dbg.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&body); err != nil {
		t.Fatalf("readyz is not JSON: %v", err)
	}
	return hr.StatusCode, body
}

// TestReadyzDegradedCacheBreaker: an open disk-cache circuit breaker
// surfaces in the /readyz degraded list and the breaker-state gauge
// while readiness stays 200 — visible before it becomes an outage.
func TestReadyzDegradedCacheBreaker(t *testing.T) {
	disk, err := compilecache.OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	s := New(Config{SchedWorkers: 1, Disk: disk})
	mux := http.NewServeMux()
	s.RegisterDebug(mux)
	dbg := httptest.NewServer(mux)
	defer dbg.Close()

	if code, body := readyzBody(t, dbg); code != http.StatusOK || body["ok"] != true || body["degraded"] != nil {
		t.Fatalf("healthy readyz: %d %v", code, body)
	}
	if v := s.Metrics()["slcd_cache_breaker_state"]; v != 0 {
		t.Errorf("breaker gauge while closed = %v", v)
	}

	for i := 0; i < compilecache.DefaultBreakerThreshold; i++ {
		disk.Breaker().RecordCorrupt()
	}
	code, body := readyzBody(t, dbg)
	if code != http.StatusOK || body["ok"] != true {
		t.Fatalf("degraded readyz must stay 200/ok: %d %v", code, body)
	}
	deg, _ := body["degraded"].([]any)
	if len(deg) != 1 || deg[0] != "cache-breaker-open" {
		t.Errorf("degraded = %v", body["degraded"])
	}
	if v := s.Metrics()["slcd_cache_breaker_state"]; v != float64(compilecache.BreakerOpen) {
		t.Errorf("breaker gauge while open = %v", v)
	}

	disk.Breaker().RecordSuccess()
	if _, body := readyzBody(t, dbg); body["degraded"] != nil {
		t.Errorf("degraded after breaker closed: %v", body["degraded"])
	}
}

// TestReadyzDegradedSnapshotCold: warm boot configured but no live
// snapshot → degraded "snapshot-cold"; gone after Boot.
func TestReadyzDegradedSnapshotCold(t *testing.T) {
	s := New(Config{SchedWorkers: 1, Prelude: snapTestPrelude,
		Snapshots: openSnapStore(t, t.TempDir(), nil)})
	mux := http.NewServeMux()
	s.RegisterDebug(mux)
	dbg := httptest.NewServer(mux)
	defer dbg.Close()

	if _, body := readyzBody(t, dbg); body["degraded"] == nil {
		t.Error("pre-Boot readyz should report snapshot-cold")
	}
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	if _, body := readyzBody(t, dbg); body["degraded"] != nil {
		t.Errorf("post-Boot degraded = %v", body["degraded"])
	}
}

// TestHelperDaemonCheckpointLoop is the child body for the end-to-end
// kill-9 torture: a daemon that boots from the shared snapshot
// directory and re-checkpoints as fast as it can until killed.
func TestHelperDaemonCheckpointLoop(t *testing.T) {
	dir := os.Getenv("SLCD_SNAP_TORTURE_DIR")
	if dir == "" {
		t.Skip("helper process for TestKill9DaemonCheckpointTorture")
	}
	st, err := snapshot.OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Config{SchedWorkers: 1, Prelude: snapTestPrelude, Snapshots: st})
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	for {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKill9DaemonCheckpointTorture is the end-to-end crash-safety
// proof: SIGKILL a checkpointing daemon repeatedly; after every crash a
// fresh daemon must boot (warm or cold, never an error), report ready,
// and serve prelude calls.
func TestKill9DaemonCheckpointTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	dir := t.TempDir()
	for round := 0; round < 5; round++ {
		cmd := exec.Command(os.Args[0], "-test.run=TestHelperDaemonCheckpointLoop$", "-test.v=false")
		cmd.Env = append(os.Environ(), "SLCD_SNAP_TORTURE_DIR="+dir)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if ents, _ := os.ReadDir(dir); len(ents) > 2 { // .lock + quarantine + snapshot
				break
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(time.Duration(2+round*4) * time.Millisecond)
		cmd.Process.Kill()
		cmd.Wait()

		st := openSnapStore(t, dir, nil)
		s := New(Config{SchedWorkers: 1, Prelude: snapTestPrelude, Snapshots: st})
		if err := s.Boot(); err != nil {
			t.Fatalf("round %d: boot after kill -9 failed: %v\nchild: %s", round, err, out.String())
		}
		mux := http.NewServeMux()
		s.RegisterDebug(mux)
		dbg := httptest.NewServer(mux)
		if code, body := readyzBody(t, dbg); code != http.StatusOK || body["ok"] != true {
			t.Errorf("round %d: readyz after kill -9: %d %v", round, code, body)
		}
		dbg.Close()
		ts := httptest.NewServer(s)
		runPrelude(t, ts)
		ts.Close()
		st.Close()
	}
}

// TestRequestPlanMetricsAndTrace: a stateless request whose units all
// replay records a plan in the boot snapshot, and the next request of
// the same source uses it — counted on /metrics, and traced as a "plan"
// span where the "read" and "convert" spans were.
func TestRequestPlanMetricsAndTrace(t *testing.T) {
	d, err := compilecache.OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := New(Config{SchedWorkers: 1, Prelude: snapTestPrelude, Disk: d,
		Snapshots: openSnapStore(t, t.TempDir(), nil)})
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	req := Request{Source: "(defvar *k* 3)\n(defun sq-k (x) (* x x *k*))\n(sq-k 2)\n", Fn: "sq-k", Args: []string{"5"}}
	phases := func(trace json.RawMessage) map[string]int {
		var doc struct {
			TraceEvents []struct{ Name, Ph string } `json:"traceEvents"`
		}
		if err := json.Unmarshal(trace, &doc); err != nil {
			t.Fatal(err)
		}
		n := map[string]int{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "B" {
				n[ev.Name]++
			}
		}
		return n
	}
	var traces []map[string]int
	for i := 0; i < 3; i++ {
		code, resp, _ := post(t, ts, "/run?trace=1", req)
		if code != http.StatusOK || !resp.OK || resp.Value != "75" {
			t.Fatalf("request %d: status %d, resp %+v", i, code, resp)
		}
		traces = append(traces, phases(resp.Trace))
	}
	st := s.Stats()
	if st.PlanHits != 1 || st.PlanRecords != 1 || st.PlanFallbacks != 0 {
		t.Errorf("plan counters %d hits, %d records, %d fallbacks; want 1, 1, 0", st.PlanHits, st.PlanRecords, st.PlanFallbacks)
	}
	m := s.Metrics()
	if m["slcd_plan_hits_total"] != 1 || m["slcd_plan_records_total"] != 1 || m["slcd_plan_fallbacks_total"] != 0 {
		t.Errorf("plan metrics: %v %v %v", m["slcd_plan_hits_total"], m["slcd_plan_records_total"], m["slcd_plan_fallbacks_total"])
	}
	if tr := traces[1]; tr["read"] != 1 || tr["convert"] != 1 || tr["plan"] != 0 {
		t.Errorf("recording request's phases: %v", tr)
	}
	if tr := traces[2]; tr["plan"] != 1 || tr["read"] != 0 || tr["convert"] != 0 || tr["disk-replay"] != 3 {
		t.Errorf("planned request's phases: %v", tr)
	}
}
