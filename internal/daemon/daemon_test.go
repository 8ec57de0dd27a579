package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compilecache"
	"repro/internal/diag"
	"repro/internal/obs"
)

// spinSrc never terminates on its own; only the cooperative interrupt
// (deadline) can unwind it.
const spinSrc = `
(defun spin (n)
  (prog (i)
    (setq i 0)
   loop
    (setq i (+ i 1))
    (go loop)))`

func post(t *testing.T, ts *httptest.Server, path string, req Request) (int, Response, http.Header) {
	t.Helper()
	body, _ := json.Marshal(req)
	hr, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatalf("%s: undecodable body: %v", path, err)
	}
	return hr.StatusCode, resp, hr.Header
}

// TestCompileAndRun is the happy path: compile a corpus, call into it,
// get printed values and the list of compiled defs back.
func TestCompileAndRun(t *testing.T) {
	s := New(Config{SchedWorkers: 2, ReqTimeout: 10 * time.Second})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, resp, _ := post(t, ts, "/run", Request{
		Source: `(defun exptl (b n a) (if (= n 0) a (exptl b (- n 1) (* a b))))`,
		Fn:     "exptl", Args: []string{"2", "10", "1"},
	})
	if code != http.StatusOK || !resp.OK {
		t.Fatalf("run: status %d, resp %+v", code, resp)
	}
	if resp.Value != "1024" {
		t.Errorf("exptl value = %q", resp.Value)
	}
	if len(resp.Defs) != 1 || resp.Defs[0] != "exptl" {
		t.Errorf("defs = %v", resp.Defs)
	}

	// /compile reports the last top-level form's value.
	code, resp, _ = post(t, ts, "/compile", Request{
		Source: "(defun sq (x) (* x x))\n(sq 7)",
	})
	if code != http.StatusOK || !resp.OK || resp.Value != "49" {
		t.Errorf("compile: status %d, resp %+v", code, resp)
	}
}

// TestCompileErrorIsStructured: a broken unit yields 422 with positioned
// diagnostics, not a dead daemon.
func TestCompileErrorIsStructured(t *testing.T) {
	s := New(Config{SchedWorkers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, resp, _ := post(t, ts, "/compile", Request{Source: `(defun bad (x) (car . x))`})
	if code != http.StatusUnprocessableEntity || resp.OK {
		t.Fatalf("status %d, resp %+v", code, resp)
	}
	if len(resp.Diagnostics) == 0 {
		t.Fatal("no diagnostics for a compile error")
	}
	d := resp.Diagnostics[0]
	if d.Severity != "error" || d.Unit != "bad" {
		t.Errorf("diagnostic = %+v", d)
	}

	// The daemon still serves after the failure.
	code, resp, _ = post(t, ts, "/run", Request{Source: "(defun ok (x) x)", Fn: "ok", Args: []string{"5"}})
	if code != http.StatusOK || resp.Value != "5" {
		t.Errorf("daemon unhealthy after compile error: %d %+v", code, resp)
	}
}

// TestDeadlineReturns504: a spinning request is interrupted at its
// deadline and surfaces as a 504 with a deadline diagnostic; the worker
// slot is reclaimed and the daemon keeps serving.
func TestDeadlineReturns504(t *testing.T) {
	s := New(Config{SchedWorkers: 1, ReqTimeout: 150 * time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, resp, _ := post(t, ts, "/run", Request{Source: spinSrc, Fn: "spin", Args: []string{"1"}})
	if code != http.StatusGatewayTimeout || !resp.TimedOut {
		t.Fatalf("status %d, resp %+v", code, resp)
	}
	found := false
	for _, d := range resp.Diagnostics {
		if d.Phase == "deadline" {
			found = true
		}
	}
	if !found {
		t.Errorf("no deadline diagnostic: %+v", resp.Diagnostics)
	}

	code, resp, _ = post(t, ts, "/run", Request{Source: "(defun ok (x) x)", Fn: "ok", Args: []string{"3"}})
	if code != http.StatusOK || resp.Value != "3" {
		t.Errorf("daemon unhealthy after timeout: %d %+v", code, resp)
	}
	if st := s.Stats(); st.TimedOut != 1 {
		t.Errorf("timeout counter = %d", st.TimedOut)
	}
}

// TestInjectedDeadlineFault: the deadline fault kind makes a matching
// request behave as already expired, without waiting out a real timeout.
func TestInjectedDeadlineFault(t *testing.T) {
	plan, err := diag.ParsePlan("request:unit=spin:deadline")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{SchedWorkers: 1, ReqTimeout: time.Hour, Fault: plan})
	ts := httptest.NewServer(s)
	defer ts.Close()

	start := time.Now()
	code, resp, _ := post(t, ts, "/run", Request{Source: spinSrc, Fn: "spin", Args: []string{"1"}})
	if code != http.StatusGatewayTimeout || !resp.TimedOut {
		t.Fatalf("status %d, resp %+v", code, resp)
	}
	if time.Since(start) > 30*time.Second {
		t.Error("injected deadline waited for a real timeout")
	}

	// A non-matching unit is untouched by the plan.
	code, resp, _ = post(t, ts, "/run", Request{Source: "(defun ok (x) x)", Fn: "ok", Args: []string{"1"}})
	if code != http.StatusOK {
		t.Errorf("non-matching unit faulted: %d %+v", code, resp)
	}
}

// TestLoadSheddingUnderSaturation: with one worker and a queue of one,
// a burst of slow requests sheds the overflow with 429 + Retry-After
// while admitted requests still complete (here: by deadline).
func TestLoadSheddingUnderSaturation(t *testing.T) {
	s := New(Config{SchedWorkers: 1, QueueDepth: 1, ReqTimeout: 400 * time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const burst = 6
	type result struct {
		code  int
		retry string
	}
	results := make(chan result, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, hdr := post(t, ts, "/run", Request{Source: spinSrc, Fn: "spin", Args: []string{"1"}})
			results <- result{code, hdr.Get("Retry-After")}
		}()
	}
	wg.Wait()
	close(results)

	shed, timedOut := 0, 0
	for r := range results {
		switch r.code {
		case http.StatusTooManyRequests:
			shed++
			if r.retry == "" {
				t.Error("shed response missing Retry-After")
			}
		case http.StatusGatewayTimeout:
			timedOut++
		default:
			t.Errorf("unexpected status %d in burst", r.code)
		}
	}
	// Capacity is Workers+QueueDepth = 2: at least burst-2 must shed.
	if shed < burst-2 {
		t.Errorf("only %d of %d requests shed", shed, burst)
	}
	if timedOut == 0 {
		t.Error("no admitted request ran to its deadline")
	}
	if st := s.Stats(); st.Shed != int64(shed) {
		t.Errorf("shed counter %d != observed %d", st.Shed, shed)
	}
}

// TestDrainRejectsAndCompletes: Drain flips readiness, rejects new work
// with 503, and returns once in-flight requests are done.
func TestDrainRejectsAndCompletes(t *testing.T) {
	s := New(Config{SchedWorkers: 1, ReqTimeout: 300 * time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	mux := http.NewServeMux()
	s.RegisterDebug(mux)
	dbg := httptest.NewServer(mux)
	defer dbg.Close()

	// Park one slow request in flight.
	done := make(chan int, 1)
	go func() {
		code, _, _ := post(t, ts, "/run", Request{Source: spinSrc, Fn: "spin", Args: []string{"1"}})
		done <- code
	}()
	// Wait until it is actually executing.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && s.sched.Stats().Running == 0 {
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Draining state is observable immediately.
	for time.Now().Before(deadline) && !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	if code, _, _ := post(t, ts, "/compile", Request{Source: "(defun x (a) a)"}); code != http.StatusServiceUnavailable {
		t.Errorf("request during drain got %d, want 503", code)
	}
	if code, _, _ := post(t, ts, "/session", Request{}); code != http.StatusServiceUnavailable {
		t.Errorf("session create during drain got %d, want 503", code)
	}
	if r, err := http.Get(dbg.URL + "/readyz"); err != nil || r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: %v %v", r.StatusCode, err)
	} else {
		r.Body.Close()
	}
	if r, err := http.Get(dbg.URL + "/healthz"); err != nil || r.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain: %v %v", r.StatusCode, err)
	} else {
		r.Body.Close()
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight request completed (by deadline) rather than being cut.
	select {
	case code := <-done:
		if code != http.StatusGatewayTimeout {
			t.Errorf("in-flight request finished with %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
}

// TestRequestSpansExported: finished requests appear in the /requests
// ring with status and timing.
func TestRequestSpansExported(t *testing.T) {
	s := New(Config{SchedWorkers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	reg := obs.NewRegistry()
	s.Register(reg)
	mux := obs.NewDebugMux(reg, s.RegisterDebug)
	dbg := httptest.NewServer(mux)
	defer dbg.Close()

	post(t, ts, "/compile", Request{Source: "(defun a (x) x)"})
	post(t, ts, "/compile", Request{Source: "(defun broken (x) (car . x))"})

	r, err := http.Get(dbg.URL + "/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var out struct {
		Stats  Stats `json:"stats"`
		Recent []struct {
			Path   string `json:"path"`
			Status int    `json:"status"`
		} `json:"recent"`
	}
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Recent) != 2 {
		t.Fatalf("span ring has %d entries", len(out.Recent))
	}
	if out.Recent[0].Status != http.StatusOK || out.Recent[1].Status != http.StatusUnprocessableEntity {
		t.Errorf("span statuses = %+v", out.Recent)
	}
	if out.Stats.Succeeded != 1 || out.Stats.Failed != 1 {
		t.Errorf("stats = %+v", out.Stats)
	}

	// Metrics snapshot carries the same counters.
	m := s.Metrics()
	if m["slcd_requests_ok"] != 1 || m["slcd_requests_failed"] != 1 {
		t.Errorf("metrics = %v", m)
	}
}

// TestMarshaledPrimsMetric: slcd_marshaled_prims_total counts the
// fallback-primitive calls of stateless and session requests that went
// through the marshaled host hook (append has no native entry), and
// none of those that ran natively (rem, cadr).
func TestMarshaledPrimsMetric(t *testing.T) {
	s := New(Config{SchedWorkers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	src := `(defun native-only (x) (rem (cadr x) 7)) (defun copies (x) (length (append x x)))`
	for _, c := range []struct {
		fn, want  string
		marshaled float64
	}{{"native-only", "2", 0}, {"copies", "6", 1}} {
		code, resp, _ := post(t, ts, "/run", Request{Source: src, Fn: c.fn, Args: []string{"(1 9 3)"}})
		if code != http.StatusOK || resp.Value != c.want {
			t.Fatalf("%s: %d %+v", c.fn, code, resp)
		}
		if got := s.Metrics()["slcd_marshaled_prims_total"]; got != c.marshaled {
			t.Errorf("after %s: slcd_marshaled_prims_total = %v, want %v", c.fn, got, c.marshaled)
		}
	}
	code, resp, _ := post(t, ts, "/session", Request{Source: src})
	if code != http.StatusOK {
		t.Fatalf("session: %d %+v", code, resp)
	}
	if code, r, _ := post(t, ts, "/run", Request{Session: resp.Session, Source: "(list (copies '(1)) (native-only '(1 8)))"}); code != http.StatusOK || r.Value != "(2 1)" {
		t.Fatalf("session run: %d %+v", code, r)
	}
	if got := s.Metrics()["slcd_marshaled_prims_total"]; got != 2 {
		t.Errorf("after the session run: slcd_marshaled_prims_total = %v, want 2", got)
	}
}

// TestSharedDiskCacheAcrossRequests: two requests compiling the same
// unit share the durable cache — the second replays instead of
// recompiling, and both produce working code.
func TestSharedDiskCacheAcrossRequests(t *testing.T) {
	d, err := compilecache.OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := New(Config{SchedWorkers: 1, Disk: d})
	ts := httptest.NewServer(s)
	defer ts.Close()

	src := `(defun cached-fn (n) (* n (+ n 1)))`
	for i := 0; i < 2; i++ {
		code, resp, _ := post(t, ts, "/run", Request{Source: src, Fn: "cached-fn", Args: []string{"6"}})
		if code != http.StatusOK || resp.Value != "42" {
			t.Fatalf("request %d: %d %+v", i, code, resp)
		}
	}
	st := d.Stats()
	if st.Stores == 0 {
		t.Error("first request stored nothing durable")
	}
	if st.Hits == 0 {
		t.Error("second request did not replay from the shared cache")
	}
}

// TestDiskCacheMetricsAndHitSource: the durable cache's meters are on
// /metrics, and the flight recorder says whether a hit read the entry
// file ("disk") or came from the process-wide layer ("process").
func TestDiskCacheMetricsAndHitSource(t *testing.T) {
	d, err := compilecache.OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := New(Config{SchedWorkers: 1, Disk: d})
	ts := httptest.NewServer(s)
	defer ts.Close()

	src := `(defun metered (n) (+ n 1))`
	for i := 0; i < 3; i++ {
		code, resp, _ := post(t, ts, "/run", Request{Source: src, Fn: "metered", Args: []string{"41"}})
		if code != http.StatusOK || resp.Value != "42" {
			t.Fatalf("request %d: %d %+v", i, code, resp)
		}
	}
	m := s.Metrics()
	for name, want := range map[string]float64{
		"slcd_cache_disk_misses_total":     1,
		"slcd_cache_disk_stores_total":     1,
		"slcd_cache_disk_hits_total":       2,
		"slcd_cache_disk_file_reads_total": 1,
		"slcd_cache_disk_corrupt_total":    0,
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %v (present %t), want %v", name, got, ok, want)
		}
	}
	var srcs []string
	for _, ev := range s.flight.Snapshot(obs.Filter{Kind: obs.EvCacheHit, Unit: "metered"}) {
		srcs = append(srcs, ev.Msg)
	}
	if strings.Join(srcs, ",") != "disk,process" {
		t.Errorf("cache-hit sources = %v, want [disk process]", srcs)
	}
}

// TestDiskCacheQuarantineEvent: the server wires the durable cache's
// event hook itself, so a corrupt entry met by a request lands in the
// flight recorder as one cache-quarantine event, with no slcd around.
func TestDiskCacheQuarantineEvent(t *testing.T) {
	dir := t.TempDir()
	d, err := compilecache.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := New(Config{SchedWorkers: 1, Disk: d})
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := Request{Source: `(defun quarantined (n) (+ n 1))`, Fn: "quarantined", Args: []string{"41"}}
	if code, resp, _ := post(t, ts, "/run", req); code != http.StatusOK || resp.Value != "42" {
		t.Fatalf("storing request: %d %+v", code, resp)
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "*.e"))
	if len(entries) == 0 {
		t.Fatal("the request stored no entry")
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(entries[0], data, 0o666); err != nil {
		t.Fatal(err)
	}
	if code, resp, _ := post(t, ts, "/run", req); code != http.StatusOK || resp.Value != "42" {
		t.Fatalf("request over the corrupt entry: %d %+v", code, resp)
	}
	evs := s.Flight().Snapshot(obs.Filter{Kind: obs.EvCacheQuarantine})
	if len(evs) != 1 || evs[0].Unit != filepath.Base(entries[0]) {
		t.Errorf("cache-quarantine events = %+v, want one for %s", evs, filepath.Base(entries[0]))
	}
}

// TestRecoveryQuarantineEvents: files quarantined while a store is
// opened, before the server exists to hook it, still reach the flight
// recorder once the server installs its hook: a torn cache entry as
// cache-quarantine, a previous-version boot snapshot as
// snapshot-quarantine, each exactly once.
func TestRecoveryQuarantineEvents(t *testing.T) {
	cacheDir, snapDir := t.TempDir(), t.TempDir()
	if err := os.WriteFile(filepath.Join(cacheDir, "torn.e"), []byte("slc-cache-entry-v2\ntorn"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(snapDir, "boot.snap"), []byte("slc-snapshot-v4\nold payload"), 0o666); err != nil {
		t.Fatal(err)
	}
	d, err := compilecache.OpenDisk(cacheDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := New(Config{SchedWorkers: 1, Disk: d, Snapshots: openSnapStore(t, snapDir, nil)})
	for kind, file := range map[string]string{
		obs.EvCacheQuarantine:    "torn.e",
		obs.EvSnapshotQuarantine: "boot.snap",
	} {
		evs := s.Flight().Snapshot(obs.Filter{Kind: kind})
		if len(evs) != 1 || evs[0].Unit != file {
			t.Errorf("%s events = %+v, want one for %s", kind, evs, file)
		}
	}
	if _, err := os.Stat(filepath.Join(cacheDir, "quarantine", "torn.e")); err != nil {
		t.Errorf("torn entry not in quarantine: %v", err)
	}
	// A later hook does not see the recovery events again.
	var again int
	d.SetEventHook(func(kind, name string) { again++ })
	if again != 0 {
		t.Errorf("second hook received %d recovery events", again)
	}
}

// TestBadBodyRejected: malformed JSON is a 400, not a panic or a hang.
func TestBadBodyRejected(t *testing.T) {
	s := New(Config{SchedWorkers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	r, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", r.StatusCode)
	}
}

// TestArenaReuseAcrossRequests: sequential requests on one worker must
// recycle machine storage through the arena pool — the second request's
// machine is built on the first one's released slices — and the per-run
// results stay correct on recycled storage.
func TestArenaReuseAcrossRequests(t *testing.T) {
	s := New(Config{SchedWorkers: 1, ReqTimeout: 10 * time.Second})
	ts := httptest.NewServer(s)
	defer ts.Close()

	src := `(defun grow (n) (if (= n 0) nil (cons n (grow (- n 1)))))
(defun len2 (l) (if (null l) 0 (+ 1 (len2 (cdr l)))))
(defun work (n) (len2 (grow n)))`
	for i := 0; i < 3; i++ {
		code, resp, _ := post(t, ts, "/run", Request{
			Source: src, Fn: "work", Args: []string{"100"},
		})
		if code != http.StatusOK || resp.Value != "100" {
			t.Fatalf("request %d on recycled arena: %d %+v", i, code, resp)
		}
	}
	if got := s.Stats().ArenaRecycles; got < 1 {
		t.Errorf("arena recycles = %d after 3 sequential requests, want >= 1", got)
	}
}

// TestGCBoxHeapLimitDiagnostic: -max-heap counts bignums. A /run whose
// loop keeps a bignum of about a thousand words live, under a 500-word
// budget, ends in the run phase's heap-exhausted diagnostic (422), not
// in unbounded host memory, and the daemon serves the next request.
func TestGCBoxHeapLimitDiagnostic(t *testing.T) {
	s := New(Config{SchedWorkers: 1, MaxHeapWords: 500})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, resp, _ := post(t, ts, "/run", Request{
		Source: `(defun grow (n acc) (prog (i) (setq i 0) loop (if (>=& i n) (return (rem acc 1000003)) nil) (setq acc (* acc 3) i (+& i 1)) (go loop)))`,
		Fn:     "grow", Args: []string{"40000", "1"},
	})
	if code != http.StatusUnprocessableEntity || len(resp.Diagnostics) != 1 {
		t.Fatalf("status %d, resp %+v", code, resp)
	}
	if d := resp.Diagnostics[0]; d.Phase != "run" || d.Unit != "grow" || !strings.Contains(d.Msg, "heap exhausted") {
		t.Errorf("diagnostic %+v, want the run phase's heap exhausted", d)
	}
	code, resp, _ = post(t, ts, "/run", Request{Source: "(defun ok (x) (* x x))", Fn: "ok", Args: []string{"12"}})
	if code != http.StatusOK || resp.Value != "144" {
		t.Errorf("daemon unhealthy after the heap fault: %d %+v", code, resp)
	}
}

// TestMacroExpandersUnderBudgets drives one daemon through macro
// expanders that never finish on their own. Each runs on the request's
// machine, so each ends in a diagnostic — the machine's stack overflow,
// the request deadline, the converter's nesting bound — and the daemon
// answers the next request normally.
func TestMacroExpandersUnderBudgets(t *testing.T) {
	const timeout = time.Second
	const slack = 2 * time.Second
	s := New(Config{SchedWorkers: 1, ReqTimeout: timeout})
	ts := httptest.NewServer(s)
	defer ts.Close()

	healthy := func(after string) {
		t.Helper()
		code, resp, _ := post(t, ts, "/run", Request{Source: "(defun ok (x) x)", Fn: "ok", Args: []string{"3"}})
		if code != http.StatusOK || resp.Value != "3" {
			t.Errorf("daemon unhealthy after %s: %d %+v", after, code, resp)
		}
	}
	hasDiag := func(resp Response, phase, msg string) bool {
		for _, d := range resp.Diagnostics {
			if d.Phase == phase && strings.Contains(d.Msg, msg) {
				return true
			}
		}
		return false
	}

	// An expander that calls an unboundedly recursive session function.
	code, resp, _ := post(t, ts, "/session", Request{Source: "(defun f (x) (+ 1 (f x)))"})
	if code != http.StatusOK || resp.Session == "" {
		t.Fatalf("session: %d %+v", code, resp)
	}
	code, resp, _ = post(t, ts, "/run", Request{Session: resp.Session, Source: "(defmacro m () (f 1)) (defun g () (m))"})
	if code == http.StatusOK || !hasDiag(resp, "expand", "stack overflow") {
		t.Errorf("recursing expander: %d %+v", code, resp)
	}
	healthy("a recursing expander")

	// An expander that loops, cut by the request deadline.
	start := time.Now()
	code, resp, _ = post(t, ts, "/compile", Request{Source: "(defmacro m () (prog () l (go l))) (defun g () (m))"})
	if took := time.Since(start); took > timeout+slack {
		t.Errorf("looping expander answered after %v, want within %v", took, timeout+slack)
	}
	if code != http.StatusGatewayTimeout || !hasDiag(resp, "deadline", "") {
		t.Errorf("looping expander: %d %+v", code, resp)
	}
	healthy("a looping expander")

	// A macro that expands to a call of itself.
	code, resp, _ = post(t, ts, "/compile", Request{Source: "(defmacro m () '(m)) (defun g () (m))"})
	if code == http.StatusOK || !hasDiag(resp, "convert", "nested too deeply") {
		t.Errorf("self-expanding macro: %d %+v", code, resp)
	}
	healthy("a self-expanding macro")
}
