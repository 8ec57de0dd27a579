package daemon

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/diag"
)

// diffFault is the injection plan the differential sequence runs under:
// only the request calling slow matches, and it starts already expired.
const diffFault = "request:unit=slow:deadline"

// diffSeq is the differential request sequence: every status class the
// request path produces (200, 422 compile and runtime errors, 504) on
// /compile, /run and /session. A Session of "$" stands for the id the
// latest POST /session returned.
var diffSeq = []struct {
	path string
	req  Request
}{
	{"/run", Request{
		Source: `(defun exptl (b n a) (if (= n 0) a (exptl b (- n 1) (* a b))))`,
		Fn:     "exptl", Args: []string{"2", "10", "1"}, Tenant: "acme"}},
	{"/compile", Request{Source: "(defun sq (x) (* x x))\n(sq 7)"}},
	{"/compile", Request{Source: `(defun bad (x) (car . x))`}}, // 422
	{"/run", Request{
		Source: `(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))`,
		Fn:     "fib", Args: []string{"15"}}},
	{"/run", Request{Source: "(defun id (x) x)", Fn: "id", Args: []string{"((a . b) 1 2)"}}},
	{"/run", Request{Source: "(defun boom (x) (car x))", Fn: "boom", Args: []string{"5"}}}, // runtime 422
	{"/run", Request{Source: "(defun slow (x) x)", Fn: "slow", Args: []string{"1"}}},       // injected 504
	{"/run", Request{Source: "(defun half (x) (/ x 2.0))", Fn: "half", Args: []string{"3.0"}}},
	{"/session", Request{Source: sessionSetupSrc, Tenant: "acme"}},
	{"/run", Request{Session: "$", Source: "(bump)"}},
	{"/run", Request{Session: "$", Source: "(defun twice (x) (* 2 x))", Fn: "twice", Args: []string{"21"}}},
	{"/run", Request{Session: "$", Fn: "bump"}},
}

// goldenLine is one request's normalized outcome, one JSON line each in
// testdata/sched_responses.golden.
type goldenLine struct {
	Path     string   `json:"path"`
	Status   int      `json:"status"`
	Response Response `json:"response"`
}

// normalizeResp strips what legitimately varies between runs — timings,
// trace ids, session ids, the order of the defs list (a map walk) — so
// responses can be compared for semantic identity.
func normalizeResp(r Response) Response {
	r.DurationMs = 0
	r.TraceID = ""
	r.Trace = nil
	if r.Session != "" {
		r.Session = "<session>"
	}
	sort.Strings(r.Defs)
	return r
}

// runDiffSeq posts diffSeq to s and returns one golden line per request.
func runDiffSeq(t *testing.T, s *Server) []string {
	t.Helper()
	ts := httptest.NewServer(s)
	defer ts.Close()
	var out []string
	session := ""
	for _, r := range diffSeq {
		req := r.req
		if req.Session == "$" {
			req.Session = session
		}
		code, resp, _ := post(t, ts, r.path, req)
		if r.path == "/session" {
			session = resp.Session
		}
		line, err := json.Marshal(goldenLine{r.path, code, normalizeResp(resp)})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(line))
	}
	return out
}

// TestSchedModeDifferential is the mode-identity guarantee: the request
// sequence produces exactly the responses in
// testdata/sched_responses.golden under the scheduler and under
// forced-yield-at-every-safepoint stress. The golden was captured from
// the direct semaphore path the scheduler replaced; only timings, trace
// ids and session ids may differ (normalizeResp).
func TestSchedModeDifferential(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "sched_responses.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(diffSeq) {
		t.Fatalf("golden has %d lines, sequence has %d requests", len(want), len(diffSeq))
	}
	plan, err := diag.ParsePlan(diffFault)
	if err != nil {
		t.Fatal(err)
	}
	defer func(prev bool) { stressSched = prev }(stressSched)
	for _, stress := range []bool{false, true} {
		stressSched = stress
		got := runDiffSeq(t, New(Config{SchedWorkers: 2, ReqTimeout: 30 * time.Second, Fault: plan}))
		for i := range diffSeq {
			if got[i] != want[i] {
				t.Errorf("stress=%v request %d (%s) diverges from the golden:\nwant %s\ngot  %s",
					stress, i, diffSeq[i].path, want[i], got[i])
			}
		}
	}
}

// TestStarvationFreedom is the adversarial fairness suite: a hot tenant
// keeps the single worker slot saturated with spin loops that only die
// at their deadline, while a second tenant submits short programs. Every
// short program must complete (no 504, no starvation) and their tail
// latency must stay far below the hog's slot-holding time — the DRR
// preemption guarantee.
func TestStarvationFreedom(t *testing.T) {
	s := New(Config{SchedWorkers: 1, QueueDepth: 64,
		ReqTimeout: 3 * time.Second})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Three hog requests at a time, resubmitted forever: the slot is
	// never voluntarily free.
	stop := make(chan struct{})
	var hogs sync.WaitGroup
	for i := 0; i < 3; i++ {
		hogs.Add(1)
		go func() {
			defer hogs.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				post(t, ts, "/run", Request{
					Source: spinSrc, Fn: "spin", Args: []string{"1"}, Tenant: "hog"})
			}
		}()
	}
	defer hogs.Wait()
	defer close(stop)

	// Wait until the hog actually owns the machine.
	deadline := time.Now().Add(4 * time.Second)
	for {
		st := s.sched.Stats()
		if st.Running+st.Queued >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hog never saturated the scheduler")
		}
		time.Sleep(time.Millisecond)
	}

	// Short, but long enough (tens of thousands of instructions) to
	// cross safepoints and be charged real cycles.
	const shorts = 15
	const countSrc = `(defun count (n) (if (= n 0) 99 (count (- n 1))))`
	lat := make([]time.Duration, 0, shorts)
	for i := 0; i < shorts; i++ {
		begin := time.Now()
		code, resp, _ := post(t, ts, "/run", Request{
			Source: countSrc, Fn: "count", Args: []string{"20000"},
			Tenant: "mouse"})
		lat = append(lat, time.Since(begin))
		if code != http.StatusOK || !resp.OK || resp.Value != "99" {
			t.Fatalf("short request %d starved or broke: %d %+v", i, code, resp)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	// p99 (here: the max of 15 samples) must beat the request deadline
	// with margin — without preemption every short request would sit
	// behind a full 3 s spin-until-deadline and time out.
	if worst := lat[len(lat)-1]; worst >= s.cfg.ReqTimeout {
		t.Errorf("short-tenant worst latency %v reached the deadline %v", worst, s.cfg.ReqTimeout)
	}
	st := s.sched.Stats()
	if st.Preempts == 0 {
		t.Error("no preemptions recorded; the hog was never timesliced")
	}
	var mouse, hog *int64
	for i := range st.ByTenant {
		switch st.ByTenant[i].Name {
		case "mouse":
			mouse = &st.ByTenant[i].CyclesUsed
		case "hog":
			hog = &st.ByTenant[i].CyclesUsed
		}
	}
	if mouse == nil || hog == nil || *mouse == 0 || *hog == 0 {
		t.Errorf("per-tenant cycle accounting incomplete: %+v", st.ByTenant)
	}
}

// TestGasExhausted429: a spinning program drains its tenant's gas
// bucket mid-run and gets the typed 429 (gas_exhausted, Retry-After) —
// not a deadline 504; the dry tenant then fails fast at admission while
// other tenants are untouched.
func TestGasExhausted429(t *testing.T) {
	s := New(Config{SchedWorkers: 1, ReqTimeout: 30 * time.Second,
		GasRate: 1000, GasBurst: 200_000})
	ts := httptest.NewServer(s)
	defer ts.Close()

	begin := time.Now()
	code, resp, hdr := post(t, ts, "/run", Request{
		Source: spinSrc, Fn: "spin", Args: []string{"1"}, Tenant: "dry"})
	if code != http.StatusTooManyRequests || !resp.GasExhausted {
		t.Fatalf("spin on a tiny gas budget: status %d, resp %+v", code, resp)
	}
	if resp.TimedOut {
		t.Error("gas exhaustion misclassified as a deadline")
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("gas 429 missing Retry-After")
	}
	if time.Since(begin) > 10*time.Second {
		t.Error("gas exhaustion waited for the request deadline")
	}
	found := false
	for _, d := range resp.Diagnostics {
		if d.Phase == "gas" {
			found = true
		}
	}
	if !found {
		t.Errorf("no gas-phase diagnostic: %+v", resp.Diagnostics)
	}

	// The dry tenant is refused at admission now (fail-fast, still typed).
	code, resp, hdr = post(t, ts, "/run", Request{
		Source: "(defun ok (x) x)", Fn: "ok", Args: []string{"1"}, Tenant: "dry"})
	if code != http.StatusTooManyRequests || !resp.GasExhausted || hdr.Get("Retry-After") == "" {
		t.Errorf("dry-tenant admission: status %d, resp %+v", code, resp)
	}

	// A different tenant's budget is its own.
	if code, resp, _ := post(t, ts, "/run", Request{
		Source: "(defun ok (x) x)", Fn: "ok", Args: []string{"5"}, Tenant: "wet"}); code != http.StatusOK || resp.Value != "5" {
		t.Errorf("unrelated tenant affected by a dry bucket: %d %+v", code, resp)
	}

	if st := s.Stats(); st.GasExhausted != 2 {
		t.Errorf("GasExhausted stat = %d, want 2", st.GasExhausted)
	}
	m := s.Metrics()
	if m["slcd_gas_exhausted_total"] != 2 {
		t.Errorf("slcd_gas_exhausted_total = %v", m["slcd_gas_exhausted_total"])
	}
	if m[`slcd_sched_tenant_gas_exhausted_total{tenant="dry"}`] != 2 {
		t.Errorf("per-tenant gas metric missing: %v", m)
	}
}

// TestQueuedGaugeSettlesToZero is the queued-gauge regression: after
// any burst — including sheds and early returns — the scheduler's
// queued and running gauges must settle back to exactly zero.
func TestQueuedGaugeSettlesToZero(t *testing.T) {
	s := New(Config{SchedWorkers: 2, QueueDepth: 2, ReqTimeout: 5 * time.Second})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, ts, "/run", Request{
				Source: "(defun sq (x) (* x x))", Fn: "sq", Args: []string{"4"}})
		}()
	}
	wg.Wait()
	m := s.Metrics()
	if m["slcd_sched_queued"] != 0 || m["slcd_sched_running"] != 0 {
		t.Errorf("slcd_sched_queued = %v, slcd_sched_running = %v after the burst drained, want 0",
			m["slcd_sched_queued"], m["slcd_sched_running"])
	}
}

// TestSchedMetricsExposed: scheduler counters and per-tenant labeled
// series surface through the daemon metrics snapshot, which carries the
// scheduler's running/queued gauges under their own names only.
func TestSchedMetricsExposed(t *testing.T) {
	s := New(Config{SchedWorkers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	post(t, ts, "/run", Request{
		Source: "(defun sq (x) (* x x))", Fn: "sq", Args: []string{"3"}, Tenant: "acme"})

	m := s.Metrics()
	if m["slcd_sched_submitted_total"] < 1 || m["slcd_sched_completed_total"] < 1 {
		t.Errorf("sched counters missing: %v", m)
	}
	if m["slcd_sched_workers"] != 1 {
		t.Errorf("slcd_sched_workers = %v", m["slcd_sched_workers"])
	}
	if _, ok := m[`slcd_sched_tenant_cycles_total{tenant="acme"}`]; !ok {
		t.Errorf("per-tenant labeled series missing from metrics: %v", m)
	}
	for _, alias := range []string{"slcd_inflight", "slcd_queued"} {
		if _, ok := m[alias]; ok {
			t.Errorf("%s still exported next to slcd_sched_running/slcd_sched_queued", alias)
		}
	}
}
