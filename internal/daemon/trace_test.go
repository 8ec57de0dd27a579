package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// loopSrc conses garbage in a loop: under a small heap budget the
// collector runs repeatedly.
const loopSrc = `
(defun churn (n)
  (prog (i)
    (setq i 0)
   loop
    (cons i i)
    (setq i (+ i 1))
    (if (< i n) (go loop))
    (return i)))`

// TestTraceparentGenerated: a request without a traceparent header gets
// a fresh trace id, echoed in both the response body and the response
// traceparent header.
func TestTraceparentGenerated(t *testing.T) {
	s := New(Config{SchedWorkers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, resp, hdr := post(t, ts, "/compile", Request{Source: "(defun a (x) x)"})
	if len(resp.TraceID) != 32 {
		t.Fatalf("trace_id = %q, want 32 hex chars", resp.TraceID)
	}
	tp := hdr.Get("traceparent")
	if !strings.HasPrefix(tp, "00-"+resp.TraceID+"-") || !strings.HasSuffix(tp, "-01") {
		t.Errorf("traceparent header %q does not carry trace id %q", tp, resp.TraceID)
	}
}

// TestTraceparentAccepted: an incoming W3C traceparent is adopted, so
// the caller's trace id links through the daemon.
func TestTraceparentAccepted(t *testing.T) {
	s := New(Config{SchedWorkers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const incoming = "4bf92f3577b34da6a3ce929d0e0e4736"
	body, _ := json.Marshal(Request{Source: "(defun a (x) x)"})
	req, _ := http.NewRequest("POST", ts.URL+"/compile", bytes.NewReader(body))
	req.Header.Set("traceparent", "00-"+incoming+"-00f067aa0ba902b7-01")
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != incoming {
		t.Errorf("trace_id = %q, want adopted %q", resp.TraceID, incoming)
	}

	// Malformed traceparent values are ignored, not adopted.
	for _, bad := range []string{"junk", "00-zzzz-espan-01", "00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01"} {
		if got := ParseTraceparent(bad); got != "" {
			t.Errorf("ParseTraceparent(%q) = %q, want rejection", bad, got)
		}
	}
}

// TestOneTraceLinksEverything is the acceptance-criteria test: a single
// /run?trace=1 request's trace id must appear on (1) its daemon span in
// the ring, (2) its flight events including GC pauses, and (3) a valid per-request Chrome trace containing those
// runtime instants.
func TestOneTraceLinksEverything(t *testing.T) {
	// The small heap budget makes churn's discarded conses trigger
	// collections.
	s := New(Config{SchedWorkers: 1, MaxHeapWords: 4096})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, resp, _ := post(t, ts, "/run?trace=1", Request{
		Source: loopSrc, Fn: "churn", Args: []string{"10000"},
		Tenant: "acme",
	})
	if code != http.StatusOK || !resp.OK {
		t.Fatalf("run: status %d, resp %+v", code, resp)
	}
	tid := resp.TraceID
	if tid == "" {
		t.Fatal("no trace id")
	}

	// (1) the daemon span carries the trace id and the tenant labels.
	s.mu.Lock()
	var sp *span
	for i := range s.ring {
		if s.ring[i].TraceID == tid {
			sp = &s.ring[i]
		}
	}
	s.mu.Unlock()
	if sp == nil {
		t.Fatal("no span in ring with the request's trace id")
	}
	if sp.Tenant != "acme" || sp.StartMonoNs < 0 {
		t.Errorf("span labels: %+v", sp)
	}

	// (2) flight events: lifecycle + GC pause, all on this trace id.
	evs := s.flight.Snapshot(obs.Filter{Trace: tid})
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	for _, want := range []string{obs.EvReqStart, obs.EvReqFinish, obs.EvGCPause} {
		if kinds[want] == 0 {
			t.Errorf("no %s event for trace %s (kinds: %v)", want, tid, kinds)
		}
	}

	// (3) the embedded Chrome trace validates and contains the runtime
	// instants next to compile phase spans.
	if len(resp.Trace) == 0 {
		t.Fatal("no embedded trace despite ?trace=1")
	}
	sum, err := obs.ValidateTrace(resp.Trace)
	if err != nil {
		t.Fatalf("embedded trace invalid: %v", err)
	}
	if sum.Spans == 0 || sum.Instants == 0 {
		t.Errorf("trace has %d spans, %d instants; want both > 0", sum.Spans, sum.Instants)
	}
	if !bytes.Contains(resp.Trace, []byte(`"gc-pause"`)) {
		t.Error("trace lacks the gc-pause runtime instant")
	}
}

// TestMetricsHistograms: /metrics (via the registry) exposes real
// Prometheus histogram series for request latency and eval cycles.
func TestMetricsHistograms(t *testing.T) {
	s := New(Config{SchedWorkers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	reg := obs.NewRegistry()
	s.Register(reg)
	dbg := httptest.NewServer(obs.NewDebugMux(reg, s.RegisterDebug))
	defer dbg.Close()

	post(t, ts, "/run", Request{
		Source: `(defun sq (x) (* x x))`, Fn: "sq", Args: []string{"9"},
	})

	r, err := http.Get(dbg.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(r.Body)
	out := buf.String()
	for _, want := range []string{
		"# TYPE slcd_request_seconds histogram",
		`slcd_request_seconds_bucket{le="+Inf"} 1`,
		"slcd_request_seconds_count 1",
		"# TYPE slcd_eval_cycles histogram",
		"slcd_eval_cycles_count 1",
		"# TYPE slcd_compile_phase_seconds histogram",
		"# TYPE slcd_tier_call_cache_fills_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in /metrics:\n%s", want, out)
		}
	}
}

// TestDebugEventsEndpoint: the daemon's flight recorder serves filtered
// events over /debug/events.
func TestDebugEventsEndpoint(t *testing.T) {
	s := New(Config{SchedWorkers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	reg := obs.NewRegistry()
	s.Register(reg)
	dbg := httptest.NewServer(obs.NewDebugMux(reg, s.RegisterDebug))
	defer dbg.Close()

	_, resp, _ := post(t, ts, "/compile", Request{Source: "(defun a (x) x)"})

	r, err := http.Get(dbg.URL + "/debug/events?kind=req-finish&trace=" + resp.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var dump struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.NewDecoder(r.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) != 1 || dump.Events[0].Kind != obs.EvReqFinish || dump.Events[0].Trace != resp.TraceID {
		t.Errorf("filtered events = %+v", dump.Events)
	}
	if dump.Events[0].DurNs <= 0 {
		t.Errorf("req-finish has no duration: %+v", dump.Events[0])
	}
}

// TestShedRecordsFlightEvent: load shedding leaves a warn-severity
// flight event carrying the shed request's trace id.
func TestShedRecordsFlightEvent(t *testing.T) {
	// One worker, a queue of one: saturate with slow requests, then
	// overflow. The spinners hold their slots until the 5s deadline, far
	// longer than the shed probe needs.
	s := New(Config{SchedWorkers: 1, QueueDepth: 1, ReqTimeout: 5 * time.Second})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Fill the worker and the queue with spinning requests, and wait
	// until both admission slots are actually held.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, ts, "/run", Request{Source: spinSrc, Fn: "spin", Args: []string{"1"}})
		}()
	}
	defer wg.Wait()
	resident := func() int {
		st := s.sched.Stats()
		return st.Running + st.Queued
	}
	deadline := time.Now().Add(4 * time.Second)
	for resident() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("spinners never filled the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	code, resp, _ := post(t, ts, "/compile", Request{Source: "(defun a (x) x)"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("expected 429 with a full queue, got %d", code)
	}
	evs := s.flight.Snapshot(obs.Filter{Kind: obs.EvLoadShed, Trace: resp.TraceID})
	if len(evs) != 1 || evs[0].Sev != obs.SevWarn || evs[0].Reason != shedSaturated {
		t.Errorf("shed events = %+v", evs)
	}
}

// TestDrainShedRecordsReason: a request refused because the server is
// draining leaves a load-shed flight event whose reason says so, and
// does not count as a saturation shed.
func TestDrainShedRecordsReason(t *testing.T) {
	s := New(Config{SchedWorkers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, resp, _ := post(t, ts, "/run", Request{Source: "(defun a (x) x)", Fn: "a", Args: []string{"1"}})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("request to a drained server got %d, want 503", code)
	}
	evs := s.Flight().Snapshot(obs.Filter{Kind: obs.EvLoadShed, Trace: resp.TraceID})
	if len(evs) != 1 || evs[0].Reason != shedDraining || evs[0].Sev != obs.SevWarn {
		t.Errorf("draining shed events = %+v", evs)
	}
	if st := s.Stats(); st.Shed != 0 {
		t.Errorf("draining 503 counted in slcd_requests_shed: Shed = %d", st.Shed)
	}
}
