package daemon

// BenchmarkScheduler is the sessions-per-node and scheduler-overhead
// suite behind BENCH_sched.json (scripts/bench-runtime.sh):
//
//   - resident-sessions: creates b.N resident sessions on one server and
//     reports the marginal heap bytes each parked session pins plus the
//     creation rate — the "10,000 resident sessions on one node" figure
//     is this benchmark at -benchtime=10000x.
//   - requests/{on,stress}: end-to-end /run requests through the
//     scheduler, normally and with a forced yield at every safepoint;
//     stress/on bounds the worst-case park-resume cost.
//
// Like the runtime kernels, only within-invocation ratios are
// meaningful on shared hardware.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// rawPost is post() without the *testing.T plumbing, for benchmarks.
func rawPost(ts *httptest.Server, path string, req Request) (int, Response) {
	body, _ := json.Marshal(req)
	hr, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, Response{}
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return 0, Response{}
	}
	return hr.StatusCode, resp
}

func benchServer(b *testing.B, cfg Config) (*Server, *httptest.Server) {
	b.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	b.Cleanup(ts.Close)
	return s, ts
}

func benchPost(b *testing.B, ts *httptest.Server, path string, req Request) Response {
	b.Helper()
	// post() takes *testing.T; duplicate the little that is needed.
	code, resp := rawPost(ts, path, req)
	if code == 0 {
		b.Fatal("request failed")
	}
	return resp
}

func BenchmarkScheduler(b *testing.B) {
	b.Run("resident-sessions", func(b *testing.B) {
		s, ts := benchServer(b, Config{SchedWorkers: 4, MaxSessions: 1 << 20,
			ReqTimeout: 30 * time.Second})
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp := benchPost(b, ts, "/session", Request{Source: sessionSetupSrc})
			if resp.Session == "" {
				b.Fatalf("create %d failed: %+v", i, resp)
			}
		}
		b.StopTimer()
		if got := s.sessions.count(); got != b.N {
			b.Fatalf("resident = %d, want %d", got, b.N)
		}
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		if after.HeapAlloc > before.HeapAlloc {
			b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(b.N), "bytes/session")
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "sessions/sec")
	})

	req := Request{
		Source: `(defun count (n) (if (= n 0) 99 (count (- n 1))))`,
		Fn:     "count", Args: []string{"20000"},
	}
	defer func(prev bool) { stressSched = prev }(stressSched)
	for _, mode := range []string{"on", "stress"} {
		b.Run("requests/"+mode, func(b *testing.B) {
			stressSched = mode == "stress"
			_, ts := benchServer(b, Config{SchedWorkers: 4, QueueDepth: 1 << 16,
				ReqTimeout: 30 * time.Second})
			start := time.Now()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					resp := benchPost(b, ts, "/run", req)
					if !resp.OK {
						b.Fatalf("request failed: %+v", resp)
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "req/sec")
		})
	}
}
