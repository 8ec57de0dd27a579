package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestFlightRecordAndSnapshot(t *testing.T) {
	f := NewFlight(64)
	f.Record(Event{Kind: EvReqStart, Trace: "t1", Unit: "/run"})
	f.Record(Event{Kind: EvGCPause, Trace: "t1", DurNs: 1234})
	f.Record(Event{Kind: EvLoadShed, Trace: "t2"})

	all := f.Snapshot(Filter{})
	if len(all) != 3 {
		t.Fatalf("snapshot has %d events, want 3", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatalf("snapshot not in sequence order: %v", all)
		}
		if all[i].MonoNs < all[i-1].MonoNs {
			t.Fatalf("monotonic clock went backwards: %v", all)
		}
	}
	// Severity defaulting: load-shed is warn, the others info.
	if all[0].Sev != SevInfo || all[2].Sev != SevWarn {
		t.Errorf("severity defaults wrong: %q %q", all[0].Sev, all[2].Sev)
	}

	if got := f.Snapshot(Filter{Trace: "t1"}); len(got) != 2 {
		t.Errorf("trace filter: %d events, want 2", len(got))
	}
	if got := f.Snapshot(Filter{Kind: EvGCPause}); len(got) != 1 || got[0].DurNs != 1234 {
		t.Errorf("kind filter: %+v", got)
	}
	if got := f.Snapshot(Filter{MinSev: SevWarn}); len(got) != 1 || got[0].Kind != EvLoadShed {
		t.Errorf("sev filter: %+v", got)
	}
	if got := f.Snapshot(Filter{Max: 1}); len(got) != 1 || got[0].Kind != EvLoadShed {
		t.Errorf("max filter should keep the most recent: %+v", got)
	}
}

func TestFlightNilSafe(t *testing.T) {
	var f *Flight
	f.Record(Event{Kind: EvPanic}) // must not panic
	if f.Snapshot(Filter{}) != nil {
		t.Error("nil snapshot should be nil")
	}
	if f.Len() != 0 {
		t.Error("nil Len should be 0")
	}
	if err := f.WriteJSON(&bytes.Buffer{}, Filter{}); err == nil {
		t.Error("nil WriteJSON should error")
	}
}

func TestFlightWraparound(t *testing.T) {
	f := NewFlight(8) // rounds to 16 slots
	const n = 100
	for i := 0; i < n; i++ {
		f.Record(Event{Kind: EvReqFinish, Unit: "u"})
	}
	got := f.Snapshot(Filter{})
	if len(got) != 16 {
		t.Fatalf("resident events = %d, want ring size 16", len(got))
	}
	// The survivors are exactly the newest 16.
	if got[0].Seq != n-16+1 || got[len(got)-1].Seq != n {
		t.Errorf("survivor range [%d, %d], want [%d, %d]",
			got[0].Seq, got[len(got)-1].Seq, n-16+1, n)
	}

	var buf bytes.Buffer
	if err := f.WriteJSON(&buf, Filter{}); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Recorded uint64  `json:"recorded"`
		Dropped  uint64  `json:"dropped"`
		Events   []Event `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Recorded != n || dump.Dropped != n-16 || len(dump.Events) != 16 {
		t.Errorf("dump recorded=%d dropped=%d events=%d", dump.Recorded, dump.Dropped, len(dump.Events))
	}
}

// TestFlightConcurrent hammers the ring with parallel writers while a
// reader snapshots and dumps continuously; run under -race this is the
// lock-freedom proof (no torn events, no data races).
func TestFlightConcurrent(t *testing.T) {
	f := NewFlight(128)
	const writers = 8
	const perWriter = 1000

	stop := make(chan struct{})
	var readerWg sync.WaitGroup
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := f.Snapshot(Filter{})
			for i := 1; i < len(evs); i++ {
				if evs[i].Seq <= evs[i-1].Seq {
					t.Error("snapshot out of order during writes")
					return
				}
			}
			var buf bytes.Buffer
			if err := f.WriteJSON(&buf, Filter{Kind: EvGCPause}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kinds := []string{EvGCPause, EvDeadline, EvReqFinish, EvCacheHit}
			for i := 0; i < perWriter; i++ {
				f.Record(Event{Kind: kinds[i%len(kinds)], Unit: "w"})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWg.Wait()

	if got := f.Len(); got != writers*perWriter {
		t.Errorf("recorded %d events, want %d", got, writers*perWriter)
	}
	// After the dust settles every resident slot holds a valid event.
	evs := f.Snapshot(Filter{})
	if len(evs) != 128 {
		t.Errorf("resident = %d, want 128", len(evs))
	}
	for _, ev := range evs {
		if ev.Kind == "" || ev.Seq == 0 || ev.Sev == "" {
			t.Fatalf("torn event: %+v", ev)
		}
	}
}

func TestFlightHTTP(t *testing.T) {
	f := NewFlight(64)
	f.Record(Event{Kind: EvReqFinish, Trace: "abc"})
	f.Record(Event{Kind: EvLoadShed, Trace: "def"})

	req := httptest.NewRequest("GET", "/debug/events?kind=load-shed", nil)
	w := httptest.NewRecorder()
	f.ServeHTTP(w, req)
	body := w.Body.String()
	if !strings.Contains(body, `"load-shed"`) || strings.Contains(body, `"req-finish"`) {
		t.Errorf("kind filter not applied: %s", body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}

	req = httptest.NewRequest("GET", "/debug/events?trace=abc", nil)
	w = httptest.NewRecorder()
	f.ServeHTTP(w, req)
	if !strings.Contains(w.Body.String(), `"abc"`) || strings.Contains(w.Body.String(), `"def"`) {
		t.Errorf("trace filter not applied: %s", w.Body.String())
	}
}
