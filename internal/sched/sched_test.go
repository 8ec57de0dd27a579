package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSlotsBound: no more than Workers tasks execute concurrently, and
// everyone eventually runs.
func TestSlotsBound(t *testing.T) {
	s := New(Config{Workers: 2, MaxQueued: 100})
	var cur, peak, ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := s.Run(context.Background(), "t", func(tk *Task) error {
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				cur.Add(-1)
				ran.Add(1)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrency %d > 2 workers", p)
	}
	if ran.Load() != 20 {
		t.Errorf("ran %d of 20", ran.Load())
	}
	st := s.Stats()
	if st.Completed != 20 || st.Running != 0 || st.Queued != 0 {
		t.Errorf("stats after drain: %+v", st)
	}
}

// TestSaturationSheds: the MaxQueued backlog bound sheds with
// ErrSaturated instead of queuing unboundedly.
func TestSaturationSheds(t *testing.T) {
	s := New(Config{Workers: 1, MaxQueued: 2})
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Run(context.Background(), "t", func(tk *Task) error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	// Fill the queue.
	errs := make(chan error, 8)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- s.Run(context.Background(), "t", func(tk *Task) error { return nil })
		}()
	}
	// Wait until both are queued, then overflow.
	for s.QueuedNow() < 2 {
		time.Sleep(time.Millisecond)
	}
	if err := s.Run(context.Background(), "t", func(tk *Task) error { return nil }); !errors.Is(err, ErrSaturated) {
		t.Errorf("overflow submission: got %v, want ErrSaturated", err)
	}
	close(release)
	wg.Wait()
	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("shed = %d, want 1", st.Shed)
	}
}

// TestCancelWhileQueued: a queued task whose context dies leaves the
// queue cleanly and does not absorb a slot.
func TestCancelWhileQueued(t *testing.T) {
	s := New(Config{Workers: 1, MaxQueued: 10})
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Run(context.Background(), "t", func(tk *Task) error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- s.Run(ctx, "t", func(tk *Task) error { return nil })
	}()
	for s.QueuedNow() < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled task: got %v", err)
	}
	close(release)
	wg.Wait()
	// The slot must still be usable.
	if err := s.Run(context.Background(), "t", func(tk *Task) error { return nil }); err != nil {
		t.Errorf("post-cancel run: %v", err)
	}
	if st := s.Stats(); st.Queued != 0 || st.Running != 0 {
		t.Errorf("leaked queue/slot: %+v", st)
	}
}

// TestQuantumPreemption: a long task yields when its quantum expires
// with work waiting, so a short task gets through long before the hog
// finishes.
func TestQuantumPreemption(t *testing.T) {
	s := New(Config{Workers: 1, MaxQueued: 10, Quantum: 1000})
	shortDone := make(chan struct{})
	hogStarted := make(chan struct{})
	var order []string
	var mu sync.Mutex
	note := func(s string) { mu.Lock(); order = append(order, s); mu.Unlock() }

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := s.Run(context.Background(), "hog", func(tk *Task) error {
			close(hogStarted)
			// Burn quanta at safepoints until the short task has finished
			// (the starvation timeout below catches the case where it
			// never does).
			for {
				select {
				case <-shortDone:
					note("hog")
					return nil
				default:
				}
				if err := tk.Safepoint(1000, false); err != nil {
					return err
				}
			}
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-hogStarted
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := s.Run(context.Background(), "short", func(tk *Task) error {
			note("short")
			close(shortDone)
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-shortDone:
	case <-time.After(5 * time.Second):
		t.Fatal("short task starved behind the hog")
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "short" {
		t.Errorf("completion order = %v, want short first", order)
	}
	if st := s.Stats(); st.Preempts == 0 {
		t.Error("hog was never preempted")
	}
}

// TestDRRFairness: two tenants with very different task shapes get
// comparable cycle shares — the many-big-tasks tenant cannot crowd out
// the steady small one.
func TestDRRFairness(t *testing.T) {
	s := New(Config{Workers: 1, MaxQueued: 200, Quantum: 1000})
	var hogCycles, fairCycles atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Hot tenant: floods the queue with long programs.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Run(context.Background(), "hog", func(tk *Task) error {
					for j := 0; j < 50; j++ {
						select {
						case <-stop:
							return nil
						default:
						}
						if err := tk.Safepoint(1000, false); err != nil {
							return err
						}
						hogCycles.Add(1000)
					}
					return nil
				})
			}
		}()
	}
	// Fair tenant: a single submitter of same-sized programs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Run(context.Background(), "fair", func(tk *Task) error {
				for j := 0; j < 50; j++ {
					select {
					case <-stop:
						return nil
					default:
					}
					if err := tk.Safepoint(1000, false); err != nil {
						return err
					}
					fairCycles.Add(1000)
				}
				return nil
			})
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	h, f := hogCycles.Load(), fairCycles.Load()
	if f == 0 {
		t.Fatal("fair tenant starved completely")
	}
	// With DRR both tenants should get comparable service; allow a wide
	// margin for scheduling noise but catch starvation (the pre-DRR
	// behavior gives the flooder ~4x or worse).
	if ratio := float64(h) / float64(f); ratio > 3 {
		t.Errorf("hog/fair cycle ratio = %.1f (hog %d, fair %d): fair tenant starved", ratio, h, f)
	}
}

// TestGasExhaustion: a tenant that burns past its bucket gets the typed
// *GasError, and subsequent submissions fail fast at admission until
// the bucket refills.
func TestGasExhaustion(t *testing.T) {
	now := time.Unix(0, 0)
	var clockMu sync.Mutex
	clock := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now }
	advance := func(d time.Duration) { clockMu.Lock(); now = now.Add(d); clockMu.Unlock() }

	s := New(Config{Workers: 1, GasRate: 1000, GasBurst: 100_000, Clock: clock})
	err := s.Run(context.Background(), "t", func(tk *Task) error {
		for i := 0; i < 10; i++ {
			if err := tk.Safepoint(50_000, false); err != nil {
				return err
			}
		}
		return nil
	})
	var ge *GasError
	if !errors.As(err, &ge) {
		t.Fatalf("got %v, want *GasError", err)
	}
	if ge.Tenant != "t" || ge.RetryAfter <= 0 {
		t.Errorf("gas error = %+v", ge)
	}
	// Admission fails fast while dry.
	if err := s.Run(context.Background(), "t", func(tk *Task) error { return nil }); !errors.As(err, &ge) {
		t.Errorf("dry-bucket admission: got %v, want *GasError", err)
	}
	// Another tenant is unaffected.
	if err := s.Run(context.Background(), "other", func(tk *Task) error { return nil }); err != nil {
		t.Errorf("other tenant: %v", err)
	}
	// Refill restores service.
	advance(10 * time.Second)
	if err := s.Run(context.Background(), "t", func(tk *Task) error {
		return tk.Safepoint(5000, false)
	}); err != nil {
		t.Errorf("after refill: %v", err)
	}
	if st := s.Stats(); st.GasExhausted < 2 {
		t.Errorf("gas_exhausted = %d, want >= 2", st.GasExhausted)
	}
}

// TestGasDebtHonorsRetryAfter: an overdraft is debt, not forgiven when
// the flush drains the bucket. Admission must keep refusing until the
// advertised RetryAfter has elapsed on the clock, then admit. The final
// admission is checked at RetryAfter plus a nanosecond: RetryAfter is
// truncated to whole nanoseconds, a difference clients never see (the
// daemon's Retry-After header is whole seconds plus one).
func TestGasDebtHonorsRetryAfter(t *testing.T) {
	for _, deficit := range []int64{62_001, 1001} {
		now := time.Unix(0, 0)
		var clockMu sync.Mutex
		clock := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now }
		advance := func(d time.Duration) { clockMu.Lock(); now = now.Add(d); clockMu.Unlock() }

		// A 70_000-cycle bucket overdrawn by one safepoint's charge
		// (over gasChunk, so it is flushed at the safepoint).
		s := New(Config{Workers: 1, GasRate: 1000, GasBurst: 70_000, Clock: clock})
		err := s.Run(context.Background(), "t", func(tk *Task) error {
			return tk.Safepoint(70_000+deficit-1, false)
		})
		var ge *GasError
		if !errors.As(err, &ge) {
			t.Fatalf("got %v, want *GasError", err)
		}
		if ge.Deficit != deficit || ge.RetryAfter != time.Duration(deficit)*time.Millisecond {
			t.Fatalf("gas error = %+v, want deficit %d and RetryAfter %dms", ge, deficit, deficit)
		}
		retry, start := ge.RetryAfter, clock()
		noop := func(tk *Task) error { return nil }
		for _, elapsed := range []time.Duration{time.Millisecond, retry / 2, retry - time.Millisecond} {
			advance(start.Add(elapsed).Sub(clock()))
			if err := s.Run(context.Background(), "t", noop); !errors.As(err, &ge) {
				t.Fatalf("admitted %v after the overdraft, before RetryAfter %v: %v", elapsed, retry, err)
			}
		}
		advance(start.Add(retry + time.Nanosecond).Sub(clock()))
		if err := s.Run(context.Background(), "t", noop); err != nil {
			t.Errorf("deficit %d: refused once RetryAfter had elapsed: %v", deficit, err)
		}
	}
}

// TestStressYieldsEverySafepoint: stress mode parks at every safepoint
// and still completes correctly.
func TestStressYieldsEverySafepoint(t *testing.T) {
	s := New(Config{Workers: 2, Stress: true})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := s.Run(context.Background(), "t", func(tk *Task) error {
				for j := 0; j < 25; j++ {
					if err := tk.Safepoint(100, false); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Preempts < 8*25 {
		t.Errorf("stress preempts = %d, want >= 200", st.Preempts)
	}
	if st.Queued != 0 || st.Running != 0 {
		t.Errorf("leaked state: %+v", st)
	}
}

// TestExplicitPreempt: the preempted=true path (a Machine.Preempt
// observed at a safepoint) yields exactly like a quantum expiry.
func TestExplicitPreempt(t *testing.T) {
	s := New(Config{Workers: 1})
	err := s.Run(context.Background(), "t", func(tk *Task) error {
		return tk.Safepoint(10, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Preempts != 1 || st.Resumes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestEventsAndMetrics: the event hook fires with the documented kinds
// and the metrics map carries the per-tenant series.
func TestEventsAndMetrics(t *testing.T) {
	var mu sync.Mutex
	kinds := map[string]int{}
	s := New(Config{Workers: 1, Stress: true, OnEvent: func(kind, tenant string, d time.Duration) {
		mu.Lock()
		kinds[kind]++
		mu.Unlock()
	}})
	s.Run(context.Background(), "acme", func(tk *Task) error {
		return tk.Safepoint(10, false)
	})
	mu.Lock()
	defer mu.Unlock()
	for _, k := range []string{EvPreempt, EvPark, EvResume} {
		if kinds[k] == 0 {
			t.Errorf("no %s event", k)
		}
	}
	m := s.Metrics()
	if m["slcd_sched_completed_total"] != 1 {
		t.Errorf("completed metric = %v", m["slcd_sched_completed_total"])
	}
	if _, ok := m[`slcd_sched_tenant_cycles_total{tenant="acme"}`]; !ok {
		t.Errorf("no per-tenant cycles metric: %v", m)
	}
}
