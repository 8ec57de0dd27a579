// Package sched is the daemon's cooperative M:N machine scheduler: it
// multiplexes an unbounded population of in-flight Lisp programs (each
// a goroutine driving one s1.Machine) over a fixed pool of worker
// slots, preempting at the safepoints the simulator already has — the
// interruptEvery poll in Machine.Run, GC-check sites, and lowered-block
// exits, all of which funnel into Machine.OnSafepoint.
//
// Three mechanisms compose (DESIGN.md §16):
//
//   - slots: at most Workers tasks execute simulator instructions at
//     once. Everyone else is parked — a goroutine blocked on a grant
//     channel, costing a few KB, which is what makes thousands of
//     resident programs per node cheap.
//   - fair queuing: waiting tasks queue per tenant, and slots are
//     granted by deficit round-robin over tenants. Each visit tops a
//     tenant's deficit up by one quantum; a grant spends a quantum, and
//     when the task yields the deficit is settled against the S-1
//     cycles it actually burned. A hot tenant with a thousand queued
//     spin loops therefore gets the same long-run cycle share as a
//     tenant submitting one short program at a time — it cannot starve
//     anyone, only itself.
//   - gas: each tenant owns a token bucket denominated in S-1 cycles —
//     the paper's timing-annotated opcodes give exact per-instruction
//     costs, so the meter charges precisely what the program executed,
//     not wall-clock noise. The bucket refills at GasRate cycles/sec up
//     to GasBurst; a task that drains it fails with a typed *GasError
//     (not a deadline), and new submissions from a dry tenant fail
//     fast at admission.
//
// The scheduler deals in plain goroutines and channels; it knows
// nothing of HTTP, machines, or observability. The daemon wires
// Machine.OnSafepoint to Task.Safepoint and translates events/stats.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Event kinds reported through Config.OnEvent. They match the obs
// flight-recorder constants by convention (obs.EvSched*).
const (
	// EvPark: a task entered its tenant queue to wait for a slot (at
	// admission, or again after a preemption).
	EvPark = "sched-park"
	// EvResume: a parked task was granted a slot; the event's duration
	// is the time it waited (the scheduling latency).
	EvResume = "sched-resume"
	// EvPreempt: a running task's quantum expired with other work
	// waiting (or stress mode forced it) and it yielded its slot.
	EvPreempt = "sched-preempt"
	// EvGasExhausted: a tenant's gas bucket ran dry and a task failed
	// with *GasError.
	EvGasExhausted = "gas-exhausted"
)

// ErrSaturated is returned by Run when the runnable backlog is at
// MaxQueued: the caller should shed (the daemon's 429).
var ErrSaturated = errors.New("sched: run queue full")

// GasError is the typed diagnostic for an exhausted tenant gas budget:
// the program did not crash and did not time out — it ran out of paid-
// for cycles. RetryAfter estimates when the bucket will hold Deficit
// cycles again at the configured refill rate.
type GasError struct {
	Tenant string
	// Deficit is how many cycles short the bucket was at failure.
	Deficit int64
	// RetryAfter estimates the refill time for the deficit.
	RetryAfter time.Duration
}

func (e *GasError) Error() string {
	return fmt.Sprintf("sched: tenant %q gas budget exhausted (%d cycles short; retry in %s)",
		e.Tenant, e.Deficit, e.RetryAfter.Round(time.Millisecond))
}

// Config sizes a Sched. Zero values take the documented defaults.
type Config struct {
	// Workers is the number of concurrent execution slots (default
	// GOMAXPROCS). This is the M in M:N — tasks beyond it are parked.
	Workers int
	// MaxQueued bounds admitted tasks beyond the worker slots, across
	// all tenants (default 1024): a new submission is shed with
	// ErrSaturated when running+queued tasks have reached
	// Workers+MaxQueued — the same admission bound as a semaphore of
	// Workers with a queue of MaxQueued behind it. Preempted tasks
	// re-enter the queue without this check (they were already
	// admitted) but still count toward it, so sustained
	// oversubscription pushes back on new admissions first.
	MaxQueued int
	// Quantum is the S-1 cycle timeslice a task may burn per grant
	// before it must yield to waiting work (default 2,000,000 — about a
	// millisecond of simulated execution). Also the DRR quantum.
	Quantum int64
	// GasRate is each tenant's gas refill in S-1 cycles per second
	// (0 = gas metering off). GasBurst is the bucket capacity (default
	// 10×GasRate); buckets start full.
	GasRate  int64
	GasBurst int64
	// Stress forces a yield at every safepoint — the differential
	// torture mode: every program parks and resumes constantly, so any
	// state the park/resume path fails to preserve shows up as a wrong
	// result.
	Stress bool
	// OnEvent, when non-nil, receives scheduler happenings (the Ev*
	// kinds above; d is the wait duration on EvResume). Called outside
	// the scheduler lock.
	OnEvent func(kind, tenant string, d time.Duration)
	// Clock is the time source (default time.Now; tests inject one to
	// make gas refill deterministic).
	Clock func() time.Time
}

// Stats is a snapshot of the scheduler's lifetime counters and gauges.
type Stats struct {
	Submitted    int64 `json:"submitted"`
	Completed    int64 `json:"completed"`
	Shed         int64 `json:"shed"`
	Preempts     int64 `json:"preempts"`
	Parks        int64 `json:"parks"`
	Resumes      int64 `json:"resumes"`
	GasExhausted int64 `json:"gas_exhausted"`
	Canceled     int64 `json:"canceled"`
	// Gauges.
	Queued   int           `json:"queued"`
	Running  int           `json:"running"`
	Tenants  int           `json:"tenants"`
	ByTenant []TenantStats `json:"by_tenant,omitempty"`
}

// TenantStats is one tenant's row in Stats.
type TenantStats struct {
	Name         string `json:"name"`
	Queued       int    `json:"queued"`
	Deficit      int64  `json:"deficit"`
	Gas          int64  `json:"gas"`
	Submitted    int64  `json:"submitted"`
	Preempts     int64  `json:"preempts"`
	GasExhausted int64  `json:"gas_exhausted"`
	CyclesUsed   int64  `json:"cycles_used"`
}

// task states (guarded by Sched.mu).
const (
	taskQueued = iota
	taskRunning
	taskCanceled
)

type tenant struct {
	name string
	q    []*Task
	// deficit is the DRR balance in cycles: topped up by one quantum per
	// round-robin visit, spent one quantum per grant, settled against
	// actual consumption at yield. Reset when the tenant goes inactive
	// (classic DRR — an idle tenant cannot hoard service).
	deficit int64
	active  bool
	// Gas bucket.
	gas        int64
	lastRefill time.Time
	// Counters for Stats.
	submitted    int64
	preempts     int64
	gasExhausted int64
	cyclesUsed   int64
}

// Task is one admitted execution's handle. Its Safepoint method has the
// exact shape of s1.Machine.OnSafepoint, which is how a machine's
// safepoints become scheduling and gas-metering points.
type Task struct {
	s   *Sched
	tn  *tenant
	ctx context.Context
	// grant is signaled (buffered, capacity 1) when the dispatcher hands
	// this task a slot.
	grant chan struct{}
	state int
	// sliceUsed counts cycles since the last grant (the quantum check);
	// uncharged counts cycles not yet flushed to the gas bucket. Both
	// are goroutine-local to the task.
	sliceUsed int64
	uncharged int64
	enqueued  time.Time
	gasErr    *GasError
}

// Sched is the scheduler. All mutable state is guarded by mu; queued
// mirrors the waiting-task count atomically so the safepoint fast path
// can ask "is anyone waiting?" without taking the lock.
type Sched struct {
	cfg Config

	mu      sync.Mutex
	free    int
	running int
	tenants map[string]*tenant
	// ring is the active-tenant list dispatch round-robins over.
	ring    []*tenant
	ringIdx int
	nqueued int
	stats   Stats

	queued atomic.Int64
}

// gasChunk is the local accumulation before a gas flush takes the lock:
// safepoints fire every ~256 instructions, far too often for a shared
// bucket, so tasks charge in ~64k-cycle strides (a tenant can overdraw
// by at most one chunk per task).
const gasChunk = 1 << 16

// New builds a scheduler.
func New(cfg Config) *Sched {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 1024
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 2_000_000
	}
	if cfg.GasBurst <= 0 {
		cfg.GasBurst = 10 * cfg.GasRate
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Sched{
		cfg:     cfg,
		free:    cfg.Workers,
		tenants: map[string]*tenant{},
	}
}

// Workers returns the configured slot count.
func (s *Sched) Workers() int { return s.cfg.Workers }

// Stress reports whether stress mode is on.
func (s *Sched) Stress() bool { return s.cfg.Stress }

// QueuedNow returns the current waiting-task count without locking.
func (s *Sched) QueuedNow() int64 { return s.queued.Load() }

// Stats returns a snapshot including per-tenant rows.
func (s *Sched) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Queued = s.nqueued
	st.Running = s.running
	st.Tenants = len(s.tenants)
	for _, tn := range s.tenants {
		st.ByTenant = append(st.ByTenant, TenantStats{
			Name: tn.name, Queued: len(tn.q), Deficit: tn.deficit,
			Gas: tn.gas, Submitted: tn.submitted, Preempts: tn.preempts,
			GasExhausted: tn.gasExhausted, CyclesUsed: tn.cyclesUsed,
		})
	}
	return st
}

// Metrics exposes the counters and gauges in the obs snapshot shape,
// including per-tenant labeled series.
func (s *Sched) Metrics() map[string]float64 {
	st := s.Stats()
	m := map[string]float64{
		"slcd_sched_submitted_total":     float64(st.Submitted),
		"slcd_sched_completed_total":     float64(st.Completed),
		"slcd_sched_shed_total":          float64(st.Shed),
		"slcd_sched_preempts_total":      float64(st.Preempts),
		"slcd_sched_parks_total":         float64(st.Parks),
		"slcd_sched_resumes_total":       float64(st.Resumes),
		"slcd_sched_gas_exhausted_total": float64(st.GasExhausted),
		"slcd_sched_canceled_total":      float64(st.Canceled),
		"slcd_sched_queued":              float64(st.Queued),
		"slcd_sched_running":             float64(st.Running),
		"slcd_sched_tenants":             float64(st.Tenants),
		"slcd_sched_workers":             float64(s.cfg.Workers),
	}
	for _, tn := range st.ByTenant {
		l := fmt.Sprintf("{tenant=%q}", tn.Name)
		m["slcd_sched_tenant_queued"+l] = float64(tn.Queued)
		m["slcd_sched_tenant_gas"+l] = float64(tn.Gas)
		m["slcd_sched_tenant_preempts_total"+l] = float64(tn.Preempts)
		m["slcd_sched_tenant_gas_exhausted_total"+l] = float64(tn.GasExhausted)
		m["slcd_sched_tenant_cycles_total"+l] = float64(tn.CyclesUsed)
	}
	return m
}

func (s *Sched) emit(kind, tenant string, d time.Duration) {
	if fn := s.cfg.OnEvent; fn != nil {
		fn(kind, tenant, d)
	}
}

// tenantLocked interns a tenant record.
func (s *Sched) tenantLocked(name string) *tenant {
	tn := s.tenants[name]
	if tn == nil {
		tn = &tenant{name: name, gas: s.cfg.GasBurst, lastRefill: s.cfg.Clock()}
		s.tenants[name] = tn
	}
	return tn
}

// refillLocked tops the tenant's bucket up for elapsed time.
func (s *Sched) refillLocked(tn *tenant) {
	rate := s.cfg.GasRate
	if rate <= 0 {
		return
	}
	now := s.cfg.Clock()
	add := int64(float64(now.Sub(tn.lastRefill)) * float64(rate) / float64(time.Second))
	if add <= 0 {
		return
	}
	if tn.gas+add >= s.cfg.GasBurst {
		tn.gas, tn.lastRefill = s.cfg.GasBurst, now
		return
	}
	// Advance by the time the credited cycles took to earn, not to now:
	// the fraction of a cycle earned since carries into the next refill,
	// so polling admission does not push a dry tenant past RetryAfter.
	tn.gas += add
	tn.lastRefill = tn.lastRefill.Add(time.Duration(float64(add) * float64(time.Second) / float64(rate)))
}

// gasErrLocked builds the typed failure for a bucket that is deficit
// cycles short.
func (s *Sched) gasErrLocked(tn *tenant, deficit int64) *GasError {
	retry := time.Duration(0)
	if s.cfg.GasRate > 0 {
		retry = time.Duration(float64(deficit) * float64(time.Second) / float64(s.cfg.GasRate))
	}
	tn.gasExhausted++
	s.stats.GasExhausted++
	return &GasError{Tenant: tn.name, Deficit: deficit, RetryAfter: retry}
}

// Run executes fn under the scheduler: it admits (or sheds), waits for
// a slot granted by fair queuing, and releases the slot when fn
// returns. fn receives the Task whose Safepoint method must be wired
// into the machine it drives; fn runs on the caller's goroutine. The
// returned error is fn's, or ErrSaturated / *GasError / ctx.Err() when
// the task never got to run (or was killed at a safepoint).
func (s *Sched) Run(ctx context.Context, tenantName string, fn func(*Task) error) error {
	if tenantName == "" {
		tenantName = "default"
	}
	s.mu.Lock()
	tn := s.tenantLocked(tenantName)
	tn.submitted++
	s.stats.Submitted++
	// Admission: a dry gas bucket fails fast with the typed error —
	// cheaper for everyone than scheduling a program that will die at
	// its first safepoint.
	if s.cfg.GasRate > 0 {
		s.refillLocked(tn)
		if tn.gas <= 0 {
			ge := s.gasErrLocked(tn, 1-tn.gas)
			s.mu.Unlock()
			s.emit(EvGasExhausted, tenantName, 0)
			return ge
		}
	}
	if s.running+s.nqueued >= s.cfg.Workers+s.cfg.MaxQueued {
		s.stats.Shed++
		s.mu.Unlock()
		return ErrSaturated
	}
	t := &Task{s: s, tn: tn, ctx: ctx, grant: make(chan struct{}, 1)}
	if err := s.acquire(t); err != nil {
		return err
	}
	err := fn(t)
	if t.gasErr != nil {
		// The machine surfaced the gas failure through its own error
		// plumbing; prefer the typed error.
		err = t.gasErr
	}
	s.finish(t)
	return err
}

// acquire takes a slot, parking the task in its tenant queue if none is
// free. Called with s.mu held; returns with it released.
func (s *Sched) acquire(t *Task) error {
	if s.free > 0 && s.nqueued == 0 {
		s.free--
		s.running++
		t.state = taskRunning
		s.mu.Unlock()
		return nil
	}
	s.parkLocked(t)
	s.mu.Unlock()
	s.emit(EvPark, t.tn.name, 0)
	return t.await()
}

// parkLocked enqueues t at its tenant's tail and activates the tenant.
func (s *Sched) parkLocked(t *Task) {
	t.state = taskQueued
	t.enqueued = s.cfg.Clock()
	t.tn.q = append(t.tn.q, t)
	if !t.tn.active {
		t.tn.active = true
		s.ring = append(s.ring, t.tn)
	}
	s.nqueued++
	s.queued.Store(int64(s.nqueued))
	s.stats.Parks++
}

// dispatchLocked grants free slots to queued tasks by deficit round-
// robin over active tenants. Visiting a tenant tops its deficit up by
// one quantum (bounded, so an idle stretch cannot bank unbounded
// service); each grant spends one quantum. Tenants with no waiting
// tasks leave the ring and forfeit their deficit.
func (s *Sched) dispatchLocked() {
	for s.free > 0 && s.nqueued > 0 {
		if s.ringIdx >= len(s.ring) {
			s.ringIdx = 0
		}
		tn := s.ring[s.ringIdx]
		// Drop canceled tasks from the head lazily.
		for len(tn.q) > 0 && tn.q[0].state == taskCanceled {
			tn.q = tn.q[1:]
		}
		if len(tn.q) == 0 {
			tn.active = false
			tn.deficit = 0
			s.ring = append(s.ring[:s.ringIdx], s.ring[s.ringIdx+1:]...)
			continue
		}
		if tn.deficit < s.cfg.Quantum {
			tn.deficit += s.cfg.Quantum
		}
		for s.free > 0 && len(tn.q) > 0 && tn.deficit >= s.cfg.Quantum {
			t := tn.q[0]
			tn.q = tn.q[1:]
			if t.state == taskCanceled {
				continue
			}
			tn.deficit -= s.cfg.Quantum
			s.nqueued--
			s.queued.Store(int64(s.nqueued))
			s.free--
			s.running++
			t.state = taskRunning
			t.grant <- struct{}{}
		}
		s.ringIdx++
	}
}

// await blocks until the dispatcher grants the task a slot or its
// context dies while it waits.
func (t *Task) await() error {
	s := t.s
	select {
	case <-t.grant:
		wait := s.cfg.Clock().Sub(t.enqueued)
		s.mu.Lock()
		s.stats.Resumes++
		s.mu.Unlock()
		t.sliceUsed = 0
		s.emit(EvResume, t.tn.name, wait)
		return nil
	case <-t.ctx.Done():
		s.mu.Lock()
		if t.state == taskRunning {
			// The grant raced our cancellation: we own a slot we will
			// never use — put it back and let someone else run.
			s.releaseLocked()
		} else {
			t.state = taskCanceled
			s.nqueued--
			s.queued.Store(int64(s.nqueued))
		}
		s.stats.Canceled++
		s.mu.Unlock()
		return t.ctx.Err()
	}
}

// releaseLocked frees the caller's slot and re-dispatches.
func (s *Sched) releaseLocked() {
	s.running--
	s.free++
	s.dispatchLocked()
}

// finish settles the task's accounting and releases its slot.
func (s *Sched) finish(t *Task) {
	t.flushGas()
	s.mu.Lock()
	s.settleLocked(t)
	s.releaseLocked()
	s.stats.Completed++
	s.mu.Unlock()
}

// settleLocked reconciles the DRR deficit against the cycles the task
// actually burned this grant: unused quantum is refunded, overrun is
// charged, so long-run shares track real S-1 cycles.
func (s *Sched) settleLocked(t *Task) {
	t.tn.deficit += s.cfg.Quantum - t.sliceUsed
	if t.tn.deficit > 2*s.cfg.Quantum {
		t.tn.deficit = 2 * s.cfg.Quantum
	}
	t.sliceUsed = 0
}

// Safepoint is the machine-side hook (the exact s1.Machine.OnSafepoint
// shape): it accumulates the cycle delta, flushes gas in chunks, and
// yields the slot when the quantum has expired and someone is waiting —
// or unconditionally under stress or an explicit preempt.
func (t *Task) Safepoint(cycles int64, preempted bool) error {
	t.sliceUsed += cycles
	t.uncharged += cycles
	if t.uncharged >= gasChunk {
		if err := t.flushGas(); err != nil {
			return err
		}
	}
	s := t.s
	if preempted || s.cfg.Stress ||
		(t.sliceUsed >= s.cfg.Quantum && s.queued.Load() > 0) {
		return t.yield()
	}
	return nil
}

// flushGas charges the accumulated cycles to the tenant bucket. Returns
// the typed *GasError when the bucket runs dry (and records it on the
// task so the daemon can classify the failure even after the machine
// has wrapped the error).
func (t *Task) flushGas() error {
	spend := t.uncharged
	t.uncharged = 0
	s := t.s
	if spend <= 0 {
		return nil
	}
	s.mu.Lock()
	t.tn.cyclesUsed += spend
	if s.cfg.GasRate <= 0 {
		s.mu.Unlock()
		return nil
	}
	s.refillLocked(t.tn)
	t.tn.gas -= spend
	if t.tn.gas > 0 {
		s.mu.Unlock()
		return nil
	}
	// The overdraft stays on the bucket as debt: admission refuses the
	// tenant until the refill has paid it off, which is exactly the
	// RetryAfter the error advertises.
	ge := s.gasErrLocked(t.tn, 1-t.tn.gas)
	s.mu.Unlock()
	t.gasErr = ge
	s.emit(EvGasExhausted, t.tn.name, 0)
	return ge
}

// yield gives the slot up, requeues the task at its tenant's tail, and
// blocks until granted again. Gas is flushed first so the DRR
// settlement sees the true consumption.
func (t *Task) yield() error {
	if err := t.flushGas(); err != nil {
		return err
	}
	s := t.s
	s.mu.Lock()
	s.settleLocked(t)
	s.stats.Preempts++
	t.tn.preempts++
	s.parkLocked(t)
	s.releaseLocked()
	s.mu.Unlock()
	s.emit(EvPreempt, t.tn.name, 0)
	s.emit(EvPark, t.tn.name, 0)
	return t.await()
}
