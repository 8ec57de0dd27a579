package opt

import (
	"testing"
	"time"

	"repro/internal/convert"
	"repro/internal/tree"
)

// TestWatchdogTripsAndLatches: a vanishing budget expires before the
// first pass completes, TimedOut latches, and the (abandoned) result is
// still a structurally valid tree — the caller discards it and fails
// the unit, never emitting "partially optimized" code.
func TestWatchdogTripsAndLatches(t *testing.T) {
	c := convert.New()
	n, err := c.ConvertForm(mustRead(
		"(lambda (x) (do ((i 0 (+ i 1)) (acc 0 (+ acc (* i x)))) ((> i 100) acc)))"))
	if err != nil {
		t.Fatal(err)
	}
	oo := DefaultOptions()
	oo.Watchdog = time.Nanosecond
	o := New(oo)
	out := o.Optimize(n)
	if !o.TimedOut() {
		t.Fatal("1ns watchdog did not trip")
	}
	if err := tree.Validate(out); err != nil {
		t.Errorf("abandoned tree is invalid: %v", err)
	}
}

// TestWatchdogOffByDefault: without a budget the fixpoint runs to
// completion and TimedOut stays false.
func TestWatchdogOffByDefault(t *testing.T) {
	_, o := optimizeSrc(t, "(lambda (x) (+ x (* 1 x)))")
	if o.TimedOut() {
		t.Error("TimedOut with no watchdog configured")
	}
}

// TestWatchdogGenerousBudgetCompletes: a budget far larger than the
// work lets the fixpoint finish normally.
func TestWatchdogGenerousBudgetCompletes(t *testing.T) {
	c := convert.New()
	n, err := c.ConvertForm(mustRead("(lambda (x) (+ x (* 1 x)))"))
	if err != nil {
		t.Fatal(err)
	}
	oo := DefaultOptions()
	oo.Watchdog = time.Minute
	o := New(oo)
	o.Optimize(n)
	if o.TimedOut() {
		t.Error("generous watchdog tripped")
	}
}
