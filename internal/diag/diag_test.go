package diag

import (
	"errors"
	"strings"
	"testing"
)

func TestDiagnosticFormat(t *testing.T) {
	d := &Diagnostic{Severity: Error, Unit: "square", Phase: "optimize",
		Line: 3, Col: 1, Worker: 2, Msg: "panic: boom"}
	got := d.Error()
	for _, want := range []string{"3:1:", "error", "square", "optimize", "boom", "worker 2"} {
		if !strings.Contains(got, want) {
			t.Errorf("diagnostic %q missing %q", got, want)
		}
	}
	w := &Diagnostic{Severity: Warning, Phase: "cache", Msg: "corrupt entry"}
	if !strings.Contains(w.Error(), "warning") {
		t.Errorf("warning rendered as %q", w.Error())
	}
}

func TestListCap(t *testing.T) {
	l := NewList(2)
	for i := 0; i < 5; i++ {
		l.Add(&Diagnostic{Severity: Error, Msg: "e"})
	}
	l.Add(&Diagnostic{Severity: Warning, Msg: "w"})
	if l.Errors() != 5 {
		t.Errorf("Errors() = %d, want 5", l.Errors())
	}
	if l.Dropped() != 3 {
		t.Errorf("Dropped() = %d, want 3", l.Dropped())
	}
	// 2 stored errors + the warning (warnings are never capped).
	if l.Len() != 3 {
		t.Errorf("Len() = %d, want 3", l.Len())
	}
	if !strings.Contains(l.Error(), "past -max-errors") {
		t.Errorf("summary %q should note the dropped errors", l.Error())
	}
}

func TestNilListIsSafe(t *testing.T) {
	var l *List
	l.Add(&Diagnostic{Severity: Error, Msg: "e"})
	if l.HasErrors() || l.Len() != 0 || l.All() != nil {
		t.Error("nil list should be inert")
	}
}

func TestFromPanic(t *testing.T) {
	d := FromPanic("kaboom", "rep", "f", 3, "(defun f (x) x)")
	if d.Severity != Error || d.Phase != "rep" || d.Worker != 3 {
		t.Errorf("bad diagnostic: %+v", d)
	}
	if !strings.Contains(d.Msg, "kaboom") || !strings.Contains(d.Msg, "(defun f (x) x)") {
		t.Errorf("msg %q", d.Msg)
	}
	inj := FromPanic(&InjectedFault{Phase: "optimize", Unit: "f", Kind: KindPanic}, "", "f", 1, "")
	if inj.Phase != "optimize" {
		t.Errorf("injected fault should supply the phase, got %q", inj.Phase)
	}
	var ij *InjectedFault
	if !errors.As(inj, &ij) {
		t.Error("underlying InjectedFault should unwrap")
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("optimize:defun=exptl:panic;rep:unit=g:error")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Fire("optimize", "other"); err != nil {
		t.Errorf("non-matching unit fired: %v", err)
	}
	if err := p.Fire("rep", "g"); err == nil {
		t.Error("error fault should fire")
	}
	func() {
		defer func() {
			r := recover()
			ij, ok := r.(*InjectedFault)
			if !ok || ij.Unit != "exptl" {
				t.Errorf("want InjectedFault panic, got %v", r)
			}
		}()
		p.Fire("optimize", "exptl")
		t.Error("panic fault did not panic")
	}()

	for _, bad := range []string{"optimize", "a:b", "x:defun=f:explode", "cache:*:corrupt", "x:who=f:panic", ":*:panic"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) should fail", bad)
		}
	}
	if p, err := ParsePlan("  "); p != nil || err != nil {
		t.Error("blank plan should be nil, nil")
	}
	var nilPlan *Plan
	if nilPlan.Fire("x", "y") != nil {
		t.Error("nil plan must be inert")
	}
}

func TestPlanDecisionKinds(t *testing.T) {
	p, err := ParsePlan("disk:*:cache-write;request:unit=slow:deadline")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Should(KindCacheWrite, "disk", "anything") {
		t.Error("wildcard cache-write fault should match")
	}
	if p.Should(KindCacheWrite, "cache", "anything") {
		t.Error("cache-write fault is disk-phase only in this plan")
	}
	if !p.Should(KindDeadline, "request", "slow") {
		t.Error("deadline fault should match its unit")
	}
	if p.Should(KindDeadline, "request", "fast") {
		t.Error("deadline fault must not match other units")
	}
	// Decision kinds never fire as panics or errors.
	if err := p.Fire("disk", "anything"); err != nil {
		t.Errorf("cache-write fault fired from Fire: %v", err)
	}
	if err := p.Fire("request", "slow"); err != nil {
		t.Errorf("deadline fault fired from Fire: %v", err)
	}
	var nilPlan *Plan
	if nilPlan.Should(KindCacheWrite, "x", "y") {
		t.Error("nil plan must be inert for Should")
	}
}

func TestPlanFromEnv(t *testing.T) {
	t.Setenv("SLC_FAULT", "optimize:defun=exptl:panic;disk:*:cache-write")
	p, err := PlanFromEnv()
	if err != nil || p == nil {
		t.Fatalf("PlanFromEnv: %v %v", p, err)
	}
	if !p.Should(KindCacheWrite, "disk", "anything") {
		t.Error("env plan lost the cache-write entry")
	}
	t.Setenv("SLC_FAULT", "")
	if p, err := PlanFromEnv(); p != nil || err != nil {
		t.Error("empty env should be nil, nil")
	}
	t.Setenv("SLC_FAULT", "not-a-plan")
	if _, err := PlanFromEnv(); err == nil {
		t.Error("malformed env plan should fail")
	}
}
