package compilecache_test

import (
	"strings"
	"testing"

	"repro/internal/compilecache"
	"repro/internal/core"
	"repro/internal/s1"
)

// entryFor builds a well-formed cache entry describing the compiled
// function name resident in sys.
func entryFor(t *testing.T, sys *core.System, name string) compilecache.Entry {
	t.Helper()
	idx, ok := sys.Defs[name]
	if !ok {
		t.Fatalf("no compiled function %s", name)
	}
	f := sys.Machine.Funcs[idx]
	return compilecache.Entry{Index: idx, MinArgs: f.MinArgs, MaxArgs: f.MaxArgs, Instrs: f.End - f.Entry}
}

func TestValidateAcceptsResidentEntry(t *testing.T) {
	sys := core.NewSystem(core.Options{})
	if err := sys.LoadString("(defun f (x) (+ x 1))"); err != nil {
		t.Fatal(err)
	}
	e := entryFor(t, sys, "f")
	if err := e.Validate(sys.Machine); err != nil {
		t.Errorf("well-formed entry rejected: %v", err)
	}
}

// TestValidateRejectsUndecodedExtent hand-registers a descriptor whose
// extent lies past the decoded stream — as if machine surgery had
// appended raw code without AddFunction's decode step — and checks that
// Validate refuses to rebind a cache hit onto it.
func TestValidateRejectsUndecodedExtent(t *testing.T) {
	sys := core.NewSystem(core.Options{})
	if err := sys.LoadString("(defun f (x) (+ x 1))"); err != nil {
		t.Fatal(err)
	}
	m := sys.Machine
	entry := len(m.Code)
	m.Funcs = append(m.Funcs, s1.FuncDesc{
		Name: "ghost", Entry: entry, End: entry + 2, MinArgs: 1, MaxArgs: 1})
	e := compilecache.Entry{
		Index: len(m.Funcs) - 1, MinArgs: 1, MaxArgs: 1, Instrs: 2,
	}
	err := e.Validate(m)
	if err == nil {
		t.Fatal("entry with undecoded extent accepted")
	}
	if !strings.Contains(err.Error(), "decoded stream") {
		t.Errorf("err = %v, want substring %q", err, "decoded stream")
	}
}

func TestValidateRejectsCorruptEntries(t *testing.T) {
	sys := core.NewSystem(core.Options{})
	if err := sys.LoadString("(defun f (x) (+ x 1))\n(defun g (x y) (* x y))"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func(e *compilecache.Entry)
		wantSub string
	}{
		{"index out of range", func(e *compilecache.Entry) { e.Index = len(sys.Machine.Funcs) + 3 }, "out of range"},
		{"negative index", func(e *compilecache.Entry) { e.Index = -1 }, "out of range"},
		{"arg-range mismatch", func(e *compilecache.Entry) { e.MinArgs += 1 }, "arg range"},
		{"empty body", func(e *compilecache.Entry) { e.Instrs = 0 }, "empty body"},
		{"instruction count", func(e *compilecache.Entry) { e.Instrs-- }, "instruction count"},
		{"wrong function", func(e *compilecache.Entry) { e.Index = sys.Defs["g"] }, "arg range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := entryFor(t, sys, "f")
			tc.mutate(&e)
			err := e.Validate(sys.Machine)
			if err == nil {
				t.Fatal("corrupt entry accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("err = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}
