package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/compilecache"
	"repro/internal/diag"
	"repro/internal/sexp"
	"repro/internal/snapshot"
	"repro/internal/tree"
)

// planFixture is a boot snapshot of snapPrelude, one rehydration of it
// (which keeps the request plans) and a durable cache.
type planFixture struct {
	snap *snapshot.Snapshot
	rh   *Rehydrated
	dir  string
	opts Options
}

func newPlanFixture(t *testing.T) *planFixture {
	t.Helper()
	opts := snapOpts(t, false)
	snap, err := coldBoot(t, opts).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Rehydrate(snap)
	if err != nil {
		t.Fatal(err)
	}
	f := &planFixture{snap: snap, rh: rh, dir: t.TempDir(), opts: opts}
	f.opts.DiskCache = f.openDisk(t)
	return f
}

// openDisk opens a new handle on the fixture's cache directory: its
// verified-once layer starts empty.
func (f *planFixture) openDisk(t *testing.T) *compilecache.Disk {
	t.Helper()
	d, err := compilecache.OpenDisk(f.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func (f *planFixture) restore(t *testing.T, opts Options) *System {
	t.Helper()
	sys, err := f.rh.Restore(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// plan returns the recorded plan for src under the default compiler
// options, or nil.
func (f *planFixture) plan(src string) *plan {
	return f.rh.plans.get(planKey{src, compilecache.OptsFingerprint(NewSystem(Options{}).Compiler.Opts)})
}

// planCall is one compiled and interpreted call a differential makes
// after the load.
type planCall struct {
	fn   string
	args []int64
}

// loadOutcome is everything a plan hit must reproduce.
type loadOutcome struct {
	value, diags  string
	defs          []string
	fp, ctx       string
	gen           int
	hits, misses  int64
	compiled, ipd []string
}

func loadAndProbe(t *testing.T, sys *System, src string, calls []planCall) loadOutcome {
	t.Helper()
	v, list := sys.EvalStringDiag(src)
	o := loadOutcome{
		fp: sys.Machine.ImageFingerprint(), ctx: sys.Machine.AllocContext(),
		gen: sys.Compiler.GenCount(), hits: sys.Stats().CompileCacheHits, misses: sys.Stats().CompileCacheMisses,
	}
	if v != nil {
		o.value = sexp.Print(v)
	}
	if list.Len() > 0 {
		o.diags = list.Error()
	}
	for name, idx := range sys.Defs {
		o.defs = append(o.defs, fmt.Sprintf("%s=%d", name, idx))
	}
	sort.Strings(o.defs)
	for _, c := range calls {
		args := make([]sexp.Value, len(c.args))
		for i, a := range c.args {
			args[i] = sexp.Fixnum(a)
		}
		cv, err := sys.Call(c.fn, args...)
		if err != nil {
			o.compiled = append(o.compiled, "error: "+err.Error())
		} else {
			o.compiled = append(o.compiled, sexp.Print(cv))
		}
		iv, err := sys.Interpret(c.fn, args...)
		if err != nil {
			o.ipd = append(o.ipd, "error: "+err.Error())
		} else {
			o.ipd = append(o.ipd, sexp.Print(iv))
		}
	}
	return o
}

// planPrograms are stateless requests over snapPrelude: proclamations
// and specials, closures, and top-level forms that read and write
// prelude state.
var planPrograms = []struct {
	name, src string
	calls     []planCall
}{
	{"specials", `
(declaim (special level))
(defvar level 2)
(defvar *count* 0)
(defun at-level () level)
(defun folded (x) (let ((y (+ 1 2))) (* x (+ y level))))
(defun with-level (n) (let ((level n)) (at-level)))
(defun bump (k) (setq *count* (+ *count* k)) *count*)
(bump 3)
(bump (scaled 2))
`, []planCall{{"with-level", []int64{9}}, {"at-level", nil}, {"folded", []int64{4}}, {"bump", []int64{1}}}},
	{"closures", `
(defun make-adder (n) (lambda (x) (+ x n)))
(defun adder-test (k x) (funcall (make-adder k) x))
(defun make-counter () (let ((n 0)) (lambda () (setq n (+ n 1)) n)))
(defun count-twice () (let ((c (make-counter))) (funcall c) (funcall c)))
(adder-test 40 2)
`, []planCall{{"adder-test", []int64{5, 37}}, {"count-twice", nil}}},
	{"toplevel", `
(defvar *tbl2* (build 5))
(defun tbl-len () (len *tbl2*))
(setq *scale* 4)
(list (tbl-len) (scaled 3) (fib 7))
`, []planCall{{"tbl-len", nil}, {"scaled", []int64{2}}, {"fib", []int64{9}}}},
}

// TestPlanHitMatchesRestoreSystem: a load served by a request plan ends
// in the state a load on a freshly rehydrated system (RestoreSystem,
// which has no plans) reaches — value, Defs, image, allocator context,
// gensym counter, cache meters, and compiled and interpreted results.
func TestPlanHitMatchesRestoreSystem(t *testing.T) {
	f := newPlanFixture(t)
	for _, p := range planPrograms {
		t.Run(p.name, func(t *testing.T) {
			cold := f.restore(t, f.opts)
			loadAndProbe(t, cold, p.src, p.calls)
			if st := cold.PlanStats(); st != (PlanStats{}) {
				t.Fatalf("a load that compiled used or recorded a plan: %+v", st)
			}
			rec := f.restore(t, f.opts)
			want := loadAndProbe(t, rec, p.src, p.calls)
			if st := rec.PlanStats(); st != (PlanStats{Records: 1}) {
				t.Fatalf("replayed load: %+v, want one plan recorded", st)
			}
			if want.diags != "" || want.misses != 0 {
				t.Fatalf("replayed load: diagnostics %q, %d misses", want.diags, want.misses)
			}
			oracle, err := RestoreSystem(f.opts, f.snap)
			if err != nil {
				t.Fatal(err)
			}
			if got := loadAndProbe(t, oracle, p.src, p.calls); !reflect.DeepEqual(got, want) {
				t.Fatalf("RestoreSystem load:\n got %+v\nwant %+v", got, want)
			}
			hit := f.restore(t, f.opts)
			got := loadAndProbe(t, hit, p.src, p.calls)
			if st := hit.PlanStats(); st != (PlanStats{Hits: 1}) {
				t.Fatalf("second replayed load: %+v, want one plan hit", st)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("plan hit:\n got %+v\nwant %+v", got, want)
			}
			// Later loads of the same system are ordinary loads.
			if err := hit.LoadString(p.src); err != nil {
				t.Fatal(err)
			}
			if st := hit.PlanStats(); st != (PlanStats{Hits: 1}) {
				t.Errorf("a second load used a plan: %+v", st)
			}
		})
	}
}

// TestPlanNotRecorded: loads that are not pure replays of the boot
// state record no plan, however often they run. (A load that compiles
// a unit is the first step of TestPlanHitMatchesRestoreSystem.)
func TestPlanNotRecorded(t *testing.T) {
	f := newPlanFixture(t)
	fault, err := diag.ParsePlan("optimize:defun=absent:panic")
	if err != nil {
		t.Fatal(err)
	}
	faulted := f.opts
	faulted.Fault = fault
	cases := []struct {
		name, src string
		opts      Options
	}{
		{"runtime-error", "(defun ok1 (x) x)\n(car 5)\n", f.opts},
		{"read-error", "(defun ok2 (x) x)\n(ok2 3))\n", f.opts},
		{"defmacro", "(defmacro thrice2 (x) (list '+ x x x))\n(defun t3 (x) (thrice2 x))\n", f.opts},
		{"user-macro", "(defun tw (x) (twice x))\n(tw 4)\n", f.opts},
		{"fault-plan", "(defun ok3 (x) (+ x 1))\n(ok3 1)\n", faulted},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				sys := f.restore(t, c.opts)
				sys.EvalStringDiag(c.src)
				if st := sys.PlanStats(); st != (PlanStats{}) {
					t.Fatalf("load %d: %+v, want no plan use", i, st)
				}
			}
			if f.plan(c.src) != nil {
				t.Error("a plan was recorded")
			}
		})
	}
	// A recorded plan is not used under a fault plan either: the plan
	// would skip the converter's fault points.
	src := "(defun ok4 (x) (* x 2))\n(ok4 21)\n"
	for i := 0; i < 2; i++ {
		f.restore(t, f.opts).EvalStringDiag(src)
	}
	if f.plan(src) == nil {
		t.Fatal("no plan recorded for a replayed load")
	}
	sys := f.restore(t, faulted)
	if v, err := sys.EvalString(src); err != nil || sexp.Print(v) != "42" {
		t.Fatalf("faulted load: %v %v", v, err)
	}
	if st := sys.PlanStats(); st != (PlanStats{}) {
		t.Errorf("load under a fault plan: %+v, want no plan use", st)
	}
}

// planShow prints a plan's trees, to check that nothing wrote them.
func planShow(p *plan) string {
	var b strings.Builder
	for _, u := range p.defs {
		b.WriteString(tree.Show(u.lam))
	}
	return b.String()
}

// TestPlanFallback: a plan whose entry is gone from the cache falls back
// to the ordinary load, and a plan unit whose entry no longer replays
// compiles from a fresh conversion; either way the result is unchanged
// and the plan's trees are never touched.
func TestPlanFallback(t *testing.T) {
	f := newPlanFixture(t)
	p := planPrograms[0] // its second definition, folded, is one the optimizer rewrites
	for i := 0; i < 2; i++ {
		loadAndProbe(t, f.restore(t, f.opts), p.src, p.calls)
	}
	pl := f.plan(p.src)
	if pl == nil {
		t.Fatal("no plan recorded")
	}
	shown := planShow(pl)
	want := loadAndProbe(t, f.restore(t, f.opts), p.src, p.calls)
	same := func(t *testing.T, got loadOutcome) {
		t.Helper()
		got.hits, got.misses = want.hits, want.misses
		if !reflect.DeepEqual(got, want) {
			t.Errorf("load:\n got %+v\nwant %+v", got, want)
		}
		if planShow(pl) != shown {
			t.Error("the plan's trees changed")
		}
	}

	t.Run("entry-removed", func(t *testing.T) {
		key := pl.defs[1].key
		if err := os.Remove(filepath.Join(f.dir, key+".e")); err != nil {
			t.Fatal(err)
		}
		opts := f.opts
		opts.DiskCache = f.openDisk(t) // no layer copy either
		sys := f.restore(t, opts)
		same(t, loadAndProbe(t, sys, p.src, p.calls))
		if st := sys.PlanStats(); st != (PlanStats{Fallbacks: 1}) {
			t.Errorf("%+v, want one fallback", st)
		}
		// The ordinary load stored the entry again, so the plan applies.
		sys = f.restore(t, opts)
		same(t, loadAndProbe(t, sys, p.src, p.calls))
		if st := sys.PlanStats(); st != (PlanStats{Hits: 1}) {
			t.Errorf("after the store: %+v, want one hit", st)
		}
	})

	t.Run("entry-does-not-replay", func(t *testing.T) {
		// Overwrite a definition's and a top-level form's entries with
		// copies captured in another allocator context: the plan still
		// finds every key, but those units compile.
		for _, key := range []string{pl.defs[1].key, pl.tops[0].key} {
			de, _ := f.opts.DiskCache.Probe(key)
			if de == nil {
				t.Fatalf("entry %s missing", key)
			}
			moved := *de
			moved.Ctx = "elsewhere"
			if err := f.opts.DiskCache.Store(key, &moved); err != nil {
				t.Fatal(err)
			}
		}
		opts := f.opts
		opts.DiskCache = f.openDisk(t)
		sys := f.restore(t, opts)
		got := loadAndProbe(t, sys, p.src, p.calls)
		same(t, got)
		if st := sys.PlanStats(); st != (PlanStats{Hits: 1}) {
			t.Errorf("%+v, want one hit", st)
		}
		if got.misses != 2 {
			t.Errorf("%d units compiled, want 2", got.misses)
		}
	})
}

// TestPlanConcurrentHits: systems restored from one rehydration load one
// planned source at once; each ends in the state the plan's recording
// load reached.
func TestPlanConcurrentHits(t *testing.T) {
	f := newPlanFixture(t)
	p := planPrograms[1]
	loadAndProbe(t, f.restore(t, f.opts), p.src, p.calls)
	want := loadAndProbe(t, f.restore(t, f.opts), p.src, p.calls)
	const systems = 8
	got := make([]loadOutcome, systems)
	stats := make([]PlanStats, systems)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sys, err := f.rh.Restore(f.opts)
			if err != nil {
				got[g].diags = err.Error()
				return
			}
			got[g] = loadAndProbe(t, sys, p.src, p.calls)
			stats[g] = sys.PlanStats()
		}(g)
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) || stats[g] != (PlanStats{Hits: 1}) {
			t.Errorf("system %d: %+v %+v\nwant %+v", g, stats[g], got[g], want)
		}
	}
}
