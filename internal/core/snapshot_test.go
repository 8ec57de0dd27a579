// Restore-vs-rebuild differential suite: a system restored from a
// snapshot must be observationally identical to one that cold-compiled
// the same sources — same -image-hash, same allocator context, same
// heap statistics, same eval results and meters, and identical
// evolution under *further* loads (gensym, macro epoch and unit-naming
// counters all pinned). The suite has its own GCStress leg.
package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/compilecache"
	"repro/internal/sexp"
	"repro/internal/snapshot"
)

// snapPrelude exercises every snapshot-relevant feature: proclaimed
// specials, defvars with heap-allocated values, macros, mutual
// recursion, cons churn (so the GC runs and free lists populate), and
// boxed constants (strings, bignum-producing arithmetic).
const snapPrelude = `
(proclaim '(special *scale*))
(defvar *scale* 3)
(defmacro twice (x) (list '+ x x))
(defun exptl (b n a) (if (= n 0) a (exptl b (- n 1) (* a b))))
(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(defun build (n) (if (zerop n) nil (cons n (build (- n 1)))))
(defun len (l) (if (null l) 0 (+ 1 (len (cdr l)))))
(defun churn (n) (len (build n)))
(defun scaled (x) (* x *scale*))
(defun twiced (x) (twice (scaled x)))
(defun greet () "hello snapshot")
(defvar *tbl* (build 16))
(churn 24)
`

// snapOpts is the per-mode system configuration.
func snapOpts(t testing.TB, gcStress bool) Options {
	return Options{GCStress: gcStress}
}

// coldBoot compiles the prelude from scratch.
func coldBoot(t testing.TB, opts Options) *System {
	sys := NewSystem(opts)
	if err := sys.LoadString(snapPrelude); err != nil {
		t.Fatalf("cold load: %v", err)
	}
	return sys
}

// warmBoot snapshots cold, pushes the snapshot through the full wire
// format (encode + verify + decode), and restores it under opts.
func warmBoot(t testing.TB, cold *System, opts Options) *System {
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := snap.Bytes()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := snapshot.DecodeBytes(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	warm, err := RestoreSystem(opts, decoded)
	if err != nil {
		t.Fatalf("RestoreSystem: %v", err)
	}
	return warm
}

func testRestoreEquivalence(t *testing.T, gcStress bool) {
	opts := snapOpts(t, gcStress)
	cold := coldBoot(t, opts)
	warm := warmBoot(t, cold, opts)

	if c, w := cold.Machine.ImageFingerprint(), warm.Machine.ImageFingerprint(); c != w {
		t.Fatalf("image hash diverged:\ncold %s\nwarm %s", c, w)
	}
	if c, w := cold.Machine.AllocContext(), warm.Machine.AllocContext(); c != w {
		t.Fatalf("allocator context diverged: cold %s warm %s", c, w)
	}
	if c, w := cold.Machine.LiveHeapWords(), warm.Machine.LiveHeapWords(); c != w {
		t.Errorf("live heap words diverged: cold %d warm %d", c, w)
	}
	if err := warm.Machine.CheckHeapInvariants(); err != nil {
		t.Errorf("warm heap invariants: %v", err)
	}

	// Eval differential: same results and identical meters for the paper
	// kernels, starting from a clean slate on both.
	kernels := []struct {
		fn   string
		args []sexp.Value
		want string
	}{
		{"exptl", []sexp.Value{sexp.Fixnum(2), sexp.Fixnum(10), sexp.Fixnum(1)}, "1024"},
		{"fib", []sexp.Value{sexp.Fixnum(10)}, "55"},
		{"churn", []sexp.Value{sexp.Fixnum(32)}, "32"},
		{"twiced", []sexp.Value{sexp.Fixnum(5)}, "30"},
		{"greet", nil, `"hello snapshot"`},
	}
	cold.ResetStats()
	warm.ResetStats()
	for _, k := range kernels {
		cv, cerr := cold.Call(k.fn, k.args...)
		wv, werr := warm.Call(k.fn, k.args...)
		if cerr != nil || werr != nil {
			t.Fatalf("%s: cold err %v, warm err %v", k.fn, cerr, werr)
		}
		if cs, ws := sexp.Print(cv), sexp.Print(wv); cs != ws || cs != k.want {
			t.Errorf("%s: cold %s, warm %s, want %s", k.fn, cs, ws, k.want)
		}
	}
	if c, w := *cold.Stats(), *warm.Stats(); c != w {
		t.Errorf("kernel meters diverged:\ncold %+v\nwarm %+v", c, w)
	}
	if c, w := cold.Machine.ImageFingerprint(), warm.Machine.ImageFingerprint(); c != w {
		t.Errorf("image hash diverged after kernels (heap evolution differs)")
	}

	// Interpreter side survived rehydration.
	if v, err := warm.Interpret("fib", sexp.Fixnum(8)); err != nil || sexp.Print(v) != "21" {
		t.Errorf("warm interpreter: %v %v", v, err)
	}

	// Post-boot loads must evolve both images identically: this needs the
	// rehydrated macro expanders, the pinned gensym counter, and the
	// pinned unit-naming counters (%toplevel-N names land in the image).
	post := `(defun after-boot (y) (twice (+ y *scale*)))
(after-boot 4)`
	if err := cold.LoadString(post); err != nil {
		t.Fatalf("cold post-load: %v", err)
	}
	if err := warm.LoadString(post); err != nil {
		t.Fatalf("warm post-load: %v", err)
	}
	if c, w := cold.Machine.ImageFingerprint(), warm.Machine.ImageFingerprint(); c != w {
		t.Errorf("image hash diverged after post-boot load:\ncold %s\nwarm %s", c, w)
	}
	cv, _ := cold.Call("after-boot", sexp.Fixnum(4))
	wv, err := warm.Call("after-boot", sexp.Fixnum(4))
	if err != nil || sexp.Print(cv) != sexp.Print(wv) || sexp.Print(wv) != "14" {
		t.Errorf("after-boot: cold %v, warm %v (err %v), want 14", cv, wv, err)
	}
}

func TestSnapshotRestoreDifferential(t *testing.T) {
	testRestoreEquivalence(t, false)
}

func TestSnapshotRestoreDifferentialGCStress(t *testing.T) {
	if testing.Short() {
		t.Skip("gc-stress collects before every allocation")
	}
	testRestoreEquivalence(t, true)
}

// A restored system must be able to snapshot again, and the second
// snapshot must describe the same image.
func TestSnapshotOfRestoredSystem(t *testing.T) {
	opts := snapOpts(t, false)
	cold := coldBoot(t, opts)
	warm := warmBoot(t, cold, opts)
	snap1, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap1.Meta != snap2.Meta {
		t.Errorf("re-snapshot meta diverged:\n%+v\n%+v", snap1.Meta, snap2.Meta)
	}
	b1, _ := snap1.Bytes()
	b2, _ := snap2.Bytes()
	if string(b1) != string(b2) {
		t.Error("re-snapshot bytes diverged from the original snapshot")
	}
}

// Verified restore: a snapshot whose recorded hashes do not match the
// machine it reproduces must fail to restore (the caller then
// cold-compiles) — never produce a system silently claiming the wrong
// image.
func TestRestoreVerificationRefusesMismatch(t *testing.T) {
	opts := snapOpts(t, false)
	cold := coldBoot(t, opts)
	tamper := []struct {
		name string
		mut  func(s *snapshot.Snapshot)
	}{
		{"image-hash", func(s *snapshot.Snapshot) { s.Meta.ImageHash = "0000" }},
		{"alloc-ctx", func(s *snapshot.Snapshot) { s.Meta.AllocCtx = "ffff" }},
		{"heap-words", func(s *snapshot.Snapshot) {
			s.Image.Heap[0], s.Image.Heap[1] = s.Image.Heap[1], s.Image.Heap[0]
		}},
		{"sym-cell", func(s *snapshot.Snapshot) { s.Image.Syms[0].Name += "x" }},
	}
	for _, tc := range tamper {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := cold.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			tc.mut(snap)
			if _, err := RestoreSystem(opts, snap); err == nil {
				t.Errorf("restore accepted a %s mismatch", tc.name)
			}
		})
	}
}

// Systems with compile-time constants are excluded from snapshots for
// the same reason they are excluded from the durable compile cache.
func TestSnapshotConstantsExcluded(t *testing.T) {
	sys := NewSystem(Options{Constants: map[string]sexp.Value{"k": sexp.Fixnum(1)}})
	if _, err := sys.Snapshot(); err == nil {
		t.Error("Snapshot succeeded with compile-time constants")
	}
	plain := coldBoot(t, Options{})
	snap, err := plain.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreSystem(Options{Constants: map[string]sexp.Value{"k": sexp.Fixnum(1)}}, snap); err == nil {
		t.Error("RestoreSystem accepted compile-time constants")
	}
}

// rehydratePrelude adds a proclaimed special without earmuffs (so the
// rehydrated special set decides how a later let binds) and a second
// macro to snapPrelude.
const rehydratePrelude = snapPrelude + `
(declaim (special depth))
(defvar depth 0)
(defun at-depth () depth)
(defmacro thrice (x) (list '+ x x x))
`

// rehydrateRequest uses everything the rehydrated state carries: a
// let of the proclaimed special, both macros, prelude functions.
const rehydrateRequest = `
(defun deeper (n) (let ((depth n)) (at-depth)))
(defun thriced (x) (thrice (twiced x)))
(deeper 7)
`

// TestRehydratedConcurrentRestore: eight systems restore at once from
// one shared rehydration and load the same request. Each must match the
// cold system the snapshot was taken from after it loads the request —
// image, allocator context, compiled and interpreted results — and the
// shared record must come out unchanged.
func TestRehydratedConcurrentRestore(t *testing.T) {
	opts := snapOpts(t, false)
	cold := NewSystem(opts)
	if err := cold.LoadString(rehydratePrelude); err != nil {
		t.Fatal(err)
	}
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Rehydrate(snap)
	if err != nil {
		t.Fatal(err)
	}
	nDefs, nMacros, nSpecials := len(rh.defs), len(rh.macros), len(rh.specials)

	type result struct {
		fp, ctx, value    string
		compiled, interpd []string
		err               error
	}
	probe := func(sys *System) (r result) {
		v, err := sys.EvalString(rehydrateRequest)
		if err != nil {
			r.err = err
			return r
		}
		r.value, r.fp, r.ctx = sexp.Print(v), sys.Machine.ImageFingerprint(), sys.Machine.AllocContext()
		for _, c := range []struct {
			fn  string
			arg int64
		}{{"deeper", 3}, {"thriced", 2}, {"twiced", 4}, {"fib", 9}} {
			cv, err := sys.Call(c.fn, sexp.Fixnum(c.arg))
			if err != nil {
				r.err = err
				return r
			}
			iv, err := sys.Interpret(c.fn, sexp.Fixnum(c.arg))
			if err != nil {
				r.err = err
				return r
			}
			r.compiled = append(r.compiled, sexp.Print(cv))
			r.interpd = append(r.interpd, sexp.Print(iv))
		}
		return r
	}
	want := probe(cold)
	if want.err != nil {
		t.Fatal(want.err)
	}
	if want.value != "7" || want.compiled[1] != "36" || !reflect.DeepEqual(want.compiled, want.interpd) {
		t.Fatalf("cold system: value %s, compiled %v, interpreted %v", want.value, want.compiled, want.interpd)
	}

	const systems = 8
	got := make([]result, systems)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sys, err := rh.Restore(opts)
			if err != nil {
				got[g].err = err
				return
			}
			got[g] = probe(sys)
		}(g)
	}
	wg.Wait()
	for g, r := range got {
		if !reflect.DeepEqual(r, want) {
			t.Errorf("system %d: %+v\nwant %+v", g, r, want)
		}
	}
	if len(rh.defs) != nDefs || len(rh.macros) != nMacros || len(rh.specials) != nSpecials {
		t.Error("restored systems wrote into the shared rehydrated state")
	}
}

// isolationRequest writes through every path by which a request
// machine changes the state it copied from the template: a heap store
// (rplaca into a prelude list), a setq of a prelude special, a defun
// rebinding a prelude name, a new symbol and a new box, and allocation
// enough to collect and reuse the template's free lists.
const isolationRequest = `
(rplaca *tbl* 99)
(setq *scale* 7)
(defun fib (n) (- 0 n))
(defun fresh-box () "a string no prelude holds")
(defvar *fresh* 'a-symbol-no-prelude-has)
(churn 40)
(list (car *tbl*) (scaled 2) (fib 5) (fresh-box) *fresh*)
`

// isolationPolySrc joins the prelude for TestRestoreTemplateIsolation:
// mono-step's call to step1 goes through a symbol-keyed inline cache,
// poly-step's funcall through a register-keyed one that sees two
// callees, and isolationRebind moves step1's function cell under the
// warmed caches (the poly-call runtime kernel's mid-run rebind).
const isolationPolySrc = `
(defun inc (x) (+& x 1))
(defun dbl (x) (+& x x))
(defun poly-step (f x) (funcall f x))
(defun mono-step (x) (step1 x))
(defun poly-driver (k)
  (prog (i acc)
    (setq i 0)
    (setq acc 1)
   loop
    (if (>=& i k) (return acc) nil)
    (setq acc (mono-step acc))
    (setq acc (poly-step (if (oddp i) (function inc) (function dbl)) acc))
    (setq i (+& i 1))
    (go loop)))
(defun step1 (x) (if (>=& x 4097) 1 (inc x)))
`

const isolationRebind = `(defun step1 (x) (if (>=& x 4097) 1 (inc x)))`

// TestRestoreTemplateIsolation: request machines copied from one
// rehydrated template, concurrently, write through every write path —
// the request above, a full and a minor collection, and inline-cache
// fills and invalidations on call sites the template's lowered stream
// holds — and the template must come out unchanged: its
// ImageFingerprint still the snapshot's recorded hash, its allocator
// context as before, its call sites' caches still empty (every request
// machine, before and after, fills exactly as many), and the next
// restore the same machine as a LoadImage of the snapshot. It also runs
// under forced collection.
func TestRestoreTemplateIsolation(t *testing.T) {
	modes := map[string]Options{
		"default":  {},
		"gcstress": {GCStress: true},
	}
	for name, opts := range modes {
		t.Run(name, func(t *testing.T) {
			cold := NewSystem(opts)
			if err := cold.LoadString(snapPrelude + isolationPolySrc); err != nil {
				t.Fatal(err)
			}
			// Collect the prelude's garbage, so the template's free lists
			// hold blocks the requests reuse before they collect.
			cold.Machine.GC()
			snap, err := cold.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			rh, err := Rehydrate(snap)
			if err != nil {
				t.Fatal(err)
			}
			tmplCtx := rh.template.AllocContext()
			wantFills, err := isolationWrites(rh, opts)
			if err != nil {
				t.Fatal(err)
			}
			if wantFills == 0 {
				t.Fatal("the requests filled no inline cache; the test proves nothing")
			}

			const systems = 4
			errs := make([]error, systems)
			var wg sync.WaitGroup
			for g := range errs {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					fills, err := isolationWrites(rh, opts)
					if err == nil && fills != wantFills {
						err = fmt.Errorf("%d inline-cache fills, the first request made %d", fills, wantFills)
					}
					errs[g] = err
				}(g)
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Errorf("system %d: %v", g, err)
				}
			}

			if got := rh.template.ImageFingerprint(); got != snap.Meta.ImageHash {
				t.Errorf("template image %s after requests, snapshot recorded %s", got, snap.Meta.ImageHash)
			}
			if got := rh.template.AllocContext(); got != tmplCtx {
				t.Errorf("template allocator context changed:\n%s\n%s", got, tmplCtx)
			}
			if fills, err := isolationWrites(rh, opts); err != nil || fills != wantFills {
				t.Errorf("a request after the others: %d inline-cache fills (%v), the first made %d", fills, err, wantFills)
			}
			next, err := rh.Restore(opts)
			if err != nil {
				t.Fatal(err)
			}
			loaded := NewSystem(opts)
			if err := loaded.Machine.LoadImage(snap.Image); err != nil {
				t.Fatal(err)
			}
			for _, sys := range []*System{next, loaded} {
				if got, want := sys.Machine.ImageFingerprint(), snap.Meta.ImageHash; got != want {
					t.Errorf("restored image %s, snapshot recorded %s", got, want)
				}
				if got, want := sys.Machine.AllocContext(), snap.Meta.AllocCtx; got != want {
					t.Errorf("restored allocator context %s, snapshot recorded %s", got, want)
				}
			}
		})
	}
}

// isolationWrites restores a system from rh, writes through it (see
// TestRestoreTemplateIsolation) and returns its inline-cache fills.
func isolationWrites(rh *Rehydrated, opts Options) (int64, error) {
	sys, err := rh.Restore(opts)
	if err != nil {
		return 0, err
	}
	v, err := sys.EvalString(isolationRequest)
	if err != nil {
		return 0, err
	}
	if got, want := sexp.Print(v), `(99 14 -5 "a string no prelude holds" a-symbol-no-prelude-has)`; got != want {
		return 0, fmt.Errorf("request returned %s, want %s", got, want)
	}
	m := sys.Machine
	m.GC()
	m.MinorGC()
	for _, rebind := range []string{"", isolationRebind} {
		if err := sys.LoadString(rebind); err != nil {
			return 0, err
		}
		for i := 0; i < 3; i++ {
			if v, err := sys.Call("poly-driver", sexp.Fixnum(100)); err != nil || sexp.Print(v) != "2" {
				return 0, fmt.Errorf("(poly-driver 100) = %v, %v", v, err)
			}
		}
	}
	return m.CacheFills(), m.CheckHeapInvariants()
}

// BenchmarkSnapshotBoot times booting the snapshot test prelude to a
// first call of exptl, per iteration: cold-compile loads the prelude's
// source into a fresh system; warm-restore decodes the snapshot's bytes
// (frame checksum and wire decode), loads and verifies the image
// (fingerprint and allocator context) and rehydrates the system without
// compiling; warm-restore-replay adds a three-defun program replayed
// from the disk cache's layer; warm-plan serves that program from one
// rehydration's request plan, as slcd does.
func BenchmarkSnapshotBoot(b *testing.B) {
	opts := Options{}
	cold := coldBoot(b, opts)
	snap, err := cold.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	data, err := snap.Bytes()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("snapshot size: %d bytes", len(data))
	check := func(b *testing.B, sys *System) {
		v, err := sys.Call("exptl", sexp.Fixnum(2), sexp.Fixnum(8), sexp.Fixnum(1))
		if err != nil || sexp.Print(v) != "256" {
			b.Fatalf("eval after boot: %v %v", v, err)
		}
	}
	b.Run("cold-compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys := NewSystem(opts)
			if err := sys.LoadString(snapPrelude); err != nil {
				b.Fatal(err)
			}
			check(b, sys)
		}
	})
	b.Run("warm-restore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			decoded, err := snapshot.DecodeBytes(data)
			if err != nil {
				b.Fatal(err)
			}
			sys, err := RestoreSystem(opts, decoded)
			if err != nil {
				b.Fatal(err)
			}
			check(b, sys)
		}
	})
	// A stateless slcd request: restore the prelude, then load a small
	// program whose defuns all replay from the durable cache's
	// process-wide layer.
	const program = `(defun sq (x) (* x x))
(defun sum-sq (l) (if (null l) 0 (+ (sq (car l)) (sum-sq (cdr l)))))
(defun probe () (sum-sq '(1 2 3)))`
	b.Run("warm-restore-replay", func(b *testing.B) {
		d, err := compilecache.OpenDisk(b.TempDir(), nil)
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		ropts := opts
		ropts.DiskCache = d
		boot := func() {
			decoded, err := snapshot.DecodeBytes(data)
			if err != nil {
				b.Fatal(err)
			}
			sys, err := RestoreSystem(ropts, decoded)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.LoadString(program); err != nil {
				b.Fatal(err)
			}
			if v, err := sys.Call("probe"); err != nil || sexp.Print(v) != "14" {
				b.Fatalf("eval after replay: %v %v", v, err)
			}
		}
		boot() // compiles and stores the entries
		boot() // reads them into the layer
		hits := d.Stats().Hits
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			boot()
		}
		b.StopTimer()
		if got := d.Stats().Hits - hits; got != 3*int64(b.N) {
			b.Fatalf("%d disk hits for %d boots of 3 defuns", got, b.N)
		}
	})
	// The same request as slcd serves it: every system is restored from
	// one rehydration, whose request plan for the program lets each load
	// skip reading, converting and keying it.
	b.Run("warm-plan", func(b *testing.B) {
		d, err := compilecache.OpenDisk(b.TempDir(), nil)
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		ropts := opts
		ropts.DiskCache = d
		decoded, err := snapshot.DecodeBytes(data)
		if err != nil {
			b.Fatal(err)
		}
		rh, err := Rehydrate(decoded)
		if err != nil {
			b.Fatal(err)
		}
		boot := func() PlanStats {
			sys, err := rh.Restore(ropts)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.LoadString(program); err != nil {
				b.Fatal(err)
			}
			if v, err := sys.Call("probe"); err != nil || sexp.Print(v) != "14" {
				b.Fatalf("eval after replay: %v %v", v, err)
			}
			return sys.PlanStats()
		}
		boot() // compiles and stores the entries
		if st := boot(); st.Records != 1 {
			b.Fatalf("the replayed load recorded no plan: %+v", st)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if st := boot(); st.Hits != 1 {
				b.Fatalf("load without a plan hit: %+v", st)
			}
		}
	})
}

// TestMacroRehydrateMissingExpander: a snapshot whose image holds no
// expanders for the macros its sources define (as one written before
// expanders were compiled would) does not belong together, so Rehydrate
// fails with a MissingExpanderError and a daemon booting from it
// compiles cold. A defmacro the original load failed has no expander
// either, but took no macro epoch, so its snapshot still restores.
func TestMacroRehydrateMissingExpander(t *testing.T) {
	cold := NewSystem(Options{})
	if err := cold.LoadString(`(defmacro m (x) (list 'f x)) (defun f (x) (+ x 1)) (defun g (y) (m y))`); err != nil {
		t.Fatal(err)
	}
	if list := cold.LoadStringDiag(`(defmacro broken (1) 2)`); !list.HasErrors() {
		t.Fatal("(defmacro broken (1) 2) loaded")
	}
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := RestoreSystem(Options{}, snap)
	if err != nil {
		t.Fatalf("consistent snapshot: %v", err)
	}
	if v, err := sys.EvalString(`(defun h (y) (m (g y))) (h 1)`); err != nil || sexp.Print(v) != "3" {
		t.Errorf("restored (h 1) = %v, %v; want 3", v, err)
	}
	img := *snap.Image
	img.Bindings = nil
	for _, b := range snap.Image.Bindings {
		if !strings.HasPrefix(b.Name, "|macro ") {
			img.Bindings = append(img.Bindings, b)
		}
	}
	stale := *snap
	stale.Image = &img
	_, err = Rehydrate(&stale)
	var missing *MissingExpanderError
	if !errors.As(err, &missing) || missing.Macro != "m" {
		t.Fatalf("Rehydrate = %v, want a MissingExpanderError for m", err)
	}
	if _, err := RestoreSystem(Options{}, &stale); !errors.As(err, &missing) {
		t.Errorf("RestoreSystem = %v, want a MissingExpanderError", err)
	}
}

// TestMacroRestoredExpanders: macros defined before a snapshot expand
// on the restored system's own machine — including a redefinition,
// whose earlier expander stays in the image under its own name — and
// under that system's budgets: a looping expander restored from the
// snapshot ends at the restored system's step limit.
func TestMacroRestoredExpanders(t *testing.T) {
	const prelude = `
(defmacro twice (x) (list '+ x x))
(defun tw1 (x) (twice x))
(defmacro twice (x) (list '* x 2 10))
(defun tw2 (x) (twice x))
(defmacro spin () (prog () l (go l)))`
	cold := NewSystem(Options{})
	if err := cold.LoadString(prelude); err != nil {
		t.Fatal(err)
	}
	snap, err := cold.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Rehydrate(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(rh.defs) != 2 || len(rh.macros) != 2 {
		t.Fatalf("rehydrated %d defs and %d macros, want 2 and 2", len(rh.defs), len(rh.macros))
	}
	sys, err := rh.Restore(Options{MaxSteps: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.EvalString(`(defun tw3 (x) (twice x)) (list (tw1 3) (tw2 3) (tw3 3))`)
	if err != nil || sexp.Print(v) != "(6 60 60)" {
		t.Fatalf("restored expansion = %v, %v; want (6 60 60)", v, err)
	}
	if iv, err := sys.Interpret("tw3", sexp.Fixnum(3)); err != nil || sexp.Print(iv) != "60" {
		t.Errorf("interpreted (tw3 3) = %v, %v", iv, err)
	}
	list := sys.LoadStringDiag(`(defun stuck () (spin))`)
	if !list.HasErrors() || !strings.Contains(list.Error(), "step limit exceeded") {
		t.Errorf("looping restored expander: %v", list)
	}
	// The failed form stays in the sources; rehydrating them again runs
	// no expander and leaves its defun out.
	snap, err = sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rh, err = Rehydrate(snap); err != nil || len(rh.defs) != 3 {
		t.Fatalf("rehydrating the looping expansion: %v, want 3 defs", err)
	}
}
