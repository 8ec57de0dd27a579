package core

import (
	"strings"
	"testing"

	"repro/internal/compilecache"
	"repro/internal/s1"
	"repro/internal/sexp"
)

// loadWithDisk builds a fresh system over the durable cache directory
// and loads src into it, returning the system and the disk handle (which
// the caller closes).
func loadWithDisk(t *testing.T, dir, src string) (*System, *compilecache.Disk) {
	t.Helper()
	d, err := compilecache.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(Options{DiskCache: d})
	if err := sys.LoadString(src); err != nil {
		d.Close()
		t.Fatalf("load: %v", err)
	}
	return sys, d
}

// withDisk returns opts with a DiskCache on a fresh temporary
// directory, closed when the test ends.
func withDisk(t *testing.T, opts Options) Options {
	t.Helper()
	d, err := compilecache.OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	opts.DiskCache = d
	return opts
}

// TestDiskCacheByteIdenticalWarmLoad is the durable layer's core
// property: a process that loads a corpus entirely from disk-cache
// replays builds the exact machine image a cold compile builds — code,
// function table, symbol cells, heap and boxes all byte-identical.
func TestDiskCacheByteIdenticalWarmLoad(t *testing.T) {
	dir := t.TempDir()

	cold, d1 := loadWithDisk(t, dir, corpusSrc)
	coldFP := cold.Machine.ImageFingerprint()
	st1 := d1.Stats()
	if st1.Stores == 0 {
		t.Fatal("cold load stored nothing durable")
	}
	if st1.Hits != 0 {
		t.Fatalf("cold load hit the empty cache %d times", st1.Hits)
	}
	d1.Close()

	warm, d2 := loadWithDisk(t, dir, corpusSrc)
	defer d2.Close()
	warmFP := warm.Machine.ImageFingerprint()
	st2 := d2.Stats()
	if st2.Hits == 0 {
		t.Fatal("warm load never hit the durable cache")
	}
	if warm.Machine.Stats.CompileCacheHits == 0 {
		t.Fatal("warm load replayed nothing")
	}
	if warm.Machine.Stats.CompileCacheMisses != 0 {
		t.Errorf("warm load recompiled %d units; every unit should replay",
			warm.Machine.Stats.CompileCacheMisses)
	}
	if coldFP != warmFP {
		t.Fatalf("warm image differs from cold image:\n cold %s\n warm %s", coldFP, warmFP)
	}

	// And the replayed image actually runs.
	v, err := warm.Call("exptl", sexp.Fixnum(2), sexp.Fixnum(10), sexp.Fixnum(1))
	if err != nil {
		t.Fatal(err)
	}
	if sexp.Print(v) != "1024" {
		t.Errorf("exptl on replayed image = %s", sexp.Print(v))
	}
	if v, err := warm.Call("adder-test", sexp.Fixnum(5), sexp.Fixnum(37)); err != nil || sexp.Print(v) != "42" {
		t.Errorf("closure on replayed image = %v, %v", v, err)
	}
}

// TestDiskCacheContextMismatchFallsBack loads a corpus whose prefix
// differs from the one that populated the cache: the shared later defuns
// find durable entries, but the entries were captured in a different
// allocator context and must fall back to inline recompilation — no
// error, correct code.
func TestDiskCacheContextMismatchFallsBack(t *testing.T) {
	dir := t.TempDir()
	sys1, d1 := loadWithDisk(t, dir,
		"(defun pad (x) (list x x x))\n(defun shared (n) (* n n))")
	_ = sys1
	d1.Close()

	// Same 'shared' source, different (absent) prefix: the disk probe
	// hits, replay does not apply, the inline compile must succeed.
	sys2, d2 := loadWithDisk(t, dir, "(defun shared (n) (* n n))")
	defer d2.Close()
	if d2.Stats().Hits == 0 {
		t.Fatal("expected a disk probe hit for the shared defun")
	}
	v, err := sys2.Call("shared", sexp.Fixnum(9))
	if err != nil {
		t.Fatal(err)
	}
	if sexp.Print(v) != "81" {
		t.Errorf("shared = %s", sexp.Print(v))
	}
	// The fallback must not have polluted the image with replay debris:
	// a fresh compile of the same one-defun corpus is identical.
	plain := NewSystem(Options{})
	if err := plain.LoadString("(defun shared (n) (* n n))"); err != nil {
		t.Fatal(err)
	}
	if plain.Machine.ImageFingerprint() != sys2.Machine.ImageFingerprint() {
		t.Error("fallback-compiled image differs from a plain compile")
	}
}

// TestDiskCacheDisabledWithConstants: compile-time constants intern
// per-process state the capture cannot carry, so the durable layer must
// stay out of the loop entirely.
func TestDiskCacheDisabledWithConstants(t *testing.T) {
	dir := t.TempDir()
	d, err := compilecache.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	arr := sexp.NewFloatArray([]int{4})
	sys := NewSystem(Options{
		DiskCache: d,
		Constants: map[string]sexp.Value{"karr": arr},
	})
	if err := sys.LoadString("(defun geta (i) (aref$f karr i))"); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Stores != 0 || st.Hits != 0 {
		t.Errorf("durable layer touched under Constants: %+v", st)
	}
}

// TestDiskCacheVariantsStopRestoreThrash: two programs share a defun
// behind different prefixes, so they share its content key but capture
// it in different allocator contexts. Alternating them must settle: the
// first load of each stores what it compiled, every later load replays
// every defun and stores nothing, and a second handle on the directory
// replays both contexts from the files. Before variants, each load
// recompiled the shared defun and overwrote the other context's entry.
func TestDiskCacheVariantsStopRestoreThrash(t *testing.T) {
	const shared = "(defun shared (n) (list n (* n n)))"
	srcs := []string{
		"(defun pad-a (x) (list x x x))\n" + shared,
		"(defun pad-b (x y) (cons x y))\n(defun pad-c (x) (car x))\n" + shared,
	}
	ndefs := []int64{2, 3}
	want := make([]string, len(srcs))
	for i, src := range srcs {
		plain := NewSystem(Options{})
		if err := plain.LoadString(src); err != nil {
			t.Fatal(err)
		}
		want[i] = plain.Machine.ImageFingerprint()
	}
	load := func(d *compilecache.Disk, i int) *System {
		t.Helper()
		sys := NewSystem(Options{DiskCache: d})
		if err := sys.LoadString(srcs[i]); err != nil {
			t.Fatal(err)
		}
		if got := sys.Machine.ImageFingerprint(); got != want[i] {
			t.Fatalf("program %d: cached image %s differs from a plain compile's %s", i, got, want[i])
		}
		if v, err := sys.Call("shared", sexp.Fixnum(7)); err != nil || sexp.Print(v) != "(7 49)" {
			t.Fatalf("program %d: shared = %v, %v", i, v, err)
		}
		return sys
	}

	dir := t.TempDir()
	d, err := compilecache.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for round, i := range []int{0, 1, 0, 1} {
		stores := d.Stats().Stores
		sys := load(d, i)
		if round < 2 {
			continue
		}
		if got := d.Stats().Stores - stores; got != 0 {
			t.Errorf("load %d (program %d) stored %d entries, though every defun already had one", round, i, got)
		}
		if got := sys.Machine.Stats.CompileCacheHits; got != ndefs[i] {
			t.Errorf("load %d (program %d) replayed %d of %d defuns", round, i, got, ndefs[i])
		}
	}

	d2, err := compilecache.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for i := range srcs {
		if got := load(d2, i).Machine.Stats.CompileCacheHits; got != ndefs[i] {
			t.Errorf("second handle: program %d replayed %d of %d defuns", i, got, ndefs[i])
		}
	}
	if st := d2.Stats(); st.Stores != 0 {
		t.Errorf("second handle stored %d entries; both variants are on disk", st.Stores)
	}
}

// topLevelSrc mixes defuns with top-level forms that have side effects
// on the machine (global cells, heap structure) and on the output.
const topLevelSrc = `
(defvar *count* 0)
(defun bump (k) (setq *count* (+ *count* k)) *count*)
(bump 5)
(defvar *tbl* (list 1 2 (bump 10)))
(print (car *tbl*))
(bump 100)
`

// TestDiskCacheReplaysTopLevelForms: top-level forms are durable units
// like defuns. A warm load replays every one of them — no misses, no
// stores — into the cold image, and still runs them: the globals, the
// heap and the output they produce are the cold load's.
func TestDiskCacheReplaysTopLevelForms(t *testing.T) {
	const units = 6 // one defun, five top-level forms
	dir := t.TempDir()
	d, err := compilecache.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	load := func(d *compilecache.Disk) (*System, string, string) {
		t.Helper()
		var out strings.Builder
		sys := NewSystem(Options{DiskCache: d, Out: &out})
		v, err := sys.EvalString(topLevelSrc)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		return sys, sexp.Print(v), out.String()
	}
	cold, coldV, coldOut := load(d)
	if coldV != "115" || !strings.Contains(coldOut, "1") {
		t.Fatalf("cold load = %s, output %q", coldV, coldOut)
	}
	if got := cold.Machine.Stats.CompileCacheMisses; got != units {
		t.Errorf("cold load compiled %d units, want %d", got, units)
	}
	if got := d.Stats().Stores; got != units {
		t.Errorf("cold load stored %d entries, want %d", got, units)
	}
	coldFP := cold.Machine.ImageFingerprint()

	// The same handle (served from the layer) and a fresh one (served
	// from the files) must both replay everything.
	d2, err := compilecache.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for _, h := range []*compilecache.Disk{d, d2} {
		stores := h.Stats().Stores
		warm, v, out := load(h)
		if st := warm.Machine.Stats; st.CompileCacheHits != units || st.CompileCacheMisses != 0 {
			t.Errorf("warm load: %d hits, %d misses; want %d and 0", st.CompileCacheHits, st.CompileCacheMisses, units)
		}
		if got := h.Stats().Stores - stores; got != 0 {
			t.Errorf("warm load stored %d entries", got)
		}
		if fp := warm.Machine.ImageFingerprint(); fp != coldFP {
			t.Errorf("warm image %s differs from the cold image %s", fp, coldFP)
		}
		if v != coldV || out != coldOut {
			t.Errorf("warm load = %s, output %q; cold load = %s, output %q", v, out, coldV, coldOut)
		}
		if v, err := warm.Call("bump", sexp.Fixnum(0)); err != nil || sexp.Print(v) != "115" {
			t.Errorf("*count* after the warm load = %v, %v; want 115", v, err)
		}
	}
}

// TestDiskCacheReloadStoresNothing: reloading an unchanged corpus into
// one disk-backed system rebinds every defun to the body it already
// installed. After the first load the durable store takes no new entry,
// the function table grows only by each reload's top-level wrappers,
// and every defun counts one hit per reload. Without the resident table
// each reload would recompile and store another variant.
func TestDiskCacheReloadStoresNothing(t *testing.T) {
	opts := withDisk(t, Options{Jobs: 1})
	sys := NewSystem(opts)
	if err := sys.LoadString(corpusSrc); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	// The first load keys its top-level forms as well as its defuns.
	nDefs := int64(len(sys.Defs))
	tops := int(st.CompileCacheMisses - nDefs)
	stores := opts.DiskCache.Stats().Stores
	for reload := 1; reload <= 2; reload++ {
		funcs, hits := len(sys.Machine.Funcs), st.CompileCacheHits
		if err := sys.LoadString(corpusSrc); err != nil {
			t.Fatalf("reload %d: %v", reload, err)
		}
		if got := opts.DiskCache.Stats().Stores; got != stores {
			t.Errorf("reload %d: %d disk stores, want %d", reload, got, stores)
		}
		if got := len(sys.Machine.Funcs) - funcs; got != tops {
			t.Errorf("reload %d: function table grew by %d, want %d top-level wrappers", reload, got, tops)
		}
		if got := st.CompileCacheHits - hits; got != nDefs {
			t.Errorf("reload %d: %d hits, want %d (one per defun)", reload, got, nDefs)
		}
	}
	checkCall(t, sys, "sumto", "5050", sexp.Fixnum(100))
}

// TestCacheKeyTracksProclaimedSpecials: the same defun text binds y
// lexically before (declaim (special y)) and dynamically after it, so
// the two compilations must not share a cache entry — neither in one
// system's resident table nor across systems on one durable cache.
func TestCacheKeyTracksProclaimedSpecials(t *testing.T) {
	const defs = "(defun zf () (let ((y 5)) (zg)))\n(defun zg () y)\n"
	check := func(t *testing.T, sys *System) {
		t.Helper()
		if err := sys.LoadString("(declaim (special y))\n" + defs); err != nil {
			t.Fatal(err)
		}
		if v, err := sys.Call("zf"); err != nil || sexp.Print(v) != "5" {
			t.Errorf("compiled (zf) = %v, %v; want 5", v, err)
		}
		if v, err := sys.Interpret("zf"); err != nil || sexp.Print(v) != "5" {
			t.Errorf("interpreted (zf) = %v, %v; want 5", v, err)
		}
	}
	t.Run("memory", func(t *testing.T) {
		sys := NewSystem(withDisk(t, Options{}))
		if err := sys.LoadString(defs); err != nil {
			t.Fatal(err)
		}
		check(t, sys)
	})
	t.Run("disk", func(t *testing.T) {
		d, err := compilecache.OpenDisk(t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := NewSystem(Options{DiskCache: d}).LoadString(defs); err != nil {
			t.Fatal(err)
		}
		check(t, NewSystem(Options{DiskCache: d}))
	})
}

// TestCacheReuseTracksFunctionBindings: emitted code embeds the index
// of a function that is already compiled (#'foo), so a cached body is
// only reusable where every function name it looked up resolves to the
// same index. Two systems restored from one boot image reach the same
// allocator context with foo and bar defined in either order; the
// second must not replay the first's (mapcar #'foo ...). In one
// system, redefining foo and reloading the same text must call the
// new foo.
func TestCacheReuseTracksFunctionBindings(t *testing.T) {
	t.Run("disk", func(t *testing.T) {
		d, err := compilecache.OpenDisk(t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		opts := Options{DiskCache: d}
		boot := NewSystem(opts)
		if err := boot.LoadString("(defvar *names* '(foo bar))"); err != nil {
			t.Fatal(err)
		}
		snap, err := boot.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		const use = " (defun h () (funcall #'foo 0)) (list (h) (funcall #'foo 0))"
		for _, src := range []string{
			"(defun foo (x) 1) (defun bar (x) 2)" + use,
			"(defun bar (x) 2) (defun foo (x) 1)" + use,
		} {
			sys, err := RestoreSystem(opts, snap)
			if err != nil {
				t.Fatal(err)
			}
			if v, err := sys.EvalString(src); err != nil || sexp.Print(v) != "(1 1)" {
				t.Errorf("%s = %v, %v; want (1 1)", src, v, err)
			}
		}
	})
	t.Run("memory", func(t *testing.T) {
		sys := NewSystem(withDisk(t, Options{}))
		const g = "(defun g () (funcall #'foo 0))"
		for _, want := range []string{"1", "2"} {
			if err := sys.LoadString("(defun foo (x) " + want + ") " + g); err != nil {
				t.Fatal(err)
			}
			if v, err := sys.Call("g"); err != nil || sexp.Print(v) != want {
				t.Errorf("(g) = %v, %v; want %s", v, err, want)
			}
		}
	})
}

// TestDiskCacheReplaysIntoFreeBoxSlots: a unit compiled into a machine
// whose box table has free slots puts its literals' boxes there, and a
// replay into a machine with the same free slots — the allocator
// context names them — reproduces that emission word for word.
func TestDiskCacheReplaysIntoFreeBoxSlots(t *testing.T) {
	const prelude = `(defun drop (n acc) (if (= n 0) 0 (drop (- n 1) (* acc 99999999999)))) (drop 6 1)`
	const unit = `(defun lits () (list "a literal" 123456789012345678901234567890 (/ 2 3)))`
	d, err := compilecache.OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	freeSlots := func(m *s1.Machine) (n int) {
		for _, b := range m.Boxes {
			if b == nil {
				n++
			}
		}
		return n
	}
	load := func(d *compilecache.Disk) *System {
		t.Helper()
		sys := NewSystem(Options{DiskCache: d})
		if err := sys.LoadString(prelude); err != nil {
			t.Fatal(err)
		}
		sys.Machine.GC() // frees the bignums drop made and dropped
		free := freeSlots(sys.Machine)
		if free == 0 {
			t.Fatal("the prelude left no free box slot")
		}
		if err := sys.LoadString(unit); err != nil {
			t.Fatal(err)
		}
		if freeSlots(sys.Machine) >= free {
			t.Fatal("the unit's literals filled no free box slot")
		}
		if v, err := sys.Call("lits"); err != nil || sexp.Print(v) != `("a literal" 123456789012345678901234567890 2/3)` {
			t.Fatalf("(lits) = %v, %v", v, err)
		}
		return sys
	}
	cold := load(d)
	recompiled := load(nil)
	hits := cold.Machine.Stats.CompileCacheHits
	warm := load(d)
	if warm.Machine.Stats.CompileCacheHits-hits < 3 || warm.Machine.Stats.CompileCacheMisses != 0 {
		t.Fatalf("warm load: %d hits, %d misses; want every unit replayed", warm.Machine.Stats.CompileCacheHits, warm.Machine.Stats.CompileCacheMisses)
	}
	want := recompiled.Machine.ImageFingerprint()
	for name, sys := range map[string]*System{"cold": cold, "warm": warm} {
		if got := sys.Machine.ImageFingerprint(); got != want {
			t.Errorf("%s image %s, recompiled %s", name, got, want)
		}
	}
}
