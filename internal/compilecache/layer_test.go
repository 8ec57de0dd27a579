package compilecache_test

// Tests for the verified-once layer: a Disk serves an entry it has read
// and verified from memory from then on, and the shared entry survives
// concurrent replay unmodified. They live outside the package so the
// replay test can compile real programs through core; CI also runs them
// under -race.

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/compilecache"
	"repro/internal/core"
	"repro/internal/s1"
)

func layerEntry(key string) *compilecache.DiskEntry {
	return &compilecache.DiskEntry{
		Key: key, Name: "f", MinArgs: 1, MaxArgs: 1,
		Ctx: "0000000000000000",
		Capture: s1.Capture{
			Syms:   []string{"f"},
			Consts: []string{"(1 2 3)"},
			Funcs: []s1.Body{{
				Name: "f", MinArgs: 1, MaxArgs: 1,
				Code: []s1.Instr{{Op: s1.OpRET}},
			}},
		},
	}
}

// TestLayerReadsFileOnce: the first lookup reads and verifies the file,
// the second is served from the layer; both count as hits.
func TestLayerReadsFileOnce(t *testing.T) {
	d, err := compilecache.OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Store("k1", layerEntry("k1")); err != nil {
		t.Fatal(err)
	}
	first, src1 := d.Probe("k1")
	second, src2 := d.Probe("k1")
	if first == nil || second == nil {
		t.Fatal("stored entry missed")
	}
	if src1 != compilecache.FromFile || src2 != compilecache.FromProcess {
		t.Errorf("sources = %q, %q; want %q then %q", src1, src2, compilecache.FromFile, compilecache.FromProcess)
	}
	if first != second {
		t.Error("second lookup decoded a new entry instead of sharing the verified one")
	}
	st := d.Stats()
	if st.FileReads != 1 || st.Hits != 2 || st.Misses != 0 {
		t.Errorf("stats = %+v, want 1 file read and 2 hits", st)
	}
}

// TestLayerServesVerifiedEntryAfterCorruption: bytes that verified once
// stay served by the handle that verified them, even after the file is
// damaged; a fresh handle reads the damaged file and quarantines it.
func TestLayerServesVerifiedEntryAfterCorruption(t *testing.T) {
	dir := t.TempDir()
	d, err := compilecache.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Store("k1", layerEntry("k1")); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Lookup("k1"); !ok {
		t.Fatal("stored entry missed")
	}
	path := filepath.Join(dir, "k1.e")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	e, src := d.Probe("k1")
	if e == nil || src != compilecache.FromProcess {
		t.Fatalf("verified entry not served from the layer after corruption: %v %q", e, src)
	}
	if st := d.Stats(); st.Corrupt != 0 || st.FileReads != 1 {
		t.Errorf("the layer hit touched the file: %+v", st)
	}

	d2, err := compilecache.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, ok := d2.Lookup("k1"); ok {
		t.Fatal("fresh handle served the corrupt file")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry still in place after the fresh handle opened")
	}
	q, _ := os.ReadDir(filepath.Join(dir, "quarantine"))
	if len(q) != 1 || q[0].Name() != "k1.e" {
		t.Errorf("quarantine holds %v, want k1.e", q)
	}
}

// replaySrc has a heap constant, a closure body and a generated label,
// so its captures exercise every part of Install.
const replaySrc = `
(defun tally (xs) (if (null xs) 0 (+ (car xs) (tally (cdr xs)))))
(defun table () (tally '(1 2 3 4)))
(defun adder (k) (function (lambda (x) (+ x k))))
(defun use-adder (k x) (funcall (adder k) x))
`

// TestLayerConcurrentReplay: eight fresh machines replay the same shared
// entries at once. Every image must equal a cold compile's, and the
// shared entries — their bodies and read constants included — must come
// out of the replays deep-equal to copies taken before them.
func TestLayerConcurrentReplay(t *testing.T) {
	cold := core.NewSystem(core.Options{})
	if err := cold.LoadString(replaySrc); err != nil {
		t.Fatal(err)
	}
	coldFP := cold.Machine.ImageFingerprint()
	ndefs := int64(len(cold.Defs))

	d, err := compilecache.OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// The first load stores the captures, the second reads and verifies
	// them into the layer.
	for i := 0; i < 2; i++ {
		sys := core.NewSystem(core.Options{DiskCache: d})
		if err := sys.LoadString(replaySrc); err != nil {
			t.Fatal(err)
		}
	}
	names, err := os.ReadDir(d.Dir())
	if err != nil {
		t.Fatal(err)
	}
	shared := map[string]*compilecache.DiskEntry{}
	before := map[string]*compilecache.DiskEntry{}
	for _, de := range names {
		key, ok := strings.CutSuffix(de.Name(), ".e")
		if !ok {
			continue
		}
		e, src := d.Probe(key)
		if src != compilecache.FromProcess {
			t.Fatalf("entry %s not in the layer after a warm load (%q)", key, src)
		}
		if !e.ConstsRead() {
			t.Fatalf("entry %s entered the layer without its constants read", key)
		}
		shared[key], before[key] = e, deepCopy(t, e)
	}
	if int64(len(shared)) != ndefs {
		t.Fatalf("%d entries stored for %d defuns", len(shared), ndefs)
	}
	reads := d.Stats().FileReads

	const machines = 8
	fps := make([]string, machines)
	hits := make([]int64, machines)
	errs := make([]error, machines)
	var wg sync.WaitGroup
	for g := 0; g < machines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sys := core.NewSystem(core.Options{DiskCache: d})
			if errs[g] = sys.LoadString(replaySrc); errs[g] != nil {
				return
			}
			fps[g] = sys.Machine.ImageFingerprint()
			hits[g] = sys.Machine.Stats.CompileCacheHits
		}(g)
	}
	wg.Wait()
	for g := 0; g < machines; g++ {
		if errs[g] != nil {
			t.Fatalf("machine %d: %v", g, errs[g])
		}
		if hits[g] != ndefs {
			t.Errorf("machine %d replayed %d of %d defuns", g, hits[g], ndefs)
		}
		if fps[g] != coldFP {
			t.Errorf("machine %d image %s differs from the cold compile's %s", g, fps[g], coldFP)
		}
	}
	if got := d.Stats().FileReads; got != reads {
		t.Errorf("concurrent replays read %d entry files; the layer should serve them all", got-reads)
	}
	for key, e := range shared {
		if !reflect.DeepEqual(e, before[key]) {
			t.Errorf("shared entry %s was modified by replay", key)
		}
	}
}

func deepCopy(t *testing.T, e *compilecache.DiskEntry) *compilecache.DiskEntry {
	t.Helper()
	c, err := compilecache.CloneEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
