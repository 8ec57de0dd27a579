package s1_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/compilecache"
	"repro/internal/core"
	"repro/internal/s1"
	"repro/internal/snapshot"
)

// wireProgram is the fixed program whose encodings the golden digests
// pin: a constant list, a special, a loop and a recursive call, so the
// bodies carry jumps, labels and comments.
const wireProgram = `(defvar *k* 3)
(defun sq (x) (* x x))
(defun f (n) (if (< n 2) (+ n (length '(1 2 3))) (+ (f (- n 1)) (sq n) *k*)))
(defun count-up (n) (prog (i) (setq i 0) loop (if (= i n) (return i)) (setq i (+ i 1)) (go loop)))`

// wireFiles loads wireProgram into a fresh system over a fresh cache
// directory and returns its snapshot's bytes and the bytes of f's
// cache-entry file.
func wireFiles(t testing.TB) (snap, entry []byte) {
	t.Helper()
	dir := t.TempDir()
	d, err := compilecache.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sys := core.NewSystem(core.Options{Jobs: 1, DiskCache: d})
	if err := sys.LoadString(wireProgram); err != nil {
		t.Fatal(err)
	}
	s, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap, err = s.Bytes(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.e"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		key := strings.TrimSuffix(filepath.Base(file), ".e")
		if e, err := compilecache.DecodeEntry(key, unframe(t, data)); err == nil && e.Name == "f" {
			return snap, data
		}
	}
	t.Fatalf("no cache entry for f among %d files", len(files))
	return nil, nil
}

// freeBoxSlotSnapshot returns the bytes of a snapshot whose box table
// has free slots: bignums the top-level call made and dropped,
// collected before the snapshot.
func freeBoxSlotSnapshot(t testing.TB) []byte {
	t.Helper()
	sys := core.NewSystem(core.Options{Jobs: 1})
	if err := sys.LoadString(`(defvar *kept* "kept") (defun f (n acc) (if (= n 0) 0 (f (- n 1) (* acc 99999999999)))) (f 10 1)`); err != nil {
		t.Fatal(err)
	}
	sys.Machine.GC()
	s, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(s.Image.Boxes, "") {
		t.Fatalf("no free box slot in %q", s.Image.Boxes)
	}
	data, err := s.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// unframe returns a durable file's payload: what follows its magic and
// checksum lines.
func unframe(t testing.TB, data []byte) []byte {
	t.Helper()
	_, rest, _ := bytes.Cut(data, []byte{'\n'})
	_, payload, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok {
		t.Fatal("unframed file")
	}
	return payload
}

const wireGolden = "testdata/wire.golden"

// checkWireGolden compares the digests of wireFiles with the checked-in
// ones.
func checkWireGolden(t *testing.T, when string) {
	t.Helper()
	snap, entry := wireFiles(t)
	got := map[string]string{}
	for name, data := range map[string][]byte{"snapshot": snap, "cache-entry": entry} {
		sum := sha256.Sum256(data)
		got[name] = hex.EncodeToString(sum[:])
	}
	f, err := os.Open(wireGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: %s bytes digest %s, %s pins %s", when, name, sum, wireGolden, want[name])
		}
	}
}

// wireGoldenChild marks the fresh process TestWireGoldenBytes starts.
const wireGoldenChild = "S1_WIRE_GOLDEN_CHILD"

// TestWireGoldenBytes: a snapshot and a cache-entry file of a fixed
// program are the same bytes in every process. The digests hold in a
// fresh process where this test runs first, here, and again after the
// process has gob-encoded an unrelated type (gob's type ids are
// process-global, so a gob-encoded format would fail that last check).
func TestWireGoldenBytes(t *testing.T) {
	if os.Getenv(wireGoldenChild) != "" {
		checkWireGolden(t, "first test in a fresh process")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestWireGoldenBytes$", "-test.count=1")
	cmd.Env = append(os.Environ(), wireGoldenChild+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fresh process: %v\n%s", err, out)
	}
	checkWireGolden(t, "in the test process")
	type unrelated struct {
		Names []string
		Both  map[string]int
	}
	if err := gob.NewEncoder(io.Discard).Encode(unrelated{Names: []string{"a"}, Both: map[string]int{"b": 1}}); err != nil {
		t.Fatal(err)
	}
	checkWireGolden(t, "after a gob encode")
}

// FuzzWire feeds arbitrary bytes to every decoder of the wire form:
// ReadImage, ReadBody, a cache entry's decode and snapshot.DecodeBytes.
// None may panic; a decode may allocate only in proportion to its input,
// so no count or length claims more than the input holds; every jump
// target an accepted decode returns lies inside its body or code vector;
// and every accepted input re-encodes to exactly its bytes.
func FuzzWire(f *testing.F) {
	snap, entry := wireFiles(f)
	snapPayload, entryPayload := unframe(f, snap), unframe(f, entry)
	f.Add(snapPayload)
	f.Add(entryPayload)
	decoded, err := snapshot.DecodeBytes(snap)
	if err != nil {
		f.Fatal(err)
	}
	var img s1.Writer
	s1.AppendImage(&img, decoded.Image)
	f.Add(img.Bytes())
	key := s1.NewReader(entryPayload).Str()
	e, err := compilecache.DecodeEntry(key, entryPayload)
	if err != nil {
		f.Fatal(err)
	}
	var body s1.Writer
	s1.AppendBody(&body, &e.Capture.Funcs[len(e.Capture.Funcs)-1])
	f.Add(body.Bytes())
	f.Add(unframe(f, freeBoxSlotSnapshot(f)))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkTargets := func(what string, code []s1.Instr) {
			for i := range code {
				if tg, ok := s1.JumpTarget(&code[i]); ok && (tg < 0 || tg > len(code)) {
					t.Fatalf("%s: accepted jump %d to %d outside %d instructions", what, i, tg, len(code))
				}
			}
		}
		reencodes := func(what string, got []byte) {
			if !bytes.Equal(got, data) {
				t.Fatalf("%s: accepted input re-encodes to different bytes", what)
			}
		}

		r := s1.NewReader(data)
		var im *s1.Image
		boundAllocs(t, "ReadImage", len(data), func() { im = s1.ReadImage(r) })
		if r.End() == nil {
			checkTargets("image", im.Code)
			var w s1.Writer
			s1.AppendImage(&w, im)
			reencodes("image", w.Bytes())
		}

		r = s1.NewReader(data)
		var b s1.Body
		boundAllocs(t, "ReadBody", len(data), func() { b = s1.ReadBody(r) })
		if r.End() == nil {
			checkTargets("body", b.Code)
			var w s1.Writer
			s1.AppendBody(&w, &b)
			reencodes("body", w.Bytes())
		}

		// An entry's constants go through the Lisp reader, whose
		// allocation follows the constant's structure, not its length.
		if e, err := compilecache.DecodeEntry(s1.NewReader(data).Str(), data); err == nil {
			for i := range e.Capture.Funcs {
				checkTargets("entry body", e.Capture.Funcs[i].Code)
			}
			reencodes("entry", e.Payload())
		}

		sum := sha256.Sum256(data)
		framed := append([]byte(snapshot.Magic+"\n"+hex.EncodeToString(sum[:])+"\n"), data...)
		var s *snapshot.Snapshot
		var sErr error
		boundAllocs(t, "DecodeBytes", len(framed), func() { s, sErr = snapshot.DecodeBytes(framed) })
		if sErr == nil {
			checkTargets("snapshot image", s.Image.Code)
			out, err := s.Bytes()
			if err != nil {
				t.Fatalf("accepted snapshot does not encode: %v", err)
			}
			if !bytes.Equal(out, framed) {
				t.Fatal("snapshot: accepted input re-encodes to different bytes")
			}
		}
	})
}

// boundAllocs runs decode and fails t if it allocated more than a small
// multiple of its n input bytes (the most a decoded record outweighs
// its encoding: a slice header for an 8-byte count) plus a constant.
func boundAllocs(t *testing.T, what string, n int, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*n+4<<10); got > limit {
		t.Fatalf("%s allocated %d bytes for %d input bytes", what, got, n)
	}
}
