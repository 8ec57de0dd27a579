// Wire-format and store-level tests: deterministic encoding, detection
// of every corruption class (bit flips, truncation at arbitrary byte
// boundaries, version skew), the store's quarantine events and recovery,
// and the snapshot-read/snapshot-write fault-injection paths.
package snapshot_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/durable"
	"repro/internal/s1"
	"repro/internal/snapshot"
)

// testSnapshot builds a snapshot of a small but non-trivial machine:
// symbols, a function, live and freed heap blocks, boxes.
func testSnapshot(t testing.TB, pad int) *snapshot.Snapshot {
	t.Helper()
	m := s1.New()
	m.InternSym("v")
	m.SetGlobal("v", s1.FixnumWord(5))
	items := []s1.Item{
		{Instr: &s1.Instr{Op: s1.OpMOV,
			A: s1.Operand{Mode: s1.MReg, Base: s1.RegA},
			B: s1.Operand{Mode: s1.MImm, Imm: s1.FixnumWord(42)}}},
		{Instr: &s1.Instr{Op: s1.OpRET}},
	}
	if _, err := m.AddFunction("answer", 0, 0, items); err != nil {
		t.Fatal(err)
	}
	lst := s1.NilWord
	for i := 0; i < 4+pad; i++ {
		lst = m.Cons(s1.FixnumWord(int64(i)), lst)
	}
	m.SetGlobal("lst", lst)
	m.Cons(s1.FixnumWord(-1), s1.NilWord) // garbage, freed below
	m.GC()
	img, err := m.ExportImage()
	if err != nil {
		t.Fatal(err)
	}
	return &snapshot.Snapshot{
		Meta: snapshot.Meta{
			ImageHash:  m.ImageFingerprint(),
			AllocCtx:   m.AllocContext(),
			GenCount:   7,
			MacroEpoch: 2,
			SourceHash: snapshot.HashSources([]string{"(defun answer () 42)"}),
		},
		Sources: []string{"(defun answer () 42)"},
		Image:   img,
	}
}

func TestWireRoundTripDeterministic(t *testing.T) {
	snap := testSnapshot(t, 0)
	a, err := snap.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("encoding the same snapshot twice produced different bytes")
	}
	got, err := snapshot.DecodeBytes(a)
	if err != nil {
		t.Fatalf("DecodeBytes: %v", err)
	}
	if got.Meta != snap.Meta {
		t.Errorf("meta round trip: got %+v, want %+v", got.Meta, snap.Meta)
	}
	if len(got.Sources) != 1 || got.Sources[0] != snap.Sources[0] {
		t.Errorf("sources round trip: %q", got.Sources)
	}
	// Within one process, re-encoding the decoded snapshot must
	// reproduce the bytes: the format has no timestamps and no map
	// iteration order. (Across processes gob's type ids can differ, so
	// equal snapshots need not encode to equal bytes.)
	c, err := got.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Error("decode→encode did not reproduce the original bytes")
	}
}

func TestWireDetectsBitFlips(t *testing.T) {
	data, err := testSnapshot(t, 0).Bytes()
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit at a spread of offsets across the whole file (headers,
	// payloads, trailer). Every flip must be rejected.
	for off := 0; off < len(data); off += 31 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x20
		if bytes.Equal(mut, data) {
			continue
		}
		if _, err := snapshot.DecodeBytes(mut); err == nil {
			t.Errorf("bit flip at offset %d went undetected", off)
		}
	}
}

func TestWireDetectsTruncation(t *testing.T) {
	data, err := testSnapshot(t, 0).Bytes()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n += 13 {
		if _, err := snapshot.DecodeBytes(data[:n]); err == nil {
			t.Errorf("truncation to %d of %d bytes went undetected", n, len(data))
		}
	}
	if _, err := snapshot.DecodeBytes(data[:len(data)-1]); err == nil {
		t.Error("missing final newline went undetected")
	}
	if _, err := snapshot.DecodeBytes(append(append([]byte(nil), data...), "junk"...)); err == nil {
		t.Error("trailing junk went undetected")
	}
}

// TestWireVersionSkew: a file of the previous format (v2) or a future
// one is ErrVersion, so it is quarantined and cold-compiled; an alien
// magic is plain corruption.
func TestWireVersionSkew(t *testing.T) {
	data, err := testSnapshot(t, 0).Bytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, magic := range []string{"slc-snapshot-v2", "slc-snapshot-v99"} {
		skew := bytes.Replace(data, []byte(snapshot.Magic+"\n"), []byte(magic+"\n"), 1)
		if _, err := snapshot.DecodeBytes(skew); !errors.Is(err, durable.ErrVersion) {
			t.Errorf("%s: got %v, want ErrVersion", magic, err)
		}
	}
	alien := bytes.Replace(data, []byte(snapshot.Magic+"\n"), []byte("not-a-snapshot\n"), 1)
	if _, err := snapshot.DecodeBytes(alien); err == nil || errors.Is(err, durable.ErrVersion) {
		t.Errorf("alien magic: got %v, want a plain corruption error", err)
	}
}

func TestStoreSaveLoad(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap := testSnapshot(t, 0)
	if err := st.Save("boot", snap); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load("boot")
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != snap.Meta {
		t.Errorf("loaded meta %+v, want %+v", got.Meta, snap.Meta)
	}
	if _, err := st.Load("absent"); !errors.Is(err, snapshot.ErrNotFound) {
		t.Errorf("missing snapshot: got %v, want ErrNotFound", err)
	}
	if s := st.Stats(); s.Writes != 1 || s.Reads != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestStoreQuarantinesCorrupt: a damaged snapshot is moved aside with a
// snapshot-quarantine event, then misses cleanly.
func TestStoreQuarantinesCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Save("boot", testSnapshot(t, 0)); err != nil {
		t.Fatal(err)
	}
	var events []string
	st.SetEventHook(func(kind, name string) { events = append(events, kind+":"+name) })
	path := filepath.Join(dir, "boot"+snapshot.FileSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("boot"); err == nil {
		t.Fatal("corrupt snapshot loaded")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt snapshot not moved out of the store root")
	}
	if len(events) != 1 || events[0] != "snapshot-quarantine:boot"+snapshot.FileSuffix {
		t.Errorf("events = %v", events)
	}
	// Second load: a clean miss, not an error loop.
	if _, err := st.Load("boot"); !errors.Is(err, snapshot.ErrNotFound) {
		t.Errorf("post-quarantine load: got %v, want ErrNotFound", err)
	}
}

// TestStoreRecoverQuarantinesDebris: opening a store quarantines a torn
// snapshot and one of the previous format version (v2), so a boot from
// an older build's directory cold-compiles and checkpoints.
func TestStoreRecoverQuarantinesDebris(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("good", testSnapshot(t, 0)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	good, _ := os.ReadFile(filepath.Join(dir, "good"+snapshot.FileSuffix))
	os.WriteFile(filepath.Join(dir, "torn"+snapshot.FileSuffix), good[:len(good)/3], 0o666)
	old := bytes.Replace(good, []byte(snapshot.Magic+"\n"), []byte("slc-snapshot-v2\n"), 1)
	os.WriteFile(filepath.Join(dir, "boot"+snapshot.FileSuffix), old, 0o666)

	st2, err := snapshot.OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats().Quarantined; got != 2 {
		t.Errorf("recovery quarantined %d files, want 2", got)
	}
	if _, err := st2.Load("good"); err != nil {
		t.Errorf("good snapshot lost to recovery: %v", err)
	}
	for _, name := range []string{"torn", "boot"} {
		if _, err := st2.Load(name); !errors.Is(err, snapshot.ErrNotFound) {
			t.Errorf("Load(%s) = %v, want ErrNotFound", name, err)
		}
	}
}

func TestStoreFaultInjection(t *testing.T) {
	t.Run("snapshot-write", func(t *testing.T) {
		plan, err := diag.ParsePlan("snapshot:*:snapshot-write")
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		st, err := snapshot.OpenStore(dir, plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Save("boot", testSnapshot(t, 0)); err != nil {
			t.Fatal(err)
		}
		// The fault wrote a torn file straight to the final path: loading
		// it must quarantine, not serve.
		if _, err := st.Load("boot"); err == nil || errors.Is(err, snapshot.ErrNotFound) {
			t.Errorf("torn snapshot load: got %v, want a corruption error", err)
		}
		st.Close()
		// A fresh open must also catch it via recovery if it were still
		// there (it is not — Load already quarantined it).
		st2, err := snapshot.OpenStore(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		if _, err := st2.Load("boot"); !errors.Is(err, snapshot.ErrNotFound) {
			t.Errorf("post-quarantine open: got %v, want ErrNotFound", err)
		}
	})
	t.Run("snapshot-read", func(t *testing.T) {
		plan, err := diag.ParsePlan("snapshot:unit=boot:snapshot-read")
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		clean, err := snapshot.OpenStore(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := clean.Save("boot", testSnapshot(t, 0)); err != nil {
			t.Fatal(err)
		}
		if err := clean.Save("other", testSnapshot(t, 0)); err != nil {
			t.Fatal(err)
		}
		clean.Close()
		st, err := snapshot.OpenStore(dir, plan)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.Load("boot"); err == nil {
			t.Error("snapshot-read fault did not fail the load")
		}
		if st.Stats().Corrupt != 1 {
			t.Errorf("corrupt count = %d, want 1", st.Stats().Corrupt)
		}
		// The selector matched only "boot"; other snapshots still load.
		if _, err := st.Load("other"); err != nil {
			t.Errorf("unmatched snapshot failed: %v", err)
		}
	})
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "image.snap")
	snap := testSnapshot(t, 0)
	if err := snapshot.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != snap.Meta {
		t.Errorf("file round trip meta mismatch")
	}
	// Corrupt in place: the reader must quarantine (rename) the file.
	data, _ := os.ReadFile(path)
	data[len(data)-3] ^= 0x1
	os.WriteFile(path, data, 0o666)
	if _, err := snapshot.ReadFile(path); err == nil {
		t.Fatal("corrupt file read succeeded")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt file still present at its path")
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Errorf("corrupt file not renamed aside: %v", err)
	}
}

// TestTwoProcessStore has two real processes share one snapshot
// directory: children write distinct names concurrently (flock
// serializes the writes), the parent then verifies every snapshot loads
// clean.
func TestTwoProcessStore(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dir := t.TempDir()
	children := spawnWriters(t, dir, 2)
	for _, c := range children {
		if err := c.Wait(); err != nil {
			t.Fatalf("writer child failed: %v\n%s", err, c.Stdout)
		}
	}
	st, err := snapshot.OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	loaded := 0
	for w := 0; w < 2; w++ {
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("w%d-%d", w, i)
			snap, err := st.Load(name)
			if err != nil {
				t.Errorf("Load(%s): %v", name, err)
				continue
			}
			if snap.Meta.ImageHash == "" || len(snap.Image.Code) == 0 {
				t.Errorf("snapshot %s is hollow", name)
			}
			loaded++
		}
	}
	if loaded != 16 {
		t.Errorf("loaded %d snapshots, want 16", loaded)
	}
	if st.Stats().Corrupt != 0 {
		t.Error("corrupt snapshots appeared in a crash-free run")
	}
	names, _ := os.ReadDir(dir)
	for _, de := range names {
		if strings.Contains(de.Name(), ".tmp") {
			t.Errorf("temp debris %s left behind", de.Name())
		}
	}
}

// spawnWriters builds the child commands for the multi-process tests.
func spawnWriters(t *testing.T, dir string, n int) []*exec.Cmd {
	t.Helper()
	cmds := make([]*exec.Cmd, 0, n)
	for w := 0; w < n; w++ {
		cmd := exec.Command(os.Args[0], "-test.run=TestHelperStoreWriter$", "-test.v=false")
		cmd.Env = append(os.Environ(),
			"SLC_SNAP_WRITER_DIR="+dir,
			fmt.Sprintf("SLC_SNAP_WRITER_ID=w%d", w))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds = append(cmds, cmd)
	}
	return cmds
}

// TestHelperStoreWriter is the child body for TestTwoProcessStore: it
// saves 8 snapshots under its writer id and exits.
func TestHelperStoreWriter(t *testing.T) {
	dir := os.Getenv("SLC_SNAP_WRITER_DIR")
	if dir == "" {
		t.Skip("helper process for TestTwoProcessStore")
	}
	st, err := snapshot.OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap := testSnapshot(t, 64)
	for i := 0; i < 8; i++ {
		if err := st.Save(fmt.Sprintf("%s-%d", os.Getenv("SLC_SNAP_WRITER_ID"), i), snap); err != nil {
			t.Fatal(err)
		}
	}
}
