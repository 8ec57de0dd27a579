package durable_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/compilecache"
	"repro/internal/diag"
	"repro/internal/durable"
	"repro/internal/s1"
	"repro/internal/snapshot"
)

// kind is one real payload the protocol carries, framed the way its
// package frames it: a compile-cache entry or a machine snapshot. Its
// format's Decode checks the payload decodes to the value payload(name)
// encoded, so a read that succeeds returned a verified payload.
type kind struct {
	name    string
	format  *durable.Format[[]byte]
	payload func(name string) []byte
	// plan arms each of the format's fault kinds for the unit "victim".
	plan string
}

// unframe strips a framed file's magic and checksum lines.
func unframe(t testing.TB, data []byte) []byte {
	t.Helper()
	_, rest, _ := bytes.Cut(data, []byte{'\n'})
	_, payload, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok {
		t.Fatal("unframed snapshot bytes")
	}
	return payload
}

// kinds returns the two payload kinds, sized by n: instructions in the
// cache entry's body, words in the snapshot's heap.
func kinds(t testing.TB, n int) []kind {
	entry := func(name string) *compilecache.DiskEntry {
		code := make([]s1.Instr, n)
		for i := range code {
			code[i] = s1.Instr{Op: s1.OpMOV, Comment: fmt.Sprintf("filler %d", i)}
		}
		return &compilecache.DiskEntry{Key: name, Name: "f", MinArgs: 1, MaxArgs: 1,
			Capture: s1.Capture{Funcs: []s1.Body{{Name: "f", Code: code}}}}
	}
	snap := func(name string) *snapshot.Snapshot {
		heap := make([]s1.Word, n)
		for i := range heap {
			heap[i] = s1.FixnumWord(int64(i))
		}
		return &snapshot.Snapshot{Meta: snapshot.Meta{ImageHash: name},
			Sources: []string{"(defun answer () 42)"}, Image: &s1.Image{Heap: heap}}
	}
	snapFormat := &durable.Format[[]byte]{Magic: snapshot.Magic, Suffix: snapshot.FileSuffix,
		Event: "snapshot-quarantine", Phase: "snapshot",
		TornWrite: diag.KindSnapshotWrite, FailRead: diag.KindSnapshotRead}
	snapFormat.Decode = func(name string, p []byte) ([]byte, error) {
		s, err := snapshot.DecodeBytes(snapFormat.Frame(p))
		if err == nil && (s.Meta.ImageHash != name || s.Image == nil || len(s.Image.Heap) != n) {
			err = fmt.Errorf("snapshot %s decoded mangled", name)
		}
		return bytes.Clone(p), err
	}
	return []kind{{
		name: "cache-entry",
		format: &durable.Format[[]byte]{Magic: "slc-cache-entry-v2", Suffix: ".e",
			Event: "cache-quarantine", Phase: "disk", TornWrite: diag.KindCacheWrite,
			Decode: func(name string, p []byte) ([]byte, error) {
				e, err := compilecache.DecodeEntry(name, p)
				if err == nil && (e.Key != name || len(e.Capture.Funcs) != 1 || len(e.Capture.Funcs[0].Code) != n) {
					err = fmt.Errorf("entry %s decoded mangled", name)
				}
				return bytes.Clone(p), err
			}},
		payload: func(name string) []byte { return entry(name).Payload() },
		plan:    "disk:unit=victim:cache-write",
	}, {
		name:   "snapshot",
		format: snapFormat,
		payload: func(name string) []byte {
			data, err := snap(name).Bytes()
			if err != nil {
				t.Fatal(err)
			}
			return unframe(t, data)
		},
		plan: "snapshot:unit=victim:snapshot-write;snapshot:unit=victim:snapshot-read",
	}}
}

func quarantined(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range ents {
		names = append(names, de.Name())
	}
	return names
}

// TestFrame checks the frame and the directory protocol over both
// payload kinds: every bit flip, truncation and trailing byte is
// rejected, a skewed version is ErrVersion, reads quarantine what does
// not verify, recovery quarantines a crashed writer's debris, and with
// a fault plan armed the torn-write and failed-read faults quarantine
// exactly the unit they select.
func TestFrame(t *testing.T) {
	for _, k := range kinds(t, 16) {
		t.Run(k.name, func(t *testing.T) {
			data := k.format.Frame(k.payload("good"))
			if p, err := k.format.Parse("good", data); err != nil || !bytes.Equal(p, k.payload("good")) {
				t.Fatalf("round trip: %v", err)
			}
			for off := 0; off < len(data); off += 7 {
				mut := slices.Clone(data)
				mut[off] ^= 0x20
				if _, err := k.format.Parse("good", mut); err == nil {
					t.Errorf("bit flip at offset %d went undetected", off)
				}
			}
			for n := 0; n < len(data); n += 5 {
				if _, err := k.format.Parse("good", data[:n]); err == nil {
					t.Errorf("truncation to %d of %d bytes went undetected", n, len(data))
				}
			}
			if _, err := k.format.Parse("good", data[:len(data)-1]); err == nil {
				t.Error("dropping the last byte went undetected")
			}
			if _, err := k.format.Parse("good", append(slices.Clone(data), "junk"...)); err == nil {
				t.Error("trailing junk went undetected")
			}
			prefix := strings.TrimRight(k.format.Magic, "0123456789")
			for _, v := range []string{"0", "99"} {
				skew := bytes.Replace(data, []byte(k.format.Magic), []byte(prefix+v), 1)
				if _, err := k.format.Parse("good", skew); !errors.Is(err, durable.ErrVersion) {
					t.Errorf("version %s: got %v, want ErrVersion", v, err)
				}
			}
			alien := bytes.Replace(data, []byte(k.format.Magic), []byte("not-a-durable-file"), 1)
			if _, err := k.format.Parse("good", alien); err == nil || errors.Is(err, durable.ErrVersion) {
				t.Errorf("alien magic: got %v, want a plain corruption error", err)
			}
			// A payload that verifies but does not decode is corrupt too.
			if _, err := k.format.Parse("good", k.format.Frame([]byte("not a payload"))); err == nil {
				t.Error("undecodable payload accepted")
			}

			t.Run("plain", func(t *testing.T) { testDir(t, k, "") })
			t.Run("fault-plan", func(t *testing.T) { testDir(t, k, k.plan) })
		})
	}
}

func testDir(t *testing.T, k kind, planSrc string) {
	plan, err := diag.ParsePlan(planSrc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := durable.Open(dir, k.format, plan)
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	d.SetEventHook(func(kind, name string) { events = append(events, kind+":"+name) })
	for _, name := range []string{"good", "doomed"} {
		if err := d.Write(name, name, k.payload(name)); err != nil {
			t.Fatal(err)
		}
	}
	if p, err := d.Read("good"); err != nil || !bytes.Equal(p, k.payload("good")) {
		t.Fatalf("Read(good) = %v", err)
	}
	if _, err := d.Read("absent"); !errors.Is(err, durable.ErrNotFound) {
		t.Errorf("Read(absent) = %v, want ErrNotFound", err)
	}

	// Damage a published file: the read quarantines it, reports it
	// corrupt once, then misses cleanly, and a writer can repopulate.
	doomed := filepath.Join(dir, "doomed"+k.format.Suffix)
	raw, err := os.ReadFile(doomed)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	os.WriteFile(doomed, raw, 0o666)
	if _, err := d.Read("doomed"); !errors.Is(err, durable.ErrCorrupt) {
		t.Errorf("Read(damaged) = %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(doomed); !errors.Is(err, os.ErrNotExist) {
		t.Error("damaged file still in place after the read")
	}
	if want := k.format.Event + ":doomed" + k.format.Suffix; len(events) != 1 || events[0] != want {
		t.Errorf("events = %v, want [%s]", events, want)
	}
	if _, err := d.Read("doomed"); !errors.Is(err, durable.ErrNotFound) {
		t.Errorf("Read after quarantine = %v, want ErrNotFound", err)
	}
	if err := d.Write("doomed", "doomed", k.payload("doomed")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read("doomed"); err != nil {
		t.Errorf("repopulated file: %v", err)
	}
	want := durable.Stats{Writes: 3, Reads: 2, Misses: 2, Corrupt: 1}

	if plan != nil {
		// The torn write lands at the final path and never verifies; a
		// failed read quarantines a good file. Both only for "victim".
		if err := d.Write("victim", "victim", k.payload("victim")); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Read("victim"); !errors.Is(err, durable.ErrCorrupt) {
			t.Errorf("Read(torn) = %v, want ErrCorrupt", err)
		}
		want.Corrupt++
		if k.format.FailRead != "" {
			if err := durable.WriteAtomic(dir, "victim"+k.format.Suffix, k.format.Frame(k.payload("victim"))); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Read("victim"); !errors.Is(err, durable.ErrCorrupt) {
				t.Errorf("Read under a %s fault = %v, want ErrCorrupt", k.format.FailRead, err)
			}
			want.Corrupt++
		}
		if _, err := d.Read("good"); err != nil {
			t.Errorf("a fault for another unit failed Read(good): %v", err)
		}
		want.Reads++
	}
	if st := d.Stats(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	d.Close()

	// A crashed writer's debris: a stray temp file, a torn file, an
	// unknown file and a version-skewed file. Recovery at open moves all
	// four into quarantine, beside the file the read quarantined, and
	// keeps the good ones.
	good, _ := os.ReadFile(filepath.Join(dir, "good"+k.format.Suffix))
	os.WriteFile(filepath.Join(dir, "x"+k.format.Suffix+".tmp123"), []byte("partial"), 0o666)
	os.WriteFile(filepath.Join(dir, "torn"+k.format.Suffix), good[:len(good)/3], 0o666)
	os.WriteFile(filepath.Join(dir, "README"), []byte("?"), 0o666)
	old := bytes.Replace(good, []byte(k.format.Magic), []byte(strings.TrimRight(k.format.Magic, "0123456789")+"0"), 1)
	os.WriteFile(filepath.Join(dir, "old"+k.format.Suffix), old, 0o666)
	d2, err := durable.Open(dir, k.format, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Stats().Quarantined; got != 4 {
		t.Errorf("recovery quarantined %d files, want 4", got)
	}
	for _, name := range []string{"good", "doomed"} {
		if _, err := d2.Read(name); err != nil {
			t.Errorf("recovery lost %s: %v", name, err)
		}
	}
	for _, name := range []string{"torn", "old"} {
		if _, err := d2.Read(name); !errors.Is(err, durable.ErrNotFound) {
			t.Errorf("Read(%s) after recovery = %v, want ErrNotFound", name, err)
		}
	}
	q := strings.Join(quarantined(t, dir), ",")
	for _, name := range []string{"doomed" + k.format.Suffix, "x" + k.format.Suffix + ".tmp123", "torn" + k.format.Suffix, "README", "old" + k.format.Suffix} {
		if !strings.Contains(q, name) {
			t.Errorf("quarantine holds %q, missing %s", q, name)
		}
	}
}
