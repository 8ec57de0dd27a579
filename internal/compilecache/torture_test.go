package compilecache

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/s1"
)

// bulkEntry builds a deliberately large entry so the write window (temp
// write + fsync + rename) is wide enough for SIGKILL to land inside it.
func bulkEntry(key, name string) *DiskEntry {
	e := testEntry(key, name)
	items := make([]s1.CapturedItem, 0, 4096)
	for i := 0; i < 4096; i++ {
		items = append(items, s1.CapturedItem{IsInstr: true, Instr: s1.Instr{
			Op: s1.OpMOV, Comment: fmt.Sprintf("filler instruction %d for %s", i, name),
		}})
	}
	e.Capture.Funcs[0].Items = items
	return e
}

// TestHelperStoreLoop is the child body for TestKill9StoreTorture: it
// stores large entries as fast as it can until killed.
func TestHelperStoreLoop(t *testing.T) {
	dir := os.Getenv("SLC_STORE_TORTURE_DIR")
	if dir == "" {
		t.Skip("helper process for TestKill9StoreTorture")
	}
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; ; i++ {
		key := fmt.Sprintf("bulk%04d", i%64)
		if err := d.Store(key, bulkEntry(key, "f")); err != nil {
			t.Fatal(err)
		}
	}
}

// hasPublishedEntry reports whether dir holds a renamed-into-place
// *.e entry (a temp file's name carries ".e.tmp", not the suffix).
func hasPublishedEntry(dir string) bool {
	ents, _ := os.ReadDir(dir)
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), ".e") {
			return true
		}
	}
	return false
}

// TestKill9StoreTorture hammers the store protocol directly: SIGKILL a
// tight writer loop repeatedly, then require that recovery leaves only
// verifiable entries — every lookup either misses or returns an entry
// that decoded and checksummed clean, and nothing corrupt is ever served.
func TestKill9StoreTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	dir := t.TempDir()
	for round := 0; round < 10; round++ {
		cmd := exec.Command(os.Args[0], "-test.run=TestHelperStoreLoop$", "-test.v=false")
		cmd.Env = append(os.Environ(), "SLC_STORE_TORTURE_DIR="+dir)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Let the child publish at least one entry (process startup
		// varies wildly, e.g. under -race, and a temp file can appear
		// long before its rename) before aiming the kill at it.
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) && !hasPublishedEntry(dir) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(time.Duration(2+round*3) * time.Millisecond)
		cmd.Process.Kill()
		cmd.Wait()
	}

	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	found := 0
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("bulk%04d", i)
		if e, ok := d.Lookup(key); ok {
			found++
			if e.Key != key || len(e.Capture.Funcs) != 1 || len(e.Capture.Funcs[0].Items) != 4096 {
				t.Errorf("entry %s verified but is mangled", key)
			}
		}
	}
	if st := d.Stats(); st.Corrupt != 0 {
		t.Errorf("%d corrupt entries served past recovery", st.Corrupt)
	}
	if found == 0 {
		t.Error("no entries survived any round; the writer never completed a store")
	}
	// No temp debris may remain outside quarantine.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		if strings.Contains(de.Name(), ".tmp") {
			t.Errorf("temp file %s survived recovery in the cache root", de.Name())
		}
	}
	q, _ := os.ReadDir(filepath.Join(dir, quarantineDir))
	t.Logf("store torture: %d live entries, %d quarantined", found, len(q))
}
