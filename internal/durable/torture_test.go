package durable_test

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
)

// tortureN sizes the payloads so the write window (temp write + fsync +
// rename) is wide enough for SIGKILL to land inside it.
const tortureN = 4096

// tortureNames is how many names a writer cycles through: several
// distinct cache entries, or one snapshot checkpointed over and over.
func tortureNames(k kind) int {
	if k.name == "snapshot" {
		return 1
	}
	return 8
}

func tortureKind(t testing.TB, name string) kind {
	for _, k := range kinds(t, tortureN) {
		if k.name == name {
			return k
		}
	}
	t.Fatalf("no payload kind %q", name)
	return kind{}
}

// TestHelperWriteLoop is the child body for TestKill9Torture: it writes
// large files as fast as it can until killed.
func TestHelperWriteLoop(t *testing.T) {
	dir := os.Getenv("DURABLE_TORTURE_DIR")
	if dir == "" {
		t.Skip("helper process for TestKill9Torture")
	}
	k := tortureKind(t, os.Getenv("DURABLE_TORTURE_KIND"))
	d, err := durable.Open(dir, k.format, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Encode up front, so that the loop is all writes and a kill (even
	// under -race, where encoding is slow) lands inside one.
	payloads := make([][]byte, tortureNames(k))
	for i := range payloads {
		payloads[i] = k.payload(fmt.Sprintf("bulk%04d", i))
	}
	for i := 0; ; i++ {
		if err := d.Write(fmt.Sprintf("bulk%04d", i%len(payloads)), "bulk", payloads[i%len(payloads)]); err != nil {
			t.Fatal(err)
		}
	}
}

// published snapshots the renamed-into-place files in dir (a temp
// file's name carries ".tmp" after the suffix).
func published(dir, suffix string) map[string]os.FileInfo {
	out := map[string]os.FileInfo{}
	ents, _ := os.ReadDir(dir)
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), suffix) {
			if fi, err := de.Info(); err == nil {
				out[de.Name()] = fi
			}
		}
	}
	return out
}

// publishedSince reports whether dir holds a file published after
// before was taken: a new name, or a name renamed over.
func publishedSince(dir, suffix string, before map[string]os.FileInfo) bool {
	for name, fi := range published(dir, suffix) {
		if old, ok := before[name]; !ok || !os.SameFile(old, fi) {
			return true
		}
	}
	return false
}

// TestKill9Torture hammers the protocol directly, for both payload
// kinds: SIGKILL a tight writer loop repeatedly, each kill aimed after
// the child has published a file, then reopen (running recovery) and
// require that every read returns a verified payload or misses cleanly,
// that a file once verified is never lost to a later kill (the write is
// atomic), that nothing corrupt reaches a read past recovery, that some
// round served a file, and that no temp file is left in the root.
func TestKill9Torture(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	for _, name := range []string{"cache-entry", "snapshot"} {
		t.Run(name, func(t *testing.T) {
			k := tortureKind(t, name)
			dir := t.TempDir()
			served, seen := 0, map[string]bool{}
			for round := 0; round < 10; round++ {
				before := published(dir, k.format.Suffix)
				cmd := exec.Command(os.Args[0], "-test.run=TestHelperWriteLoop$", "-test.v=false")
				cmd.Env = append(os.Environ(), "DURABLE_TORTURE_DIR="+dir, "DURABLE_TORTURE_KIND="+name)
				if err := cmd.Start(); err != nil {
					t.Fatal(err)
				}
				// Process startup varies wildly (e.g. under -race), and a
				// temp file appears long before its rename: wait for this
				// child's first publish before aiming the kill.
				deadline := time.Now().Add(10 * time.Second)
				for time.Now().Before(deadline) && !publishedSince(dir, k.format.Suffix, before) {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(time.Duration(2+round*3) * time.Millisecond)
				cmd.Process.Kill()
				cmd.Wait()

				d, err := durable.Open(dir, k.format, nil)
				if err != nil {
					t.Fatalf("round %d: unopenable after kill: %v", round, err)
				}
				for i := 0; i < tortureNames(k); i++ {
					name := fmt.Sprintf("bulk%04d", i)
					_, err := d.Read(name)
					switch {
					case err == nil:
						served++
						seen[name] = true
					case !errors.Is(err, durable.ErrNotFound):
						t.Errorf("round %d: read failed past recovery: %v", round, err)
					case seen[name]:
						// A kill mid-overwrite must leave the old file or the
						// new one, never neither.
						t.Errorf("round %d: %s verified in an earlier round and is gone", round, name)
					}
				}
				if st := d.Stats(); st.Corrupt != 0 {
					t.Errorf("round %d: %d corrupt files reached a read past recovery", round, st.Corrupt)
				}
				d.Close()
			}
			if served == 0 {
				t.Error("no round served a file; the writer never completed a write")
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, de := range ents {
				if strings.Contains(de.Name(), ".tmp") {
					t.Errorf("temp file %s survived recovery in the root", de.Name())
				}
			}
			t.Logf("%s torture: %d verified reads, %d files quarantined", name, served, len(quarantined(t, dir)))
		})
	}
}
