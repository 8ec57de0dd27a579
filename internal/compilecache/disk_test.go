package compilecache

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/s1"
)

func testEntry(key, name string) *DiskEntry {
	return &DiskEntry{
		Key:     key,
		Name:    name,
		MinArgs: 1, MaxArgs: 1,
		Ctx: "0000000000000000",
		Capture: s1.Capture{
			Syms:   []string{name},
			Consts: []string{"(1 2 3)"},
			Funcs: []s1.Body{{
				Name: name, MinArgs: 1, MaxArgs: 1,
				Code: []s1.Instr{{Op: s1.OpRET}},
			}},
		},
	}
}

func TestDiskStoreLookupRoundTrip(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	e := testEntry("k1", "f")
	if err := d.Store("k1", e); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Lookup("k1")
	if !ok {
		t.Fatal("stored entry missed")
	}
	if got.Name != "f" || len(got.Capture.Funcs) != 1 || got.Capture.Funcs[0].Code[0].Op != s1.OpRET {
		t.Errorf("round-trip mangled entry: %+v", got)
	}
	if _, ok := d.Lookup("absent"); ok {
		t.Error("absent key hit")
	}
	st := d.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Store("k1", testEntry("k1", "f")); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d2, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, ok := d2.Lookup("k1"); !ok {
		t.Error("entry lost across reopen")
	}
}

func TestRecoverQuarantinesDebris(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Store("good", testEntry("good", "f")); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Simulate a crashed writer: a stray temp file and a torn entry. An
	// entry the previous format (slc-cache-entry-v1, a gob stream) wrote
	// verifies its checksum but not its version.
	if err := os.WriteFile(filepath.Join(dir, "dead.tmp123"), []byte("partial"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "torn.e"), []byte(entryFormat.Magic+"\nabcd\ngarbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(entryFormat.Frame(testEntry("old", "f").Payload())), entryFormat.Magic, "slc-cache-entry-v1", 1)
	if err := os.WriteFile(filepath.Join(dir, "old.e"), []byte(old), 0o666); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, ok := d2.Lookup("good"); !ok {
		t.Error("recovery lost the good entry")
	}
	if _, ok := d2.Lookup("torn"); ok {
		t.Error("torn entry served as a hit")
	}
	if _, ok := d2.Lookup("old"); ok {
		t.Error("previous-version entry served as a hit")
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(q))
	for _, f := range q {
		names = append(names, f.Name())
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "dead.tmp123") || !strings.Contains(joined, "torn.e") || !strings.Contains(joined, "old.e") {
		t.Errorf("quarantine holds %q, want the temp, the torn and the old-version entry", joined)
	}
}

func TestLookupQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Store("k1", testEntry("k1", "f")); err != nil {
		t.Fatal(err)
	}
	// Corrupt in place after the verified store.
	path := filepath.Join(dir, "k1.e")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Lookup("k1"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if d.Stats().Corrupt != 1 {
		t.Errorf("corrupt meter = %d, want 1", d.Stats().Corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry still in place after lookup")
	}
	// The key now misses cleanly (no file), so a writer can repopulate.
	if err := d.Store("k1", testEntry("k1", "f")); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Lookup("k1"); !ok {
		t.Error("repopulated entry missed")
	}
}

func TestCacheWriteFaultTearsEntry(t *testing.T) {
	plan, err := diag.ParsePlan("disk:*:cache-write")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := OpenDisk(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Store("k1", testEntry("k1", "f")); err != nil {
		t.Fatal(err)
	}
	// The torn write bypassed the atomic protocol: the file exists at the
	// final path but must never verify.
	if _, ok := d.Lookup("k1"); ok {
		t.Fatal("torn entry served as a hit")
	}
	d.Close()
	// And a restart quarantines it.
	d2, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, ok := d2.Lookup("k1"); ok {
		t.Error("torn entry survived recovery")
	}
}

func TestMismatchedKeyIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Store("k1", testEntry("k1", "f")); err != nil {
		t.Fatal(err)
	}
	// A cross-linked file: valid bytes under the wrong name.
	data, err := os.ReadFile(filepath.Join(dir, "k1.e"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "k2.e"), data, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Lookup("k2"); ok {
		t.Error("cross-linked entry served as a hit")
	}
}

// TestUnassemblableEntryIsCorrupt: an entry whose checksum verifies but
// whose captured body jumps outside itself could never replay, so a
// read quarantines it as corrupt and reports a miss. Recovery at open checks frames only, so the entry
// survives a reopen and its first lookup there quarantines it.
func TestUnassemblableEntryIsCorrupt(t *testing.T) {
	// The entry's last word is the target of its last body's last
	// instruction, a jump: point it past the body's two instructions.
	bad := func(key string) []byte {
		e := testEntry(key, "f")
		e.Capture.Funcs[0].Code = []s1.Instr{{Op: s1.OpRET}, {Op: s1.OpJMP, A: s1.Lbl("l")}}
		p := e.Payload()
		binary.LittleEndian.PutUint64(p[len(p)-8:], 3)
		return p
	}
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k1", "k2"} {
		if err := d.files.Write(k, "f", bad(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := d.Lookup("k1"); ok {
		t.Fatal("unassemblable entry served as a hit")
	}
	if st := d.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Errorf("corrupt, misses = %d, %d; want 1, 1", st.Corrupt, st.Misses)
	}
	if _, err := os.Stat(filepath.Join(dir, "k1.e")); !os.IsNotExist(err) {
		t.Error("unassemblable entry still in place after lookup")
	}
	d.Close()
	d2, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, err := os.Stat(filepath.Join(dir, "k2.e")); err != nil {
		t.Errorf("recovery decoded and quarantined an entry whose frame verifies: %v", err)
	}
	if _, ok := d2.Lookup("k2"); ok {
		t.Fatal("unassemblable entry served as a hit after a reopen")
	}
	if _, err := os.Stat(filepath.Join(dir, "k2.e")); !os.IsNotExist(err) {
		t.Error("unassemblable entry still in place after its first lookup")
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreaker(3, 2*time.Second)
	b.SetClock(func() time.Time { return clock })

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker should allow")
		}
		b.RecordCorrupt()
	}
	if b.State() != BreakerClosed {
		t.Fatal("under threshold, breaker must stay closed")
	}
	b.RecordCorrupt() // third consecutive: trip
	if b.State() != BreakerOpen {
		t.Fatal("breaker should be open after threshold corrupts")
	}
	if b.Allow() {
		t.Fatal("open breaker must not allow")
	}

	clock = clock.Add(2 * time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatal("cooldown elapsed: breaker should half-open")
	}
	if !b.Allow() {
		t.Fatal("half-open breaker should admit one probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker must admit only one probe")
	}

	// Failed probe: re-open with doubled cooldown.
	b.RecordCorrupt()
	clock = clock.Add(2 * time.Second)
	if b.State() != BreakerOpen {
		t.Fatal("backoff should have doubled the cooldown")
	}
	clock = clock.Add(2 * time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatal("doubled cooldown elapsed: should half-open")
	}
	if !b.Allow() {
		t.Fatal("want a probe after backoff")
	}
	b.RecordSuccess()
	if b.State() != BreakerClosed {
		t.Fatal("successful probe should close the breaker")
	}
	// Backoff reset: a fresh trip + cooldown uses the base again.
	for i := 0; i < 3; i++ {
		b.RecordCorrupt()
	}
	clock = clock.Add(2 * time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatal("base cooldown should apply after reset")
	}
	if b.Trips() != 3 {
		t.Errorf("trips = %d, want 3", b.Trips())
	}
}

func TestDiskBreakerShuntsLookups(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	clock := time.Unix(0, 0)
	d.Breaker().SetClock(func() time.Time { return clock })
	if err := d.Store("good", testEntry("good", "f")); err != nil {
		t.Fatal(err)
	}
	// Feed it corrupt entries until it trips.
	for i := 0; i < DefaultBreakerThreshold; i++ {
		key := "bad" + string(rune('0'+i))
		path := filepath.Join(dir, key+".e")
		if err := os.WriteFile(path, []byte(entryFormat.Magic+"\nffff\njunk"), 0o666); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Lookup(key); ok {
			t.Fatal("corrupt entry hit")
		}
	}
	if d.Breaker().State() != BreakerOpen {
		t.Fatal("breaker should have tripped")
	}
	// Even the good entry is shunted while open.
	if _, ok := d.Lookup("good"); ok {
		t.Fatal("open breaker should shunt all lookups")
	}
	if d.Stats().BreakerShunts == 0 {
		t.Error("shunt meter did not move")
	}
	// After the cooldown the probe hits the good entry and closes it.
	clock = clock.Add(DefaultBreakerCooldown)
	if _, ok := d.Lookup("good"); !ok {
		t.Fatal("half-open probe should reach the good entry")
	}
	if d.Breaker().State() != BreakerClosed {
		t.Error("verified probe should close the breaker")
	}
}
