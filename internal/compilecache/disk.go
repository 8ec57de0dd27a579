// The durable layer of the compile cache: a crash-safe on-disk store of
// compilation results that survives process restarts and concurrent use
// by multiple compiler processes.
//
// What is stored is not the machine image bytes of a compiled function —
// items embed machine-local symbol indices, function indices, and heap
// addresses — but a *capture* of the machine mutations its emission
// performed (s1.Capture): the symbols interned, the printed forms of the
// heap constants built, and the function bodies installed, each in
// original order. Replaying those mutations against a machine whose
// allocator context (s1.AllocContext) matches the one recorded at
// capture time reproduces the emission word for word, so a disk hit is
// byte-identical to a recompile. A context mismatch is not an error —
// the caller just compiles the unit normally.
//
// Durability protocol (DESIGN.md §11):
//
//   - every entry lives in its own file <key>.e: a magic line, a hex
//     sha256 of the payload, then the gob-encoded DiskEntry
//   - writes go to a unique .tmp file, fsynced, then atomically renamed
//     into place, then the directory is fsynced — a crash at any point
//     leaves either no entry or a complete one, never a half-visible one
//   - a flock(2) on <dir>/.lock serializes operations across processes;
//     in-process callers are additionally serialized by a mutex
//   - Recover (run at open) quarantines stray .tmp files and entries
//     whose checksum or encoding does not verify, moving them into
//     <dir>/quarantine/ for post-mortem rather than deleting evidence
//   - reads verify the checksum again and quarantine on mismatch, so a
//     torn write that somehow survives recovery still cannot become a
//     hit; repeated corrupt hits trip a circuit breaker (breaker.go)
//     that stops consulting the disk for a cooldown period
package compilecache

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"repro/internal/diag"
	"repro/internal/s1"
	"repro/internal/sexp"
)

// diskMagic is the first line of every entry file; bump the version on
// any format change so old entries quarantine instead of misdecoding.
const diskMagic = "slc-cache-entry-v1"

// quarantineDir holds entries that failed verification.
const quarantineDir = "quarantine"

// DiskEntry is one durable compilation result: the capture of the
// emission plus everything needed to decide whether it can be replayed.
type DiskEntry struct {
	// Key echoes the content address so a renamed/cross-linked file is
	// detected as corrupt.
	Key string
	// Name is the unit (defun) name, for diagnostics.
	Name string
	// MinArgs/MaxArgs mirror the function descriptor.
	MinArgs, MaxArgs int
	// GenBefore/GenDelta pin the compiler's gensym counter: replay is
	// valid only when the counter equals GenBefore (the captured items
	// embed generated label names), and afterwards the counter must
	// advance by GenDelta to keep subsequent units identical too.
	GenBefore, GenDelta int
	// Ctx is the allocator-context fingerprint the capture was made in;
	// replay into any other context must fall back to recompilation.
	Ctx string
	// Capture is the recorded emission.
	Capture s1.Capture
}

// Replayable reports whether the entry can be replayed into machine m
// with compiler gensym counter gen, and why not if it cannot.
func (e *DiskEntry) Replayable(m *s1.Machine, gen int) error {
	if ctx := m.AllocContext(); ctx != e.Ctx {
		return fmt.Errorf("compilecache: allocator context %s does not match entry's %s", ctx, e.Ctx)
	}
	if gen != e.GenBefore {
		return fmt.Errorf("compilecache: gensym counter %d does not match entry's %d", gen, e.GenBefore)
	}
	if len(e.Capture.Funcs) == 0 {
		return fmt.Errorf("compilecache: entry for %s installs no functions", e.Name)
	}
	return nil
}

// Install replays the captured emission into m, returning the function
// index of the unit's own body (the last function installed). The caller
// must have checked Replayable first; Install re-checks the context so a
// stale call cannot corrupt the machine.
func (e *DiskEntry) Install(m *s1.Machine) (int, error) {
	if ctx := m.AllocContext(); ctx != e.Ctx {
		return 0, fmt.Errorf("compilecache: allocator context changed before install")
	}
	for _, name := range e.Capture.Syms {
		m.InternSym(name)
	}
	// The replayed constants stay pinned, as they were while the capture
	// compiled, until the bodies referencing them are installed.
	defer m.Unpin(m.PinDepth())
	for _, src := range e.Capture.Consts {
		v, err := sexp.ReadOne(src)
		if err != nil {
			return 0, fmt.Errorf("compilecache: replaying constant %q: %w", src, err)
		}
		m.Pin(m.FromValue(v))
	}
	idx := -1
	for _, f := range e.Capture.Funcs {
		i, err := m.AddFunction(f.Name, f.MinArgs, f.MaxArgs, s1.ToItems(f.Items))
		if err != nil {
			return 0, fmt.Errorf("compilecache: replaying body %s: %w", f.Name, err)
		}
		idx = i
	}
	return idx, nil
}

// DiskStats meters the durable layer.
type DiskStats struct {
	Hits, Misses  int64
	Stores        int64
	Corrupt       int64 // entries quarantined at lookup time
	Quarantined   int64 // entries/temps quarantined by Recover
	BreakerShunts int64 // lookups skipped because the breaker was open
}

// Disk is the crash-safe persistent cache layer. All operations take the
// directory flock, so any number of processes can share one directory.
type Disk struct {
	mu      sync.Mutex
	dir     string
	lock    *os.File
	fault   *diag.Plan
	breaker *Breaker
	stats   DiskStats
	// onEvent, when non-nil, receives ("cache-quarantine", filename) each
	// time an entry or temp file is moved to quarantine — the flight
	// recorder's window into on-disk corruption handling.
	onEvent func(kind, name string)
}

// SetEventHook installs the event callback (see onEvent). Safe to call
// on a live handle; the hook must itself be safe for concurrent use.
func (d *Disk) SetEventHook(fn func(kind, name string)) {
	d.mu.Lock()
	d.onEvent = fn
	d.mu.Unlock()
}

// OpenDisk opens (creating if needed) a durable cache directory, runs
// crash recovery, and returns the handle. The fault plan may be nil.
func OpenDisk(dir string, fault *diag.Plan) (*Disk, error) {
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o777); err != nil {
		return nil, fmt.Errorf("compilecache: creating cache dir: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, ".lock"), os.O_CREATE|os.O_RDWR, 0o666)
	if err != nil {
		return nil, fmt.Errorf("compilecache: opening lock file: %w", err)
	}
	d := &Disk{dir: dir, lock: lock, fault: fault, breaker: NewBreaker(DefaultBreakerThreshold, DefaultBreakerCooldown)}
	if _, err := d.Recover(); err != nil {
		lock.Close()
		return nil, err
	}
	return d, nil
}

// Close releases the lock file. The directory stays valid for reopening.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lock == nil {
		return nil
	}
	err := d.lock.Close()
	d.lock = nil
	return err
}

// Dir returns the cache directory path.
func (d *Disk) Dir() string { return d.dir }

// Stats returns a copy of the layer's meters.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Breaker exposes the corrupt-entry circuit breaker (for meters and
// tests).
func (d *Disk) Breaker() *Breaker { return d.breaker }

// flock takes the cross-process lock; callers hold d.mu.
func (d *Disk) flock() error {
	if d.lock == nil {
		return fmt.Errorf("compilecache: disk layer is closed")
	}
	return syscall.Flock(int(d.lock.Fd()), syscall.LOCK_EX)
}

func (d *Disk) funlock() {
	if d.lock != nil {
		syscall.Flock(int(d.lock.Fd()), syscall.LOCK_UN)
	}
}

// Recover scans the directory for debris from crashed writers: stray
// temp files and entries that fail verification are moved into the
// quarantine subdirectory. It returns the number of files quarantined.
func (d *Disk) Recover() (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.flock(); err != nil {
		return 0, err
	}
	defer d.funlock()
	names, err := os.ReadDir(d.dir)
	if err != nil {
		return 0, fmt.Errorf("compilecache: scanning cache dir: %w", err)
	}
	moved := 0
	for _, de := range names {
		name := de.Name()
		switch {
		case de.IsDir() || name == ".lock":
			continue
		case strings.Contains(name, ".tmp"):
			// A temp file can only exist if its writer died mid-write.
			d.quarantineLocked(name)
			moved++
		case strings.HasSuffix(name, ".e"):
			if _, err := d.readVerifyLocked(name); err != nil {
				d.quarantineLocked(name)
				moved++
			}
		default:
			// Unknown debris: quarantine rather than guess.
			d.quarantineLocked(name)
			moved++
		}
	}
	d.stats.Quarantined += int64(moved)
	return moved, nil
}

// quarantineLocked moves one file into the quarantine directory; callers
// hold the locks. Move failures fall back to removal — a bad entry must
// never stay where Lookup can find it.
func (d *Disk) quarantineLocked(name string) {
	src := filepath.Join(d.dir, name)
	dst := filepath.Join(d.dir, quarantineDir, name)
	if err := os.Rename(src, dst); err != nil {
		os.Remove(src)
	}
	if d.onEvent != nil {
		d.onEvent("cache-quarantine", name)
	}
}

// entryPath returns the final path for a key's entry file.
func (d *Disk) entryPath(key string) string {
	return filepath.Join(d.dir, key+".e")
}

// readVerifyLocked reads and fully verifies one entry file, returning
// the decoded entry.
func (d *Disk) readVerifyLocked(name string) (*DiskEntry, error) {
	data, err := os.ReadFile(filepath.Join(d.dir, name))
	if err != nil {
		return nil, err
	}
	rest, ok := strings.CutPrefix(string(data), diskMagic+"\n")
	if !ok {
		return nil, fmt.Errorf("compilecache: %s: bad magic", name)
	}
	sum, payload, ok := strings.Cut(rest, "\n")
	if !ok {
		return nil, fmt.Errorf("compilecache: %s: truncated header", name)
	}
	if got := sha256.Sum256([]byte(payload)); hex.EncodeToString(got[:]) != sum {
		return nil, fmt.Errorf("compilecache: %s: checksum mismatch", name)
	}
	var e DiskEntry
	if err := gob.NewDecoder(strings.NewReader(payload)).Decode(&e); err != nil {
		return nil, fmt.Errorf("compilecache: %s: decoding: %w", name, err)
	}
	if want := strings.TrimSuffix(name, ".e"); e.Key != want {
		return nil, fmt.Errorf("compilecache: %s: entry key %s does not match file name", name, e.Key)
	}
	return &e, nil
}

// Lookup returns the durable entry for key, or (nil, false) on a miss.
// A corrupt entry is quarantined, counted against the circuit breaker,
// and reported as a miss; when the breaker is open the disk is not
// consulted at all.
func (d *Disk) Lookup(key string) (*DiskEntry, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.breaker.Allow() {
		d.stats.BreakerShunts++
		d.stats.Misses++
		return nil, false
	}
	if err := d.flock(); err != nil {
		d.stats.Misses++
		return nil, false
	}
	defer d.funlock()
	name := key + ".e"
	if _, err := os.Stat(d.entryPath(key)); err != nil {
		d.stats.Misses++
		return nil, false
	}
	e, err := d.readVerifyLocked(name)
	if err != nil {
		d.quarantineLocked(name)
		d.stats.Corrupt++
		d.stats.Misses++
		d.breaker.RecordCorrupt()
		return nil, false
	}
	d.stats.Hits++
	d.breaker.RecordSuccess()
	return e, true
}

// Store durably writes the entry for key using the temp-file +
// atomic-rename protocol. A cache-write fault (diag.KindCacheWrite)
// instead writes a deliberately torn entry straight to the final path,
// simulating a crash mid-write with the atomicity protocol bypassed —
// recovery and lookup verification must both catch it.
func (d *Disk) Store(key string, e *DiskEntry) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(e); err != nil {
		return fmt.Errorf("compilecache: encoding entry for %s: %w", e.Name, err)
	}
	sum := sha256.Sum256(payload.Bytes())
	var full bytes.Buffer
	fmt.Fprintf(&full, "%s\n%s\n", diskMagic, hex.EncodeToString(sum[:]))
	full.Write(payload.Bytes())

	if err := d.flock(); err != nil {
		return err
	}
	defer d.funlock()
	if d.fault.Should(diag.KindCacheWrite, "disk", e.Name) {
		torn := full.Bytes()[:full.Len()/2]
		return os.WriteFile(d.entryPath(key), torn, 0o666)
	}
	if err := AtomicWriteFile(d.dir, key+".e", full.Bytes()); err != nil {
		return fmt.Errorf("compilecache: %w", err)
	}
	d.stats.Stores++
	return nil
}
