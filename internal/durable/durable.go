// Package durable is the crash-safe file protocol every durable artifact
// in this repo shares: the compile cache's entries, the snapshot store,
// slc's standalone snapshot files and the daemon's session manifest
// (DESIGN.md §11).
//
// A Dir is one directory of framed files of one Format:
//
//   - a file is a magic line, a hex sha256 of the payload, then the
//     payload; the magic's trailing digits are the format version, and
//     a file of another version is reported as ErrVersion
//   - writes go to a unique .tmp file, fsynced, atomically renamed into
//     place, then the directory is fsynced: a crash at any point leaves
//     either no file or the complete new one, never a half-visible one
//   - a flock(2) on <dir>/.lock serializes operations across processes;
//     in-process callers are serialized by a mutex
//   - Open recovers: stray temp files, unknown files and files that do
//     not verify are moved into <dir>/quarantine/ for post-mortem rather
//     than deleted
//   - reads verify the frame and decode the payload again, quarantining
//     on failure, so a torn write that bypassed the protocol is never
//     served
//   - a Format's fault kinds (diag.Plan) write a torn file straight to
//     the final path, or fail a matching read, to drive those paths
package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"repro/internal/diag"
)

var (
	// ErrNotFound reports a read of a name with no file: a clean miss,
	// distinct from corruption.
	ErrNotFound = errors.New("not found")
	// ErrCorrupt marks a read whose file failed verification and was
	// quarantined.
	ErrCorrupt = errors.New("corrupt file quarantined")
	// ErrVersion marks a file written by another version of its format:
	// unusable, but not evidence of damage.
	ErrVersion = errors.New("incompatible format version")
)

// quarantineDir holds the files that failed verification.
const quarantineDir = "quarantine"

// Format describes one kind of framed file and how its payload decodes.
type Format[T any] struct {
	// Magic is the first line of every file, ending in its version.
	Magic string
	// Suffix names the published files of a Dir: name+Suffix.
	Suffix string
	// Event is the kind passed to a Dir's event hook per quarantine.
	Event string
	// Phase is the diag.Plan phase the fault kinds are consulted under.
	Phase string
	// TornWrite and FailRead are the diag fault kinds that tear a write
	// or fail a read; empty for none.
	TornWrite, FailRead string
	// Decode turns a verified payload into a value; an error makes the
	// file corrupt. name is the file's name without Suffix. A Dir reads
	// every file into one buffer, so the payload is valid only during
	// the call: Decode copies whatever it keeps.
	Decode func(name string, payload []byte) (T, error)
}

// Frame returns payload framed as a file of this format.
func (f *Format[T]) Frame(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(f.Magic)+2+2*len(sum)+len(payload))
	out = append(out, f.Magic...)
	out = append(out, '\n')
	out = hex.AppendEncode(out, sum[:])
	out = append(out, '\n')
	return append(out, payload...)
}

// Parse verifies a framed file and decodes its payload; nothing
// partially verified is ever decoded.
func (f *Format[T]) Parse(name string, data []byte) (T, error) {
	payload, err := f.verify(data)
	if err != nil {
		var zero T
		return zero, err
	}
	return f.Decode(name, payload)
}

// verify checks a framed file's magic, version and checksum and returns
// its payload, undecoded.
func (f *Format[T]) verify(data []byte) ([]byte, error) {
	magic, rest, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return nil, errors.New("truncated header")
	}
	if string(magic) != f.Magic {
		if strings.HasPrefix(string(magic), strings.TrimRight(f.Magic, "0123456789")) {
			return nil, fmt.Errorf("%w: file is %q, this build reads %q", ErrVersion, magic, f.Magic)
		}
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	sum, payload, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok {
		return nil, errors.New("truncated header")
	}
	if got := sha256.Sum256(payload); hex.EncodeToString(got[:]) != string(sum) {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

// WriteFile durably writes payload, framed, to a standalone path.
func (f *Format[T]) WriteFile(path string, payload []byte) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	return WriteAtomic(dir, base, f.Frame(payload))
}

// ReadFile reads and verifies a standalone file. A file that does not
// verify is renamed to <path>.quarantined, so the next run does not
// retry the same bad bytes.
func (f *Format[T]) ReadFile(path string) (T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := f.Parse(filepath.Base(path), data)
	if err != nil {
		if qerr := os.Rename(path, path+".quarantined"); qerr != nil {
			os.Remove(path)
		}
		return v, fmt.Errorf("%s quarantined: %w", path, err)
	}
	return v, nil
}

// WriteAtomic durably publishes data as dir/name: a unique temp file in
// dir, fsynced and closed, renamed into place, then the directory
// fsynced so the rename itself is durable. Readers still verify: the
// protocol does not protect against media damage or writers that
// bypass it.
func WriteAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("creating temp file for %s: %w", name, err)
	}
	tmpName := tmp.Name()
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if err2 := tmp.Close(); err == nil {
		err = err2
	}
	if err == nil {
		err = os.Rename(tmpName, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("publishing %s: %w", name, err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Stats meters a Dir.
type Stats struct {
	Writes, Reads, Misses int64
	Corrupt               int64 // files quarantined by a read
	Quarantined           int64 // files quarantined by Open's recovery
}

// Dir is an open directory of framed files of one format. Any number
// of processes can share one directory.
type Dir[T any] struct {
	mu     sync.Mutex
	path   string
	lock   *os.File
	format *Format[T]
	fault  *diag.Plan
	stats  Stats
	// onEvent, when non-nil, receives (format.Event, file name) each time
	// a file is moved to quarantine: the flight recorder's window into
	// on-disk corruption handling.
	onEvent func(kind, name string)
	// recovered are the files Open's recovery quarantined before any hook
	// could be set; the first hook installed receives them once.
	recovered []string
	// buf holds the file being recovered or read, so reading many files
	// allocates for the largest, not for each.
	buf bytes.Buffer
}

// keptBuf is the largest read buffer a Dir keeps between reads; the
// read after a larger file's starts a fresh one.
const keptBuf = 1 << 20

// Open opens (creating if needed) a directory of f's files, recovers it
// from crashed writers, and returns the handle. The fault plan may be
// nil.
func Open[T any](path string, f *Format[T], fault *diag.Plan) (*Dir[T], error) {
	if err := os.MkdirAll(filepath.Join(path, quarantineDir), 0o777); err != nil {
		return nil, fmt.Errorf("creating %s: %w", path, err)
	}
	lock, err := os.OpenFile(filepath.Join(path, ".lock"), os.O_CREATE|os.O_RDWR, 0o666)
	if err != nil {
		return nil, fmt.Errorf("opening lock file: %w", err)
	}
	d := &Dir[T]{path: path, lock: lock, format: f, fault: fault}
	if err := d.recover(); err != nil {
		lock.Close()
		return nil, err
	}
	return d, nil
}

// SetEventHook installs the quarantine event callback. Safe to call on
// a live handle; the hook must itself be safe for concurrent use. The
// first hook installed also receives, once, an event for each file
// Open's recovery quarantined.
func (d *Dir[T]) SetEventHook(fn func(kind, name string)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onEvent = fn
	if fn == nil {
		return
	}
	for _, file := range d.recovered {
		fn(d.format.Event, file)
	}
	d.recovered = nil
}

// Path returns the directory path.
func (d *Dir[T]) Path() string { return d.path }

// Stats returns a copy of the meters.
func (d *Dir[T]) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Close releases the lock file. The directory stays valid for reopening.
func (d *Dir[T]) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lock == nil {
		return nil
	}
	err := d.lock.Close()
	d.lock = nil
	return err
}

// flock takes the cross-process lock; callers hold d.mu.
func (d *Dir[T]) flock() error {
	if d.lock == nil {
		return fmt.Errorf("%s is closed", d.path)
	}
	return syscall.Flock(int(d.lock.Fd()), syscall.LOCK_EX)
}

func (d *Dir[T]) funlock() {
	if d.lock != nil {
		syscall.Flock(int(d.lock.Fd()), syscall.LOCK_UN)
	}
}

// recover quarantines the debris of crashed writers: temp files,
// unknown files, and files whose frame does not verify, version-skewed
// ones included (they can never be read, and would shadow their name).
// It decodes nothing: a file whose frame verifies but whose payload
// does not decode is quarantined by its first Read.
func (d *Dir[T]) recover() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.flock(); err != nil {
		return err
	}
	defer d.funlock()
	ents, err := os.ReadDir(d.path)
	if err != nil {
		return fmt.Errorf("scanning %s: %w", d.path, err)
	}
	for _, de := range ents {
		file := de.Name()
		if de.IsDir() || file == ".lock" {
			continue
		}
		// A temp file exists only if its writer died mid-write; unknown
		// debris is quarantined rather than guessed at.
		if strings.HasSuffix(file, d.format.Suffix) && !strings.Contains(file, ".tmp") {
			data, err := readInto(&d.buf, filepath.Join(d.path, file))
			if err == nil {
				_, err = d.format.verify(data)
			}
			if err == nil {
				continue
			}
		}
		d.quarantineLocked(file)
		d.stats.Quarantined++
		d.recovered = append(d.recovered, file)
	}
	return nil
}

// readInto reads the file at path into buf, emptied first, and returns
// its contents, valid until buf's next use.
func readInto(buf *bytes.Buffer, path string) ([]byte, error) {
	if buf.Cap() > keptBuf {
		*buf = bytes.Buffer{}
	}
	buf.Reset()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, err = buf.ReadFrom(f)
	return buf.Bytes(), err
}

// quarantineLocked moves one file into the quarantine directory; callers
// hold the locks. A failed move falls back to removal: a bad file must
// never stay where a read can find it.
func (d *Dir[T]) quarantineLocked(file string) {
	src := filepath.Join(d.path, file)
	if err := os.Rename(src, filepath.Join(d.path, quarantineDir, file)); err != nil {
		os.Remove(src)
	}
	if d.onEvent != nil {
		d.onEvent(d.format.Event, file)
	}
}

// Read returns the decoded file for name. A missing file is ErrNotFound;
// one that fails verification or decoding, or whose read a FailRead
// fault matches, is quarantined and reported as ErrCorrupt.
func (d *Dir[T]) Read(name string) (T, error) {
	var zero T
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.flock(); err != nil {
		return zero, err
	}
	defer d.funlock()
	file := name + d.format.Suffix
	data, err := readInto(&d.buf, filepath.Join(d.path, file))
	if errors.Is(err, fs.ErrNotExist) {
		d.stats.Misses++
		return zero, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err == nil && d.format.FailRead != "" && d.fault.Should(d.format.FailRead, d.format.Phase, name) {
		err = fmt.Errorf("injected %s fault", d.format.FailRead)
	}
	var v T
	if err == nil {
		v, err = d.format.Parse(name, data)
	}
	if err != nil {
		d.quarantineLocked(file)
		d.stats.Corrupt++
		return zero, fmt.Errorf("%w: %s: %w", ErrCorrupt, file, err)
	}
	d.stats.Reads++
	return v, nil
}

// Write durably publishes payload as name's file. A TornWrite fault
// matching unit instead writes the first half of the file straight to
// the final path, a crash mid-write with the protocol bypassed, which
// recovery and reads must both catch.
func (d *Dir[T]) Write(name, unit string, payload []byte) error {
	data := d.format.Frame(payload)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.flock(); err != nil {
		return err
	}
	defer d.funlock()
	file := name + d.format.Suffix
	if d.format.TornWrite != "" && d.fault.Should(d.format.TornWrite, d.format.Phase, unit) {
		return os.WriteFile(filepath.Join(d.path, file), data[:len(data)/2], 0o666)
	}
	if err := WriteAtomic(d.path, file, data); err != nil {
		return err
	}
	d.stats.Writes++
	return nil
}
