package snapshot

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/durable"
)

// Store is a crash-safe snapshot directory shared between processes: a
// durable.Dir of snapshot files (DESIGN.md §11). A corrupt or
// version-skewed snapshot is never restored; it is moved aside into
// quarantine/ and the caller cold-compiles.
type Store struct {
	files *durable.Dir[*Snapshot]
}

// FileSuffix is the extension of snapshot files in a store directory.
const FileSuffix = ".snap"

// ErrNotFound reports a Load of a name with no snapshot on disk — the
// normal first-boot case, distinct from corruption.
var ErrNotFound = durable.ErrNotFound

// OpenStore opens (creating if needed) a snapshot directory, runs crash
// recovery, and returns the handle. The fault plan may be nil.
func OpenStore(dir string, fault *diag.Plan) (*Store, error) {
	files, err := durable.Open(dir, format, fault)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return &Store{files: files}, nil
}

// SetEventHook installs the quarantine event callback: it receives
// ("snapshot-quarantine", filename). Safe to set on a live handle; the
// hook must be safe for concurrent use.
func (s *Store) SetEventHook(fn func(kind, name string)) { s.files.SetEventHook(fn) }

// Dir returns the store directory path.
func (s *Store) Dir() string { return s.files.Path() }

// Stats returns a copy of the store's meters.
func (s *Store) Stats() durable.Stats { return s.files.Stats() }

// Close releases the lock file. The directory stays valid for reopening.
func (s *Store) Close() error { return s.files.Close() }

// Save durably writes the snapshot under name (the file becomes
// <name>.snap). A snapshot-write fault instead writes a torn file
// straight to the final path, which recovery and Load must both catch.
func (s *Store) Save(name string, snap *Snapshot) error {
	p, err := snap.payload()
	if err != nil {
		return err
	}
	if err := s.files.Write(name, name, p); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Load reads, verifies and decodes the snapshot under name. A missing
// file is ErrNotFound. A corrupt or version-incompatible file is
// quarantined and reported as an error, and so is one a snapshot-read
// fault matches, which drives the cold-compile fallback without real
// on-disk damage.
func (s *Store) Load(name string) (*Snapshot, error) {
	snap, err := s.files.Read(name)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return snap, nil
}

// WriteFile durably writes a snapshot to a standalone path (the slc
// -snapshot-out flag).
func WriteFile(path string, snap *Snapshot) error {
	p, err := snap.payload()
	if err != nil {
		return err
	}
	if err := format.WriteFile(path, p); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// ReadFile reads and verifies a standalone snapshot file (the slc
// -snapshot-in flag). A corrupt file is renamed to <path>.quarantined,
// so the next run cold-compiles instead of retrying the same bad bytes.
func ReadFile(path string) (*Snapshot, error) {
	snap, err := format.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return snap, nil
}
