// Package snapshot is the versioned on-disk format for a compiled
// machine image, and its crash-safe store (DESIGN.md §14).
//
// A snapshot persists everything a warm boot needs to skip the compile
// pipeline entirely: the machine image (symbol table, function streams
// with resolved jump targets, heap with allocator state, boxed
// constants, registers and live stack — see s1.Image), the compiler
// pinning that makes post-restore compiles byte-identical (gensym
// counter, macro epoch, allocator-context fingerprint), and the source
// texts the image was built from, from which the definitions, macro
// expanders and proclamations are rebound without compiling.
//
// Wire format v5 is a durable frame (internal/durable): the magic line
// slc-snapshot-v5, a hex sha256 of the payload, then the payload,
// hand-encoded with s1's wire writer (internal/s1/wire.go): the meta
// fields, the counted sources, then the image (s1.AppendImage), every
// field a fixed-width little-endian word or a length-prefixed string.
// The bytes are a function of the snapshot alone, the same in every
// process. The checksum covers every byte after the header, so a flip or
// truncation anywhere is detected before a single byte reaches a
// machine, the decode is bounds-checked (no count allocates more than
// the remaining payload can hold, every jump target lies in the code
// vector, nothing may trail the image), and a file of any other version
// is quarantined as durable.ErrVersion instead of misdecoded. The
// lowered instruction stream is never serialized: restore re-derives it
// from the code vector (s1.LoadImage).
package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/diag"
	"repro/internal/durable"
	"repro/internal/s1"
)

// Magic is the first line of every snapshot file. Any format change —
// the Snapshot or Image shape, meta fields, or how a meta hash is
// computed — bumps the trailing version number; a file of another
// version is reported as durable.ErrVersion so callers fall back to a
// cold compile instead of guessing. (v2: ImageHash hashes binary
// fields; v3: one gob stream inside a durable frame; v4: the image
// holds the macro expanders and marks uninterned symbols' cells; v5:
// s1's wire form replaces gob, jump targets travel inside each
// instruction.)
const Magic = "slc-snapshot-v5"

// format frames snapshot files, in a Store or standalone. The fault
// selectors match the snapshot name ("boot" for the daemon's pinned
// boot snapshot).
var format = &durable.Format[*Snapshot]{
	Magic:     Magic,
	Suffix:    FileSuffix,
	Event:     "snapshot-quarantine",
	Phase:     "snapshot",
	TornWrite: diag.KindSnapshotWrite,
	FailRead:  diag.KindSnapshotRead,
	Decode:    decode,
}

// Meta is the snapshot's self-description: the verification hashes and
// the compiler pinning.
type Meta struct {
	// ImageHash is the exporting machine's ImageFingerprint; restore
	// recomputes it over the restored machine and refuses on mismatch —
	// a snapshot can be internally consistent yet still not reproduce
	// the image (an s1 behavior change, say), and that must degrade to a
	// cold compile, never serve.
	ImageHash string
	// AllocCtx is the exporting machine's AllocContext; equality after
	// restore is what entitles the restored system to replay durable
	// compile-cache entries recorded by cold systems.
	AllocCtx string
	// GenCount pins the compiler's gensym counter; MacroEpoch pins the
	// cache-key epoch. Both make post-restore compiles key and emit
	// exactly as the exporting system's would have.
	GenCount   int
	MacroEpoch int
	// ToplevelCount and BatchCount pin the unit-naming counters, so a
	// load performed after restore names its %toplevel-N functions (which
	// land in the image) identically to one performed after a cold boot.
	ToplevelCount int
	BatchCount    int
	// SourceHash fingerprints Sources; a boot snapshot is only restored
	// when the prelude it was built from is byte-identical.
	SourceHash string
}

// Snapshot is one serializable compiled system.
type Snapshot struct {
	Meta    Meta
	Sources []string
	Image   *s1.Image
}

// HashSources canonically fingerprints a source sequence (length-prefixed
// so concatenation boundaries cannot collide).
func HashSources(srcs []string) string {
	h := sha256.New()
	for _, s := range srcs {
		fmt.Fprintf(h, "%d\n%s", len(s), s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// payload encodes the snapshot in s1's wire form.
func (s *Snapshot) payload() ([]byte, error) {
	if s.Image == nil {
		return nil, fmt.Errorf("snapshot: encoding a snapshot without an image")
	}
	var w s1.Writer
	m := &s.Meta
	w.Str(m.ImageHash)
	w.Str(m.AllocCtx)
	w.Int(m.GenCount)
	w.Int(m.MacroEpoch)
	w.Int(m.ToplevelCount)
	w.Int(m.BatchCount)
	w.Str(m.SourceHash)
	w.Strs(s.Sources)
	s1.AppendImage(&w, s.Image)
	return w.Bytes(), nil
}

// Bytes encodes the snapshot in wire format.
func (s *Snapshot) Bytes() ([]byte, error) {
	p, err := s.payload()
	if err != nil {
		return nil, err
	}
	return format.Frame(p), nil
}

func decode(_ string, payload []byte) (*Snapshot, error) {
	r := s1.NewReader(payload)
	s := &Snapshot{Meta: Meta{ImageHash: r.Str(), AllocCtx: r.Str(),
		GenCount: r.Int(), MacroEpoch: r.Int(), ToplevelCount: r.Int(), BatchCount: r.Int(),
		SourceHash: r.Str()}}
	s.Sources = r.Strs()
	img := s1.ReadImage(r)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("decoding: %w", err)
	}
	s.Image = img
	return s, nil
}

// DecodeBytes parses and fully verifies a wire-format snapshot. Any
// violation is an error; nothing partially decoded is ever returned.
func DecodeBytes(data []byte) (*Snapshot, error) {
	s, err := format.Parse("", data)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return s, nil
}
