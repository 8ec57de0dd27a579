// Package snapshot is the versioned on-disk format for a compiled
// machine image, and its crash-safe store (DESIGN.md §14).
//
// A snapshot persists everything a warm boot needs to skip the compile
// pipeline entirely: the machine image (symbol table, function streams
// with resolved jump targets, heap with allocator state, boxed
// constants, registers and live stack — see s1.Image), the compiler
// pinning that makes post-restore compiles byte-identical (gensym
// counter, macro epoch, allocator-context fingerprint), and the source
// texts the image was built from, so the interpreter side and the macro
// expanders can be rehydrated without touching the machine.
//
// Wire format (version bumps with any change, so old files quarantine
// or fall back instead of misdecoding):
//
//	slc-snapshot-v2\n
//	sec <name> <len> <sha256(payload)>\n
//	<len payload bytes>\n          × one per section, fixed order
//	end <count> <sha256(all section sums)>\n
//
// Every section is length-prefixed and individually SHA-256 summed; the
// trailer binds the section list, so truncation anywhere — mid-header,
// mid-payload, missing trailer — is detected before a single byte
// reaches a machine. Decoded closures are never serialized: restore
// re-derives them from the code vector (s1.LoadImage).
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/s1"
)

// Magic is the first line of every snapshot file. Any format change —
// section list, section encoding, meta fields, or how a meta hash is
// computed — bumps the trailing version number; Decode reports
// older/newer versions as ErrVersion so callers fall back to a cold
// compile instead of guessing. (v2: ImageHash hashes binary fields.)
const Magic = "slc-snapshot-v2"

// ErrVersion marks a structurally sound snapshot written by an
// incompatible format version — unusable, but not evidence of
// corruption.
var ErrVersion = errors.New("snapshot: incompatible format version")

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

// Section payload carriers. These exist so each wire section is one gob
// stream with a stable shape; reordering or renaming fields is a format
// change (bump Magic).
type secFuncs struct {
	Funcs    []s1.FuncDesc
	Bindings []s1.ImageBinding
}

type secCode struct {
	Code    []s1.Instr
	Targets []int64
}

type secHeap struct {
	Heap, Regs, Stack []s1.Word
	Blocks            []s1.ImageBlock
	FreeSmall         [][]uint64
	FreeBig           []s1.ImageFreeList
	LiveWords         int64
	LiveSinceGC       int64
	GCThreshold       int64
}

// sectionNames is the fixed section order; Decode requires exactly this
// sequence.
var sectionNames = []string{"meta", "src", "syms", "funcs", "code", "boxes", "heap"}

// sections maps the snapshot onto its wire sections, in order.
func (s *Snapshot) sections() []any {
	img := s.Image
	return []any{
		&s.Meta,
		&s.Sources,
		&img.Syms,
		&secFuncs{Funcs: img.Funcs, Bindings: img.Bindings},
		&secCode{Code: img.Code, Targets: img.Targets},
		&img.Boxes,
		&secHeap{
			Heap: img.Heap, Regs: img.Regs, Stack: img.Stack,
			Blocks: img.Blocks, FreeSmall: img.FreeSmall, FreeBig: img.FreeBig,
			LiveWords: img.LiveWords, LiveSinceGC: img.LiveSinceGC,
			GCThreshold: img.GCThreshold,
		},
	}
}

// Encode writes the snapshot in wire format.
func Encode(w io.Writer, s *Snapshot) error {
	if s.Image == nil {
		return fmt.Errorf("snapshot: encoding a snapshot without an image")
	}
	if _, err := fmt.Fprintf(w, "%s\n", Magic); err != nil {
		return err
	}
	all := sha256.New()
	parts := s.sections()
	for i, name := range sectionNames {
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(parts[i]); err != nil {
			return fmt.Errorf("snapshot: encoding section %s: %w", name, err)
		}
		sum := sha256.Sum256(payload.Bytes())
		hexSum := hex.EncodeToString(sum[:])
		io.WriteString(all, hexSum)
		if _, err := fmt.Fprintf(w, "sec %s %d %s\n", name, payload.Len(), hexSum); err != nil {
			return err
		}
		if _, err := w.Write(payload.Bytes()); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "end %d %s\n", len(sectionNames), hex.EncodeToString(all.Sum(nil)))
	return err
}

// Bytes encodes the snapshot into memory.
func (s *Snapshot) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// cutLine splits one \n-terminated line off data; a missing terminator
// is truncation.
func cutLine(data []byte) (line string, rest []byte, err error) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return "", nil, fmt.Errorf("snapshot: truncated at line boundary")
	}
	return string(data[:i]), data[i+1:], nil
}

// DecodeBytes parses and fully verifies a wire-format snapshot: magic,
// every section header, every section checksum, and the trailer. Any
// violation is an error; nothing partially decoded is ever returned.
func DecodeBytes(data []byte) (*Snapshot, error) {
	line, rest, err := cutLine(data)
	if err != nil {
		return nil, err
	}
	if line != Magic {
		if strings.HasPrefix(line, "slc-snapshot-v") {
			return nil, fmt.Errorf("%w: file is %q, this build reads %q", ErrVersion, line, Magic)
		}
		return nil, fmt.Errorf("snapshot: bad magic %q", line)
	}
	snap := &Snapshot{Image: &s1.Image{}}
	parts := snap.sections()
	all := sha256.New()
	for i, name := range sectionNames {
		line, rest, err = cutLine(rest)
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(line)
		if len(fields) != 4 || fields[0] != "sec" {
			return nil, fmt.Errorf("snapshot: malformed section header %q", line)
		}
		if fields[1] != name {
			return nil, fmt.Errorf("snapshot: section %d is %q, want %q", i, fields[1], name)
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 0 || n > len(rest) {
			return nil, fmt.Errorf("snapshot: section %s length %q out of range", name, fields[2])
		}
		payload := rest[:n]
		sum := sha256.Sum256(payload)
		if hex.EncodeToString(sum[:]) != fields[3] {
			return nil, fmt.Errorf("snapshot: section %s checksum mismatch", name)
		}
		io.WriteString(all, fields[3])
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(parts[i]); err != nil {
			return nil, fmt.Errorf("snapshot: decoding section %s: %w", name, err)
		}
		rest = rest[n:]
		if len(rest) == 0 || rest[0] != '\n' {
			return nil, fmt.Errorf("snapshot: section %s missing terminator", name)
		}
		rest = rest[1:]
	}
	line, rest, err = cutLine(rest)
	if err != nil {
		return nil, fmt.Errorf("snapshot: missing trailer (truncated file)")
	}
	fields := strings.Fields(line)
	if len(fields) != 3 || fields[0] != "end" {
		return nil, fmt.Errorf("snapshot: malformed trailer %q", line)
	}
	if fields[1] != strconv.Itoa(len(sectionNames)) {
		return nil, fmt.Errorf("snapshot: trailer counts %s sections, want %d", fields[1], len(sectionNames))
	}
	if fields[2] != hex.EncodeToString(all.Sum(nil)) {
		return nil, fmt.Errorf("snapshot: trailer checksum mismatch")
	}
	if len(bytes.TrimSpace(rest)) != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after trailer", len(rest))
	}
	// Reassemble the image from the section carriers.
	fu := parts[3].(*secFuncs)
	co := parts[4].(*secCode)
	he := parts[6].(*secHeap)
	img := snap.Image
	img.Funcs, img.Bindings = fu.Funcs, fu.Bindings
	img.Code, img.Targets = co.Code, co.Targets
	img.Heap, img.Regs, img.Stack = he.Heap, he.Regs, he.Stack
	img.Blocks, img.FreeSmall, img.FreeBig = he.Blocks, he.FreeSmall, he.FreeBig
	img.LiveWords, img.LiveSinceGC, img.GCThreshold = he.LiveWords, he.LiveSinceGC, he.GCThreshold
	return snap, nil
}
