package s1

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sync/atomic"

	"repro/internal/sexp"
)

// The wire form of compiled code (DESIGN.md §11, §14): one hand-written
// encoding that both durable stores write — a compile-cache entry's
// bodies (AppendBody) and a snapshot's machine image (AppendImage) —
// and whose records ImageFingerprint hashes. Every field is a
// fixed-width little-endian 64-bit word or a string prefixed by its
// length in one such word, and every section is prefixed by its count,
// so the encoding depends on nothing but the value encoded: no type
// registry, no map order, no process history.
//
// The records the fingerprint and the image share (instructions,
// function descriptors, symbol cells, heap words, boxed objects) are
// written by one walk, machineSections, so a field cannot be added to
// one and missed by the other. The image adds only what the fingerprint
// leaves out: each jump's resolved target, and an uninterned cell's
// name.
//
// Reading is bounds-checked and canonical: a count is refused before
// anything is allocated for it if the remaining input could not hold
// that many records, narrow fields must fit their type, a jump target
// must lie inside its body or code vector, and so every input a read
// accepts re-encodes to exactly the bytes it was read from.

// Writer appends wire-encoded fields to a byte slice.
type Writer struct {
	buf []byte
	// h, set only by ImageFingerprint, takes buf whenever a record
	// leaves it past spillAt, so hashing an image never holds all of it.
	h hash.Hash
}

// spillAt is the buffered size past which a hashing Writer feeds its
// hash.
const spillAt = 8 << 10

// Bytes returns the encoding written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// U64 appends one word.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Int appends a signed integer as one word.
func (w *Writer) Int(v int) { w.U64(uint64(v)) }

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Strs appends a counted section of strings.
func (w *Writer) Strs(ss []string) { AppendSection(w, ss, (*Writer).str) }

func (w *Writer) str(s *string) { w.Str(*s) }

// AppendSection appends xs as a section: its count, then one record per
// element.
func AppendSection[T any](w *Writer, xs []T, record func(*Writer, *T)) {
	w.U64(uint64(len(xs)))
	for i := range xs {
		record(w, &xs[i])
		if w.h != nil && len(w.buf) >= spillAt {
			w.h.Write(w.buf)
			w.buf = w.buf[:0]
		}
	}
}

func (w *Writer) word(x *Word) {
	w.U64(uint64(x.Tag))
	w.U64(x.Bits)
}

func (w *Writer) u64(v *uint64) { w.U64(*v) }

// instr writes one instruction record as the fingerprint hashes it.
func (w *Writer) instr(in *Instr) {
	w.U64(uint64(in.Op))
	for _, op := range [...]*Operand{&in.A, &in.B, &in.C} {
		w.U64(uint64(op.Mode) | uint64(op.Base)<<8 | uint64(op.Index)<<16 | uint64(op.Shift)<<24)
		w.U64(uint64(op.Off))
		w.word(&op.Imm)
		w.Str(op.Label)
	}
	w.U64(uint64(in.TagArg))
	w.Str(in.Comment)
}

// instrTarget writes an instruction record ended, for a jump, by its
// resolved target.
func (w *Writer) instrTarget(in *Instr) {
	w.instr(in)
	if jumpOps[in.Op] {
		w.Int(in.target)
	}
}

// machineSections writes the five sections of an image in the order
// ImageFingerprint hashes them: code, function descriptors, symbol
// cells, heap words, and the boxed objects' printed forms. full (the
// image, not the fingerprint) adds each jump's target and each
// uninterned cell's name; the fingerprint records such a cell by a
// length no name has, since its name depends on gensym history.
func (w *Writer) machineSections(code []Instr, funcs []FuncDesc, syms []SymCell, heap []Word, boxes []string, full bool) {
	if full {
		AppendSection(w, code, (*Writer).instrTarget)
	} else {
		AppendSection(w, code, (*Writer).instr)
	}
	AppendSection(w, funcs, func(w *Writer, f *FuncDesc) {
		w.Str(f.Name)
		w.Int(f.Entry)
		w.Int(f.End)
		w.Int(f.MinArgs)
		w.Int(f.MaxArgs)
	})
	AppendSection(w, syms, func(w *Writer, c *SymCell) {
		flags := uint64(0)
		if c.HasValue {
			flags = 1
		}
		if c.Uninterned {
			w.U64(^uint64(0))
			flags |= 2
		} else {
			w.Str(c.Name)
		}
		w.U64(flags)
		w.word(&c.Value)
		w.word(&c.Function)
		if full && c.Uninterned {
			w.Str(c.Name)
		}
	})
	AppendSection(w, heap, (*Writer).word)
	w.Strs(boxes)
}

// ImageFingerprint hashes the externally visible machine image — code
// (every instruction field, comments included), function descriptors,
// the symbol table with its value and function cells (an uninterned
// cell by its flag and position, not its name), the heap contents,
// and the boxed objects. Two machines with equal fingerprints would
// produce byte-identical listings and behave identically; the
// multi-process cache tests compare it across independently built
// images, and every snapshot restore recomputes it. The hashed bytes
// are the wire records of those sections (machineSections), so the hash
// costs a pass over the image, not a formatted listing of it.
func (m *Machine) ImageFingerprint() string {
	boxes := make([]string, len(m.Boxes))
	for i, b := range m.Boxes {
		boxes[i] = sexp.Print(b)
	}
	w := Writer{buf: make([]byte, 0, spillAt+1024), h: sha256.New()}
	w.machineSections(m.Code, m.Funcs, m.Syms, m.heap, boxes, false)
	w.h.Write(w.buf)
	return hex.EncodeToString(w.h.Sum(nil))
}

// AppendImage writes img's wire encoding: the fingerprinted sections,
// then name bindings, registers, live stack, allocator blocks, free
// lists and the collector's meters.
func AppendImage(w *Writer, img *Image) {
	w.machineSections(img.Code, img.Funcs, img.Syms, img.Heap, img.Boxes, true)
	AppendSection(w, img.Bindings, func(w *Writer, b *ImageBinding) {
		w.Str(b.Name)
		w.Int(b.Idx)
	})
	AppendSection(w, img.Regs, (*Writer).word)
	AppendSection(w, img.Stack, (*Writer).word)
	AppendSection(w, img.Blocks, func(w *Writer, b *ImageBlock) {
		w.U64(b.Off)
		w.Int(int(b.Size))
		if b.Free {
			w.U64(1)
		} else {
			w.U64(0)
		}
	})
	AppendSection(w, img.FreeSmall, func(w *Writer, offs *[]uint64) { AppendSection(w, *offs, (*Writer).u64) })
	AppendSection(w, img.FreeBig, func(w *Writer, fl *ImageFreeList) {
		w.Int(fl.Size)
		AppendSection(w, fl.Offs, (*Writer).u64)
	})
	w.U64(uint64(img.LiveWords))
	w.U64(uint64(img.LiveSinceGC))
	w.U64(uint64(img.GCThreshold))
}

// AppendBody writes a body's wire encoding: name, arity and its code,
// whose jump targets are relative to the body's entry.
func AppendBody(w *Writer, b *Body) {
	w.Str(b.Name)
	w.Int(b.MinArgs)
	w.Int(b.MaxArgs)
	AppendSection(w, b.Code, (*Writer).instrTarget)
}

// Reader decodes wire-encoded fields from a byte slice, which it never
// retains past a read. It advances an offset rather than reslicing, so
// a read writes no pointer. The first failure sticks: every later read
// returns a zero value, and Err and End report it, so a caller checks
// once, after its last read.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

func (r *Reader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
	r.off = len(r.b)
}

// left is the number of unread bytes.
func (r *Reader) left() int { return len(r.b) - r.off }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// End returns the first failure, or an error if input remains unread.
func (r *Reader) End() error {
	if r.err == nil && r.left() > 0 {
		r.err = fmt.Errorf("wire: %d trailing bytes", r.left())
	}
	return r.err
}

// U64 reads one word.
func (r *Reader) U64() uint64 {
	if r.left() < 8 {
		r.failf("truncated input")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Int reads a signed integer.
func (r *Reader) Int() int { return int(int64(r.U64())) }

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return r.strN(r.U64()) }

func (r *Reader) strN(n uint64) string {
	if n > uint64(r.left()) {
		r.failf("truncated input")
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Strs reads a counted section of strings (nil when empty).
func (r *Reader) Strs() []string { return ReadSection(r, 8, (*Reader).Str) }

// ReadSection reads a section AppendSection wrote, nil when empty. It
// refuses a count the remaining input could not hold at min bytes per
// record before allocating anything for it, so no count allocates more
// than the input that claims it.
func ReadSection[T any](r *Reader, min int, record func(*Reader) T) []T {
	n := r.U64()
	if n > uint64(r.left()/min) {
		r.failf("count %d exceeds the remaining %d bytes", n, r.left())
		return nil
	}
	if n == 0 {
		return nil
	}
	xs := make([]T, n)
	for i := range xs {
		xs[i] = record(r)
	}
	return xs
}

// Minimum encoded record sizes, for ReadSection.
const (
	instrMin = 8 + 3*(8+8+16+8) + 8 + 8
	funcMin  = 8 + 4*8
	symMin   = 8 + 8 + 16 + 16
	wordMin  = 16
	// BodyMin is the least a body's record takes: name, arity and an
	// empty code section.
	BodyMin = 4 * 8
)

func (r *Reader) word() Word {
	tag := r.U64()
	if tag > 0xff {
		r.failf("word tag %d out of range", tag)
	}
	return Word{Tag: Tag(tag), Bits: r.U64()}
}

func (r *Reader) words() []Word { return ReadSection(r, wordMin, (*Reader).word) }

func (r *Reader) u64s() []uint64 { return ReadSection(r, 8, (*Reader).U64) }

// instr reads one instruction record ended, for a jump, by its target.
func (r *Reader) instr() Instr {
	var in Instr
	op := r.U64()
	if op > 0xff {
		r.failf("opcode %d out of range", op)
	}
	in.Op = Op(op)
	for _, o := range [...]*Operand{&in.A, &in.B, &in.C} {
		p := r.U64()
		if p>>32 != 0 || Mode(p) > MLabel {
			r.failf("bad operand encoding %#x", p)
		}
		o.Mode, o.Base, o.Index, o.Shift = Mode(p), uint8(p>>8), uint8(p>>16), uint8(p>>24)
		o.Off = int64(r.U64())
		o.Imm = r.word()
		o.Label = r.Str()
	}
	in.TagArg = int64(r.U64())
	in.Comment = r.Str()
	if jumpOps[in.Op] {
		in.target = r.Int()
	}
	return in
}

// code reads a code section, each jump's target in [0, len(code)].
func (r *Reader) code() []Instr {
	code := ReadSection(r, instrMin, (*Reader).instr)
	for i := range code {
		if t := code[i].target; jumpOps[code[i].Op] && (t < 0 || t > len(code)) {
			r.failf("instruction %d: jump target %d outside its %d instructions", i, t, len(code))
			return nil
		}
	}
	return code
}

// ReadImage reads an image written by AppendImage; r.End reports
// whether it decoded. The read checks the encoding, including that
// every jump target lies in the code vector; LoadImage checks the rest
// of the image's consistency.
func ReadImage(r *Reader) *Image {
	img := &Image{Code: r.code()}
	img.Funcs = ReadSection(r, funcMin, func(r *Reader) FuncDesc {
		return FuncDesc{Name: r.Str(), Entry: r.Int(), End: r.Int(), MinArgs: r.Int(), MaxArgs: r.Int()}
	})
	img.Syms = ReadSection(r, symMin, func(r *Reader) SymCell {
		var c SymCell
		l := r.U64()
		if l != ^uint64(0) {
			c.Name = r.strN(l)
		}
		flags := r.U64()
		if flags > 3 || (flags&2 != 0) != (l == ^uint64(0)) {
			r.failf("symbol %q: bad flags %d", c.Name, flags)
		}
		c.HasValue, c.Uninterned = flags&1 != 0, flags&2 != 0
		c.Value, c.Function = r.word(), r.word()
		if c.Uninterned {
			c.Name = r.Str()
		}
		return c
	})
	img.Heap = r.words()
	img.Boxes = r.Strs()
	img.Bindings = ReadSection(r, 16, func(r *Reader) ImageBinding { return ImageBinding{Name: r.Str(), Idx: r.Int()} })
	img.Regs = r.words()
	img.Stack = r.words()
	img.Blocks = ReadSection(r, 24, func(r *Reader) ImageBlock {
		b := ImageBlock{Off: r.U64()}
		size := r.Int()
		if int(int32(size)) != size {
			r.failf("block size %d out of range", size)
		}
		b.Size = int32(size)
		switch r.U64() {
		case 0:
		case 1:
			b.Free = true
		default:
			r.failf("block free flag is neither 0 nor 1")
		}
		return b
	})
	img.FreeSmall = ReadSection(r, 8, (*Reader).u64s)
	img.FreeBig = ReadSection(r, 16, func(r *Reader) ImageFreeList { return ImageFreeList{Size: r.Int(), Offs: r.u64s()} })
	img.LiveWords = int64(r.U64())
	img.LiveSinceGC = int64(r.U64())
	img.GCThreshold = int64(r.U64())
	return img
}

// ReadBody reads a body written by AppendBody; r.End reports whether it
// decoded. Every jump target must lie inside the body. The body is
// ready for Machine.AddBody, which keeps the lowered stream of its
// first install.
func ReadBody(r *Reader) Body {
	return Body{Name: r.Str(), MinArgs: r.Int(), MaxArgs: r.Int(), Code: r.code(),
		lowered: new(atomic.Pointer[bodyStream])}
}
