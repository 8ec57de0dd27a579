package s1

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/sexp"
)

// Machine image export/import: the serializable form of a fully built
// machine — symbol table, function descriptors and name bindings, the
// assembled code with its resolved jump targets, the boxed-object table
// (as printed forms), the heap with its allocator block records and free
// lists, and the registers plus live stack extent (both are GC roots, so
// a restored machine must collect exactly like the one that was
// exported). The lowered stream is never serialized: LoadImage re-derives
// it from Code, the same way AddFunction does (DESIGN.md §14).
//
// The contract is byte-identical restoration: a LoadImage'd machine has
// the same ImageFingerprint and the same AllocContext as the machine
// ExportImage read, so subsequent compiles, durable-cache replays and
// collections evolve it exactly as they would have the original.

// ImageBlock is one allocator block record, in gcBlocks (allocation)
// order — sweep order is observable through free-list contents, so the
// order must survive the round trip.
type ImageBlock struct {
	Off  uint64
	Size int32
	Free bool
}

// ImageBinding is one name→function-descriptor binding. Bindings are
// serialized explicitly rather than rebuilt from Funcs because
// RebindFunction (a resident compile-cache hit) can point a name at an
// index other than its latest descriptor.
type ImageBinding struct {
	Name string
	Idx  int
}

// ImageFreeList is one big-block free list (sizes beyond the array
// buckets), in sorted-size order for deterministic encoding.
type ImageFreeList struct {
	Size int
	Offs []uint64
}

// Image is the machine's serializable state; AppendImage and ReadImage
// (wire.go) are its encoding.
type Image struct {
	Syms     []SymCell
	Funcs    []FuncDesc
	Bindings []ImageBinding
	// Code is the assembled code vector, each jump carrying its resolved
	// target.
	Code []Instr
	// Boxes are the boxed objects' printed forms; FromValue only boxes
	// print/read-stable values (bignums, ratios, strings, characters),
	// the same round trip the durable cache uses for constants.
	Boxes []string
	Heap  []Word
	Regs  []Word
	// Stack is the live extent [StackBase, SP): leftover frames and
	// values are GC roots, so reachability must match the exported
	// machine exactly.
	Stack     []Word
	Blocks    []ImageBlock
	FreeSmall [][]uint64
	FreeBig   []ImageFreeList

	LiveWords   int64
	LiveSinceGC int64
	GCThreshold int64
}

// ExportImage captures the machine's serializable state. It refuses
// mid-activity machines: a capture in progress, dynamic bindings, catch
// frames or temp roots mean an export would bake transient execution
// state into the image.
func (m *Machine) ExportImage() (*Image, error) {
	switch {
	case m.cap != nil:
		return nil, fmt.Errorf("s1: cannot export image during compile capture")
	case len(m.bindStack) > 0:
		return nil, fmt.Errorf("s1: cannot export image with %d live dynamic bindings", len(m.bindStack))
	case len(m.catchStack) > 0:
		return nil, fmt.Errorf("s1: cannot export image with %d live catch frames", len(m.catchStack))
	case len(m.tempRoots) > 0:
		return nil, fmt.Errorf("s1: cannot export image with %d live temp roots", len(m.tempRoots))
	}
	img := &Image{
		Syms:        append([]SymCell(nil), m.Syms...),
		Funcs:       append([]FuncDesc(nil), m.Funcs...),
		Code:        append([]Instr(nil), m.Code...),
		Boxes:       make([]string, len(m.Boxes)),
		Heap:        append([]Word(nil), m.heap...),
		Regs:        append([]Word(nil), m.regs[:]...),
		Blocks:      make([]ImageBlock, 0, len(m.gcBlocks)),
		FreeSmall:   make([][]uint64, gcSmallMax+1),
		LiveWords:   m.liveWords,
		LiveSinceGC: m.liveSinceGC,
		GCThreshold: m.gcThreshold,
	}
	for i, b := range m.Boxes {
		img.Boxes[i] = sexp.Print(b)
	}
	if sp := m.regs[RegSP].Bits; IsStackAddr(sp) {
		// Zero-padded up to SP when SP sits past the stack's end, so the
		// image is the same however far the stack has grown.
		img.Stack = make([]Word, sp-StackBase)
		copy(img.Stack, m.stack)
	}
	for _, off := range m.gcBlocks {
		rec := m.gcRecs[off]
		img.Blocks = append(img.Blocks, ImageBlock{Off: off, Size: rec.size, Free: rec.free})
	}
	for n := 0; n <= gcSmallMax; n++ {
		if lst := m.freeSmall[n]; len(lst) > 0 {
			img.FreeSmall[n] = append([]uint64(nil), lst...)
		}
	}
	sizes := make([]int, 0, len(m.freeBig))
	for n := range m.freeBig {
		sizes = append(sizes, n)
	}
	for i := 1; i < len(sizes); i++ { // insertion sort; freeBig is tiny
		for j := i; j > 0 && sizes[j] < sizes[j-1]; j-- {
			sizes[j], sizes[j-1] = sizes[j-1], sizes[j]
		}
	}
	for _, n := range sizes {
		img.FreeBig = append(img.FreeBig, ImageFreeList{
			Size: n, Offs: append([]uint64(nil), m.freeBig[n]...),
		})
	}
	img.Bindings = make([]ImageBinding, 0, len(m.funcIdx))
	for name, idx := range m.funcIdx {
		img.Bindings = append(img.Bindings, ImageBinding{Name: name, Idx: idx})
	}
	for i := 1; i < len(img.Bindings); i++ {
		for j := i; j > 0 && img.Bindings[j].Name < img.Bindings[j-1].Name; j-- {
			img.Bindings[j], img.Bindings[j-1] = img.Bindings[j-1], img.Bindings[j]
		}
	}
	return img, nil
}

// validate rejects structurally inconsistent images before any of them
// reaches machine state. A failed load leaves the machine unusable, so
// callers (the snapshot layer) load into a throwaway machine and fall
// back to a cold compile on error.
func (img *Image) validate() error {
	if len(img.Code) == 0 {
		return fmt.Errorf("s1: image has no code")
	}
	if len(img.Regs) != NumRegs {
		return fmt.Errorf("s1: image has %d registers, want %d", len(img.Regs), NumRegs)
	}
	if uint64(len(img.Stack)) > uint64(StackLimit-StackBase) {
		return fmt.Errorf("s1: image stack extent %d exceeds stack segment", len(img.Stack))
	}
	if len(img.FreeSmall) != gcSmallMax+1 {
		return fmt.Errorf("s1: image has %d small free lists, want %d", len(img.FreeSmall), gcSmallMax+1)
	}
	for i, f := range img.Funcs {
		if f.Entry < 0 || f.Entry > f.End || f.End > len(img.Code) {
			return fmt.Errorf("s1: image function %d (%s) spans [%d,%d) outside code (%d)",
				i, f.Name, f.Entry, f.End, len(img.Code))
		}
	}
	for _, b := range img.Bindings {
		if b.Idx < 0 || b.Idx >= len(img.Funcs) {
			return fmt.Errorf("s1: image binds %q to function %d of %d", b.Name, b.Idx, len(img.Funcs))
		}
	}
	for i := range img.Code {
		if t := img.Code[i].target; jumpOps[img.Code[i].Op] && (t < 0 || t > len(img.Code)) {
			return fmt.Errorf("s1: image code %d jump target %d outside code (%d)", i, t, len(img.Code))
		}
	}
	for _, blk := range img.Blocks {
		if blk.Size <= 0 || blk.Off+uint64(blk.Size) > uint64(len(img.Heap)) {
			return fmt.Errorf("s1: image block %d size %d overruns heap (%d)", blk.Off, blk.Size, len(img.Heap))
		}
	}
	return nil
}

// LoadImage restores an exported image into a freshly created machine
// (New plus configuration: Out, limits, gc-stress toggles — nothing
// that adds code, symbols or heap). The lowered stream is re-derived
// from the restored Code.
func (m *Machine) LoadImage(img *Image) error {
	if err := m.checkFresh("LoadImage"); err != nil {
		return err
	}
	if err := img.validate(); err != nil {
		return err
	}
	boxes := make([]sexp.Value, len(img.Boxes))
	for i, s := range img.Boxes {
		v, err := sexp.ReadOne(s)
		if err != nil {
			return fmt.Errorf("s1: image box %d unreadable: %w", i, err)
		}
		boxes[i] = v
	}

	m.Code = append(m.Code[:0], img.Code...)
	m.Funcs = append([]FuncDesc(nil), img.Funcs...)
	m.funcIdx = make(map[string]int, len(img.Bindings))
	for _, b := range img.Bindings {
		m.funcIdx[b.Name] = b.Idx
	}
	// Re-intern in order so symIdx and the incremental symHash (an
	// AllocContext input) match the exporting machine exactly.
	m.Syms = append([]SymCell(nil), img.Syms...)
	m.symIdx = make(map[string]int, len(img.Syms))
	m.uninterned = nil
	m.symHash = 0
	for i := range m.Syms {
		c := &m.Syms[i]
		c.resolve()
		if c.Uninterned {
			if m.uninterned == nil {
				m.uninterned = map[*sexp.Symbol]int{}
			}
			m.uninterned[c.host] = i
		} else {
			m.symIdx[c.Name] = i
		}
		m.foldSymHash(c)
	}
	m.Boxes = boxes

	// Appending into the existing slices (rather than allocating fresh)
	// reuses an adopted arena's capacity; on a plain New machine they are
	// nil and this allocates as before. Generational state is never
	// serialized: every restored live block is tenured (old), the nursery
	// is empty and the card table clear. That is always safe — an all-old
	// heap just means the first minor collection finds nothing young to
	// sweep — and it keeps the image bytes and AllocContext identical to
	// the exporting machine's even though that machine may have had young
	// blocks in flight (snapshot byte-identity across re-exports depends
	// on this).
	m.heap = append(m.heap[:0], img.Heap...)
	if n := len(m.heap); n <= cap(m.gcRecs) {
		// Arena capacity: cleared at adoption, so reslicing is all-zero.
		m.gcRecs = m.gcRecs[:n]
	} else {
		m.gcRecs = make([]gcRec, n)
	}
	if cl := cardsFor(len(m.heap)); cl <= cap(m.cards) {
		m.cards = m.cards[:cl]
	} else {
		m.cards = make([]byte, cl)
	}
	m.youngBlocks = m.youngBlocks[:0]
	m.gcBlocks = m.gcBlocks[:0]
	for _, blk := range img.Blocks {
		m.gcRecs[blk.Off] = gcRec{size: blk.Size, free: blk.Free, old: !blk.Free}
		m.gcBlocks = append(m.gcBlocks, blk.Off)
	}
	for n := 0; n <= gcSmallMax; n++ {
		m.freeSmall[n] = nil
		if lst := img.FreeSmall[n]; len(lst) > 0 {
			m.freeSmall[n] = append([]uint64(nil), lst...)
		}
	}
	m.freeBig = nil
	for _, fl := range img.FreeBig {
		if len(fl.Offs) == 0 {
			continue // keep the pruned-empty-classes invariant
		}
		if m.freeBig == nil {
			m.freeBig = map[int][]uint64{}
		}
		m.freeBig[fl.Size] = append([]uint64(nil), fl.Offs...)
	}
	m.liveWords = img.LiveWords
	m.liveSinceGC = img.LiveSinceGC
	m.gcThreshold = img.GCThreshold

	copy(m.regs[:], img.Regs)
	for len(img.Stack) > len(m.stack) {
		m.growStack()
	}
	copy(m.stack, img.Stack)
	m.pc, m.halted = 0, false

	// Derived execution state: lower the whole restored code vector.
	m.ops = m.ops[:0]
	m.lowerCode()
	if err := m.CheckHeapInvariants(); err != nil {
		return fmt.Errorf("s1: restored image fails heap invariants: %w", err)
	}
	return nil
}

// checkFresh refuses a load into a machine that already holds code,
// symbols or heap.
func (m *Machine) checkFresh(op string) error {
	if len(m.Funcs) > 0 || len(m.Syms) > 0 || len(m.heap) > 0 || len(m.Code) > 1 || len(m.Boxes) > 0 {
		return fmt.Errorf("s1: %s target machine is not fresh", op)
	}
	return nil
}

// LoadFrom fills a fresh machine (as for LoadImage) with a copy of
// template t's state, so that it is the machine a LoadImage of t's
// image would have made: same ImageFingerprint, same AllocContext under
// the same configuration. t must be a LoadImage'd machine that never
// runs; LoadFrom only reads it, so any number of machines can load from
// one template concurrently. Nothing is re-derived and nothing is
// checked: the image was validated, lowered and checked once, when t
// loaded it.
//
// What a machine writes is copied — code and its lowered stream (whose
// call sites fill inline caches), function and symbol tables, heap and
// allocator state, registers and stack — and what it never writes is
// shared: the boxed objects (immutable; the slice's capacity is clipped
// so a new box reallocates it).
func (m *Machine) LoadFrom(t *Machine) error {
	if err := m.checkFresh("LoadFrom"); err != nil {
		return err
	}
	m.Code = append(m.Code[:0], t.Code...)
	m.Funcs = slices.Clone(t.Funcs)
	m.funcIdx = maps.Clone(t.funcIdx)
	m.Syms = slices.Clone(t.Syms)
	m.symIdx = maps.Clone(t.symIdx)
	m.uninterned = maps.Clone(t.uninterned)
	m.symHash = t.symHash
	m.Boxes = slices.Clip(t.Boxes)

	// Appending reuses an adopted arena's storage, as in LoadImage; the
	// template's card table is clear and its nursery empty.
	m.heap = append(m.heap[:0], t.heap...)
	m.gcRecs = append(m.gcRecs[:0], t.gcRecs...)
	m.cards = append(m.cards[:0], t.cards...)
	m.youngBlocks = m.youngBlocks[:0]
	m.gcBlocks = append(m.gcBlocks[:0], t.gcBlocks...)
	for n := range m.freeSmall {
		m.freeSmall[n] = slices.Clone(t.freeSmall[n])
	}
	m.freeBig = nil
	for n, lst := range t.freeBig {
		if m.freeBig == nil {
			m.freeBig = make(map[int][]uint64, len(t.freeBig))
		}
		m.freeBig[n] = slices.Clone(lst)
	}
	m.liveWords = t.liveWords
	m.liveSinceGC = t.liveSinceGC
	m.gcThreshold = t.gcThreshold

	m.regs = t.regs
	for len(t.stack) > len(m.stack) {
		m.growStack()
	}
	copy(m.stack, t.stack)
	m.pc, m.halted = 0, false

	m.ops = append(m.ops[:0], t.ops...)
	return nil
}
