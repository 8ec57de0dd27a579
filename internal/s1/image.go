package s1

import (
	"fmt"

	"repro/internal/sexp"
)

// Machine image export/import: the serializable form of a fully built
// machine — symbol table, function descriptors and name bindings, the
// assembled code with its resolved jump targets, the boxed-object table
// (as printed forms), the heap with its allocator block records and free
// lists, and the registers plus live stack extent (both are GC roots, so
// a restored machine must collect exactly like the one that was
// exported). Decoded closures are never serialized: LoadImage re-derives
// them from Code, the same way AddFunction does (DESIGN.md §14).
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
// RebindFunction (cache hits) can point a name at an index other than
// its latest descriptor.
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

// Image is the machine's serializable state. All fields are exported
// value types, so gob round-trips it without loss — except Instr's
// unexported resolved jump target, which travels in the parallel Targets
// slice.
type Image struct {
	Syms     []SymCell
	Funcs    []FuncDesc
	Bindings []ImageBinding
	Code     []Instr
	// Targets holds Code[i]'s resolved jump target. Instr keeps it
	// unexported (gob would silently drop it and every branch would land
	// on instruction 0), so the image carries it out of band.
	Targets []int64
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
		Targets:     make([]int64, len(m.Code)),
		Boxes:       make([]string, len(m.Boxes)),
		Heap:        append([]Word(nil), m.heap...),
		Regs:        append([]Word(nil), m.regs[:]...),
		Blocks:      make([]ImageBlock, 0, len(m.gcBlocks)),
		FreeSmall:   make([][]uint64, gcSmallMax+1),
		LiveWords:   m.liveWords,
		LiveSinceGC: m.liveSinceGC,
		GCThreshold: m.gcThreshold,
	}
	for i := range m.Code {
		img.Targets[i] = int64(m.Code[i].target)
	}
	for i, b := range m.Boxes {
		img.Boxes[i] = sexp.Print(b)
	}
	if sp := m.regs[RegSP].Bits; IsStackAddr(sp) {
		img.Stack = append([]Word(nil), m.stack[:sp-StackBase]...)
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
	if len(img.Targets) != len(img.Code) {
		return fmt.Errorf("s1: image targets (%d) do not parallel code (%d)", len(img.Targets), len(img.Code))
	}
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
	for i, t := range img.Targets {
		if t < 0 || t > int64(len(img.Code)) {
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
// (New plus configuration: Out, limits, tier/gc-stress toggles —
// nothing that adds code, symbols or heap). The decoded streams and tier
// tables are re-derived from the restored Code, honoring whatever
// execution configuration the machine carries.
func (m *Machine) LoadImage(img *Image) error {
	if len(m.Funcs) > 0 || len(m.Syms) > 0 || len(m.heap) > 0 || len(m.Code) > 1 || len(m.Boxes) > 0 {
		return fmt.Errorf("s1: LoadImage target machine is not fresh")
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

	m.Code = append([]Instr(nil), img.Code...)
	for i := range m.Code {
		m.Code[i].target = int(img.Targets[i])
	}
	m.Funcs = append([]FuncDesc(nil), img.Funcs...)
	m.funcIdx = make(map[string]int, len(img.Bindings))
	for _, b := range img.Bindings {
		m.funcIdx[b.Name] = b.Idx
	}
	// Re-intern in order so symIdx and the incremental symHash (an
	// AllocContext input) match the exporting machine exactly.
	m.Syms = append([]SymCell(nil), img.Syms...)
	m.symIdx = make(map[string]int, len(img.Syms))
	m.symHash = 0
	for i := range m.Syms {
		m.symIdx[m.Syms[i].Name] = i
		m.foldSymHash(m.Syms[i].Name)
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
	m.ensureStack()
	copy(m.stack, img.Stack)
	m.stackDirty = max(m.stackDirty, uint64(len(img.Stack)))
	m.pc, m.halted = 0, false

	// Derived execution state: decode the whole restored code vector,
	// then bring the tier engine's tables up to size — promoting
	// everything when the machine is configured forced hot, exactly as
	// AddFunction would have.
	m.decBase, m.dec, m.tierHeads = nil, nil, nil
	m.ensureDecoded()
	if t := m.tier; t != nil {
		t.ensure(len(m.Funcs))
		if t.threshold <= 0 {
			for i := range m.Funcs {
				t.promote(m, i)
			}
		}
	}
	if err := m.CheckHeapInvariants(); err != nil {
		return fmt.Errorf("s1: restored image fails heap invariants: %w", err)
	}
	return nil
}
