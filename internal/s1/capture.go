package s1

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"
)

// Compile capture and replay: the durable compile cache persists the
// *machine mutations* a compiled function's emission performed — the
// symbols it interned, the constants it built on the heap, and the
// function bodies it installed (its own, plus any closure bodies and
// primitive stubs), each assembled, with its jump targets relative to
// its entry so that installing it is a copy plus a relocation.
// Replaying those mutations against a machine in the same allocator
// context reproduces the emission exactly, word for word, which is what
// makes a disk hit byte-identical to a recompile (DESIGN.md §11).
//
// The context guard is AllocContext: a fingerprint of everything that
// determines the addresses and indices an emission hands out — symbol
// table contents, function/code/box counts, heap extent, free-list
// state, and the GC knobs that can fire a collection mid-emission. An
// entry recorded under one context is only replayed into an identical
// one; anything else falls back to recompilation.

// Capture records the machine mutations of one function's emission.
type Capture struct {
	// Syms are the names newly interned, in intern order.
	Syms []string
	// Consts are the printed forms of every top-level FromValue call, in
	// call order; replaying them re-creates the same heap structure at
	// the same addresses (given an equal AllocContext).
	Consts []string
	// Funcs are the function bodies installed, in install order, each
	// assembled with its jump targets relative to its entry; the last one
	// is the unit's own body.
	Funcs []Body
}

// Body is an installed function's assembled code as a capture records
// it: its jump targets are relative to the body's entry until
// Machine.AddBody rebases them to where it lands.
type Body struct {
	Name             string
	MinArgs, MaxArgs int
	Code             []Instr
	// lowered keeps the lowered stream of the body's first install (nil
	// for a Body not built by ReadBody), before it ever ran. A replay
	// lands a body at the entry PC its capture's allocator context pins,
	// so every later install at that PC copies the stream instead of
	// lowering.
	lowered *atomic.Pointer[bodyStream]
}

// bodyStream is a body's lowered stream as installed at entry: read
// only, since every install copies it by value.
type bodyStream struct {
	entry int
	ops   []lop
}

// BeginCapture starts recording machine mutations. Captures do not nest.
func (m *Machine) BeginCapture() error {
	if m.cap != nil {
		return fmt.Errorf("s1: capture already in progress")
	}
	m.cap = &Capture{}
	return nil
}

// EndCapture stops recording and returns the capture (nil if none was in
// progress).
func (m *Machine) EndCapture() *Capture {
	c := m.cap
	m.cap = nil
	m.capDepth = 0
	return c
}

// AllocContext fingerprints the machine state that determines the
// addresses and indices the next emission will hand out: the symbol
// table (names, incrementally hashed), the function/code/box extents,
// the heap extent and allocator free lists, the free box slots, and the
// GC configuration that can trigger collections mid-emission. Two
// machines with equal contexts hand out identical addresses for
// identical request sequences.
// Generational state (young list, cards, old bits, promotion pressure)
// is deliberately NOT part of the context: no compile configuration sets
// a GC threshold, and GC stress pins full collections, so the
// minor-vs-full choice can never fire during an emission and the gen
// bits cannot influence the addresses handed out. Including them would
// break the snapshot layer, which restores every block as old and must
// still produce the exporting machine's context.
func (m *Machine) AllocContext() string {
	// The fingerprint is FNV-1a over the text
	//   syms=%d:%x|funcs=%d|code=%d|boxes=%d|heap=%d|live=%d|since=%d|thr=%d|lim=%d|stress=%t|
	// followed by f<size>=[offsets]| per non-empty small free list,
	// F<size>=[offsets]| per big one, sizes ascending, and
	// b<count>=[slots]| when the box table has free slots — built with
	// strconv rather than fmt because every replayed unit and every
	// restore computes it.
	var buf [256]byte
	b := append(buf[:0], "syms="...)
	b = strconv.AppendInt(b, int64(len(m.Syms)), 10)
	b = append(b, ':')
	b = strconv.AppendUint(b, m.symHash, 16)
	for _, f := range [...]struct {
		name string
		v    int64
	}{
		{"|funcs=", int64(len(m.Funcs))}, {"|code=", int64(len(m.Code))},
		{"|boxes=", int64(len(m.Boxes))}, {"|heap=", int64(len(m.heap))},
		{"|live=", m.liveWords}, {"|since=", m.liveSinceGC},
		{"|thr=", m.gcThreshold}, {"|lim=", m.HeapLimit},
	} {
		b = append(b, f.name...)
		b = strconv.AppendInt(b, f.v, 10)
	}
	b = append(b, "|stress="...)
	b = strconv.AppendBool(b, m.gcStress)
	b = append(b, '|')
	// Free lists: a replayed allocation must pop the same block a fresh
	// compile would.
	freeList := func(b []byte, kind byte, size int, lst []uint64) []byte {
		b = append(b, kind)
		b = strconv.AppendInt(b, int64(size), 10)
		b = append(b, "=["...)
		for i, off := range lst {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendUint(b, off, 10)
		}
		return append(b, "]|"...)
	}
	for n := 0; n <= gcSmallMax; n++ {
		if lst := m.freeSmall[n]; len(lst) > 0 {
			b = freeList(b, 'f', n, lst)
		}
	}
	if len(m.freeBig) > 0 {
		sizes := make([]int, 0, len(m.freeBig))
		for n := range m.freeBig {
			sizes = append(sizes, n)
		}
		sort.Ints(sizes)
		for _, n := range sizes {
			b = freeList(b, 'F', n, m.freeBig[n])
		}
	}
	if slots := m.freeBoxSlots(); len(slots) > 0 {
		b = freeList(b, 'b', len(slots), slots)
	}
	h := uint64(0xcbf29ce484222325) // FNV-1a offset basis
	for _, c := range b {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return hex.EncodeToString(binary.BigEndian.AppendUint64(buf[:0], h))
}

// foldSymHash extends the incremental symbol hash with one new cell
// (order-sensitive by construction, so each cell's position is folded
// too). An uninterned cell folds its flag, not its name: a gensym's name
// depends on what the process gensym'd before.
func (m *Machine) foldSymHash(c *SymCell) {
	h := m.symHash
	if h == 0 {
		h = 0xcbf29ce484222325 // FNV-1a offset basis
	}
	if c.Uninterned {
		h = (h ^ 0x1e) * 0x100000001b3 // uninterned flag
	} else {
		for i := 0; i < len(c.Name); i++ {
			h = (h ^ uint64(c.Name[i])) * 0x100000001b3
		}
	}
	h = (h ^ 0x1f) * 0x100000001b3 // name separator
	m.symHash = h
}

// CheckHeapInvariants validates the allocator's block records against
// the heap: every registered block has a positive size inside the heap
// extent, blocks never overlap, interior record slots stay zero, free
// blocks are exactly the ones on the free lists, and liveWords equals
// the sum of non-free block and box sizes, and the box table passes
// checkBoxes (no reachable word indexes a free slot). The GC-stress
// differential runs call it after every kernel.
func (m *Machine) CheckHeapInvariants() error {
	if len(m.gcRecs) != len(m.heap) {
		return fmt.Errorf("s1 gc: record slice length %d != heap length %d", len(m.gcRecs), len(m.heap))
	}
	seen := make(map[uint64]bool, len(m.gcBlocks))
	offs := make([]uint64, 0, len(m.gcBlocks))
	var live int64
	for _, off := range m.gcBlocks {
		if seen[off] {
			return fmt.Errorf("s1 gc: block %d registered twice", off)
		}
		seen[off] = true
		if off >= uint64(len(m.gcRecs)) {
			return fmt.Errorf("s1 gc: block %d outside record slice (%d)", off, len(m.gcRecs))
		}
		rec := &m.gcRecs[off]
		if rec.size <= 0 {
			return fmt.Errorf("s1 gc: block %d has non-positive size %d", off, rec.size)
		}
		if off+uint64(rec.size) > uint64(len(m.heap)) {
			return fmt.Errorf("s1 gc: block %d size %d overruns heap (%d)", off, rec.size, len(m.heap))
		}
		if !rec.free {
			live += int64(rec.size)
		}
		offs = append(offs, off)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	for i := 1; i < len(offs); i++ {
		prev := offs[i-1]
		if prev+uint64(m.gcRecs[prev].size) > offs[i] {
			return fmt.Errorf("s1 gc: blocks %d (size %d) and %d overlap",
				prev, m.gcRecs[prev].size, offs[i])
		}
	}
	// Interior record slots must be zero, or a stale record would make
	// the mark phase treat a block interior as a block start.
	for _, off := range offs {
		for i := uint64(1); i < uint64(m.gcRecs[off].size); i++ {
			if r := m.gcRecs[off+i]; r.size != 0 {
				return fmt.Errorf("s1 gc: interior slot %d of block %d holds a record (size %d)",
					off+i, off, r.size)
			}
		}
	}
	boxLive, err := m.checkBoxes()
	if err != nil {
		return err
	}
	if live += boxLive; live != m.liveWords {
		return fmt.Errorf("s1 gc: liveWords meter %d != summed non-free block and box words %d", m.liveWords, live)
	}
	// Every free-list member must be a registered free block of that size.
	checkList := func(size int, lst []uint64) error {
		for _, off := range lst {
			if !seen[off] {
				return fmt.Errorf("s1 gc: free list %d holds unregistered block %d", size, off)
			}
			rec := &m.gcRecs[off]
			if !rec.free {
				return fmt.Errorf("s1 gc: free list %d holds live block %d", size, off)
			}
			if int(rec.size) != size {
				return fmt.Errorf("s1 gc: free list %d holds block %d of size %d", size, off, rec.size)
			}
		}
		return nil
	}
	for n := 0; n <= gcSmallMax; n++ {
		if err := checkList(n, m.freeSmall[n]); err != nil {
			return err
		}
	}
	for n, lst := range m.freeBig {
		if err := checkList(n, lst); err != nil {
			return err
		}
		if len(lst) == 0 {
			return fmt.Errorf("s1 gc: freeBig holds empty size class %d (pruning failed)", n)
		}
	}
	// Generational invariants: the card table covers the heap extent, and
	// the nursery list is exactly the live young blocks — every entry a
	// registered, non-free, non-old block, listed once; every live block
	// off the list tenured. (Collections clear the list wholesale, so a
	// freed-then-unlisted young block cannot exist between collections.)
	if cardsFor(len(m.heap)) > len(m.cards) {
		return fmt.Errorf("s1 gc: card table (%d) does not cover heap (%d words)", len(m.cards), len(m.heap))
	}
	young := make(map[uint64]bool, len(m.youngBlocks))
	for _, off := range m.youngBlocks {
		if young[off] {
			return fmt.Errorf("s1 gc: young block %d listed twice", off)
		}
		young[off] = true
		if !seen[off] {
			return fmt.Errorf("s1 gc: young list holds unregistered block %d", off)
		}
		rec := &m.gcRecs[off]
		if rec.free {
			return fmt.Errorf("s1 gc: young list holds free block %d", off)
		}
		if rec.old {
			return fmt.Errorf("s1 gc: young list holds tenured block %d", off)
		}
	}
	for _, off := range m.gcBlocks {
		rec := &m.gcRecs[off]
		if !rec.free && !rec.old && !young[off] {
			return fmt.Errorf("s1 gc: live young block %d missing from young list", off)
		}
	}
	return nil
}
