package s1

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/sexp"
)

// A generational, non-moving mark-sweep garbage collector for the
// simulator heap. The paper's runtime "and especially the garbage
// collector, has been written with multiprocessing in mind"; ours is a
// stop-the-world single-threaded collector — the compilation techniques
// under study interact with it only through allocation pressure, which
// the pdl-number machinery exists to reduce.
//
// The collector is non-moving: freed blocks go on per-size free lists
// and Alloc reuses them. Roots are the registers, the live stack extent,
// the deep-binding stack, catch frames, symbol value/function cells, and
// every immediate operand in compiled code (quoted constants).
//
// Block records live in gcRecs, a slice parallel to the heap: the entry
// at a block's start offset holds {size, marked, free, old}; interior
// offsets stay zero. Because the heap is non-moving and offsets are
// dense, this turns the mark-phase pointer test and the per-allocation
// record insert into slice indexing — the address-keyed map this
// replaced dominated allocation-heavy kernel profiles. Free lists for
// small sizes are array-bucketed (freeSmall); rare larger sizes fall
// back to a map whose emptied size classes are pruned on reuse.
//
// Generations (DESIGN.md §15). Blocks are born young: every allocation
// since the last collection — fresh growth or free-list reuse — joins
// youngBlocks. A *minor* collection marks only young blocks, starting
// from the machine roots plus the remembered set, and sweeps only
// youngBlocks; survivors are promoted in place by their sticky mark
// (old=true) and the list empties. A *full* collection marks and sweeps
// everything, tenuring all survivors. The pause of a minor is thus
// proportional to the nursery and the dirty-card extent, not to the
// total live heap.
//
// The remembered set is a card table parallel to the heap at cardWords
// granularity: the write barrier in Machine.store / storeFast (the only
// paths by which compiled code mutates existing heap blocks) dirties the
// stored-to card, and a minor collection treats every word of every
// dirty card as a root. This over-approximates — a dirty card retains
// any young block it happens to mention — but it is cheap (one byte
// store per heap store), needs no block lookup from interior addresses,
// and clearing all cards after every collection is exact: all young
// survivors are promoted, so a post-collection old→young edge can only
// be created by a post-collection store.
//
// Writes into a block allocated after the last possible collection point
// need no barrier (the block is young, and young blocks are traversed):
// Cons, ConsFlonum and step's CLOSE and ENV cases fill their blocks
// immediately.
// A builder that fills a block *across* further allocations (FromValue's
// vectors) must use heapWrite, because an intervening minor collection
// may have tenured the partially built block.
//
// Boxed objects. A TagBoxed word indexes Machine.Boxes, and the
// collector treats each slot as a block of boxWords words that lives
// outside the heap: Box charges those words as gcAlloc charges a
// block's, markPush sets the slot's flag in boxMarks (a box holds no
// words, so there is nothing to trace), a full collection sweeps every
// slot and a minor only youngBoxes, the slots filled since the last
// collection. Because a box holds no words, an old block that refers to
// a young box got that reference by a store since the last collection,
// through the write barrier, exactly as for a young block: the
// remembered set covers young boxes with no change. A swept slot is set
// to nil, which is both the free marker — Box refills the lowest nil
// slot before it appends — and the poison: ToValue refuses a word that
// indexes one, and so does CheckHeapInvariants.

// gcRec tracks one heap block; the zero value marks a non-block offset.
type gcRec struct {
	size   int32
	marked bool
	free   bool
	// old marks a tenured block: minor collections neither trace through
	// it nor sweep it. Blocks are born young; a minor survivor is
	// promoted by its sticky mark, and a full collection tenures every
	// survivor. Meaningless while free is set (reuse resets it).
	old bool
}

// gcSmallMax bounds the array-bucketed free lists; Cons cells, flonums,
// closures and small vectors all fall well under it.
const gcSmallMax = 64

// Card-table granularity: one byte of cards covers 1<<cardShift heap
// words. Coarse enough that the table stays a fraction of a percent of
// the heap, fine enough that a minor collection's card scan visits only
// a neighborhood of each recorded store.
const (
	cardShift = 7
	cardWords = 1 << cardShift
)

// cardsFor returns the card-table length covering n heap words.
func cardsFor(n int) int { return (n + cardWords - 1) >> cardShift }

// gcPromoteFullFactor bounds promotion pressure: once the words tenured
// since the last full collection exceed this multiple of the threshold,
// the old generation holds enough possibly-dead structure that minors
// stop paying and the next automatic collection goes full.
const gcPromoteFullFactor = 8

// heapExhausted is the internal panic value raised when an allocation
// cannot fit under HeapLimit even after a forced collection; the run
// loop's recover barrier converts it into a RuntimeError.
type heapExhausted struct {
	need, live, limit int64
}

func (e *heapExhausted) Error() string {
	return fmt.Sprintf("heap exhausted: %d live words + %d requested exceeds limit %d after GC",
		e.live, e.need, e.limit)
}

// GCStats meters collector activity. Collections counts full
// collections only; minors are metered separately.
type GCStats struct {
	Collections      int64
	MinorCollections int64
	WordsReclaimed   int64
	BlocksFreed      int64
	WordsReused      int64
	// Promotion traffic: young blocks tenured by minor collections
	// (full collections tenure everything but are not promotion in this
	// sense — they reset the pressure instead).
	WordsPromoted  int64
	BlocksPromoted int64
}

// GCThresholdWords, when >0, triggers a collection automatically whenever
// live heap growth since the last collection exceeds the threshold.
func (m *Machine) SetGCThreshold(words int64) { m.gcThreshold = words }

// SetGCNoGen disables generational collection: every automatic
// collection is a full mark-sweep (the -gc-nogen flag). The write
// barrier still runs — store paths are identical in both modes — but
// the cards are never consulted. The differential suites compare this
// mode against the generational default.
func (m *Machine) SetGCNoGen(v bool) { m.gcNoGen = v }

// SetGCStressMinor forces a minor collection before every allocation —
// the generational counterpart of SetGCStress. Every object that
// survives a single allocation is promoted immediately, so any heap
// store missing the write barrier turns into a deterministic poisoned
// read instead of a rare heap-pressure corruption.
func (m *Machine) SetGCStressMinor(v bool) { m.gcStressMinor = v }

// GC runs a full mark-sweep collection and returns the number of words
// reclaimed. Every survivor is tenured, the nursery list empties, and
// the card table clears: the next minor starts from an empty remembered
// set, which is exact because no young blocks remain to remember.
func (m *Machine) GC() int64 {
	m.GCMeters.Collections++
	var gcStart time.Time
	if m.prof != nil || m.OnEvent != nil {
		gcStart = time.Now()
	}

	m.markRoots(false)

	reclaimed, blocks := m.sweepBoxes(false)
	for _, off := range m.gcBlocks {
		rec := &m.gcRecs[off]
		if rec.free {
			continue
		}
		if rec.marked {
			rec.marked = false
			rec.old = true
			continue
		}
		rec.free = true
		m.gcFree(int(rec.size), off)
		reclaimed += int64(rec.size)
		blocks++
		// Poison the block to catch dangling pointers in tests.
		for i := int32(0); i < rec.size; i++ {
			m.heap[off+uint64(i)] = Word{Tag: TagGC, Bits: 0xdead}
		}
	}
	m.youngBlocks = m.youngBlocks[:0]
	clear(m.cards)
	m.promotedSinceFull = 0
	m.GCMeters.WordsReclaimed += reclaimed
	m.GCMeters.BlocksFreed += blocks
	m.liveSinceGC = 0
	m.liveWords -= reclaimed
	if m.prof != nil || m.OnEvent != nil {
		pause := time.Since(gcStart)
		if p := m.prof; p != nil {
			p.gcPause(pause)
		}
		if m.OnEvent != nil {
			m.OnEvent("gc-pause", "", pause)
		}
	}
	return reclaimed
}

// MinorGC runs a minor collection — mark young blocks from the roots
// and the remembered set, sweep only the nursery, promote survivors in
// place — and returns the words reclaimed. Old blocks are neither
// traced through nor swept: any old→young edge must be in a dirty card,
// which is exactly what the write barrier guarantees.
func (m *Machine) MinorGC() int64 {
	m.GCMeters.MinorCollections++
	timed := m.prof != nil || m.OnEvent != nil
	var gcStart time.Time
	if timed {
		gcStart = time.Now()
	}

	m.markRoots(true)

	reclaimed, blocks := m.sweepBoxes(true)
	for _, off := range m.youngBlocks {
		rec := &m.gcRecs[off]
		if rec.free {
			continue
		}
		if rec.marked {
			rec.marked = false
			rec.old = true
			m.GCMeters.WordsPromoted += int64(rec.size)
			m.GCMeters.BlocksPromoted++
			m.promotedSinceFull += int64(rec.size)
			continue
		}
		rec.free = true
		m.gcFree(int(rec.size), off)
		reclaimed += int64(rec.size)
		blocks++
		for i := int32(0); i < rec.size; i++ {
			m.heap[off+uint64(i)] = Word{Tag: TagGC, Bits: 0xdead}
		}
	}
	m.youngBlocks = m.youngBlocks[:0]
	clear(m.cards)
	m.GCMeters.WordsReclaimed += reclaimed
	m.GCMeters.BlocksFreed += blocks
	m.liveSinceGC = 0
	m.liveWords -= reclaimed
	if timed {
		pause := time.Since(gcStart)
		if p := m.prof; p != nil {
			p.gcPause(pause)
		}
		if m.OnEvent != nil {
			m.OnEvent("gc-minor-pause", "", pause)
		}
	}
	return reclaimed
}

// collectAuto is the threshold-triggered collection: a minor by
// default, escalating to a full collection when generations are off or
// when promotion pressure says the old generation needs reclaiming. The
// escalation inputs (liveSinceGC, promotedSinceFull, the static toggles)
// are all functions of the allocation and store history, so two
// machines with identical histories collect identically.
func (m *Machine) collectAuto() {
	if m.gcNoGen || m.promotedSinceFull >= gcPromoteFullFactor*m.gcThreshold {
		m.GC()
	} else {
		m.MinorGC()
	}
	// GC-check sites are safepoints too: an allocation-heavy program
	// charges its gas (and can be parked) here, between the coarser
	// Run-loop polls.
	m.gcSafepoint()
}

// markRoots pushes every root onto the mark worklist — plus, for a
// minor collection, every word of every dirty card (the remembered set)
// — and drains it. The worklist replaced a per-word recursive closure:
// a long cons chain used to cost one Go stack frame per cell, a speed
// and stack-depth hazard the deep-list regression test pins down.
func (m *Machine) markRoots(minor bool) {
	if n := len(m.Boxes); n <= cap(m.boxMarks) {
		m.boxMarks = m.boxMarks[:n]
		clear(m.boxMarks)
	} else {
		m.boxMarks = make([]bool, n)
	}
	for _, r := range m.regs {
		m.markPush(r, minor)
	}
	// Words between the stack's end and SP (slots ADD SP reserved and
	// nothing wrote) are zero, so the scan stops at whichever comes first.
	if sp := m.regs[RegSP].Bits; IsStackAddr(sp) {
		for _, w := range m.stack[:min(sp-StackBase, uint64(len(m.stack)))] {
			m.markPush(w, minor)
		}
	}
	for _, b := range m.bindStack {
		m.markPush(b.val, minor)
	}
	// Mid-construction structure held only in host locals (FromValue,
	// the SQ list builders) is registered on the temp-root stack; without
	// it, a collection between the allocations of a multi-word build
	// would reclaim the partially built object (surfaced by GC stress).
	for _, w := range m.tempRoots {
		m.markPush(w, minor)
	}
	for _, f := range m.catchStack {
		m.markPush(f.tag, minor)
	}
	for i := range m.Syms {
		m.markPush(m.Syms[i].Value, minor)
		m.markPush(m.Syms[i].Function, minor)
	}
	for i := range m.Code {
		ins := &m.Code[i]
		if ins.A.Mode == MImm {
			m.markPush(ins.A.Imm, minor)
		}
		if ins.B.Mode == MImm {
			m.markPush(ins.B.Imm, minor)
		}
		if ins.C.Mode == MImm {
			m.markPush(ins.C.Imm, minor)
		}
	}
	if minor {
		hl := uint64(len(m.heap))
		for c, dirty := range m.cards {
			if dirty == 0 {
				continue
			}
			base := uint64(c) << cardShift
			end := base + cardWords
			if end > hl {
				end = hl
			}
			for i := base; i < end; i++ {
				m.markPush(m.heap[i], minor)
			}
		}
	}
	m.markDrain(minor)
}

// markPush marks w's block and queues it for tracing if w points into
// an unmarked live heap block — an unmarked live *young* block, during
// a minor collection. A box word marks its slot; marking an old box in
// a minor is harmless, since a minor sweeps only young ones. The mark
// loops call it per word, so it must stay within the inliner's budget
// (go build -gcflags=-m reports "can inline (*Machine).markPush").
func (m *Machine) markPush(w Word, minor bool) {
	if !heapTag[w.Tag] {
		if w.Tag == TagBoxed && w.Bits < uint64(len(m.boxMarks)) {
			m.boxMarks[w.Bits] = true
		}
		return
	}
	// A word below HeapBase wraps to an offset past the records.
	off := w.Bits - HeapBase
	if off >= uint64(len(m.gcRecs)) {
		return
	}
	rec := &m.gcRecs[off]
	if rec.size == 0 || rec.marked || rec.free || (minor && rec.old) {
		return
	}
	rec.marked = true
	m.markStack = append(m.markStack, off)
}

// heapTag marks the tags whose words address heap blocks.
var heapTag = [256]bool{TagCons: true, TagFlonum: true, TagClosure: true, TagEnv: true,
	TagVector: true, TagArray: true, TagFArray: true}

// markDrain traces queued blocks until the worklist is empty. Raw
// payloads (flonum data, float-array data) contain no pointers but
// scanning the whole block is harmless since raw words carry TagRaw.
func (m *Machine) markDrain(minor bool) {
	for n := len(m.markStack); n > 0; n = len(m.markStack) {
		off := m.markStack[n-1]
		m.markStack = m.markStack[:n-1]
		size := uint64(m.gcRecs[off].size)
		for i := uint64(0); i < size; i++ {
			m.markPush(m.heap[off+i], minor)
		}
	}
}

// heapWrite is the write-barriered form of a direct heap write (off is
// heap-relative), for builders that fill a block across further
// allocations: an intervening minor collection may have tenured the
// partially built block, so the store must land in the remembered set
// exactly as an RPLACA through Machine.store would.
func (m *Machine) heapWrite(off uint64, w Word) {
	m.heap[off] = w
	m.cards[off>>cardShift] = 1
}

// gcFree pushes a freed block's offset onto the free list for its size.
func (m *Machine) gcFree(n int, off uint64) {
	if n <= gcSmallMax {
		m.freeSmall[n] = append(m.freeSmall[n], off)
		return
	}
	if m.freeBig == nil {
		m.freeBig = map[int][]uint64{}
	}
	m.freeBig[n] = append(m.freeBig[n], off)
}

// gcReuse pops a free block of exactly n words, returning its offset.
// A big size class emptied by the pop is deleted, so freeBig never
// accumulates dead entries (they would otherwise linger in every
// AllocContext hash and image export for the life of the machine).
func (m *Machine) gcReuse(n int) (uint64, bool) {
	if n <= gcSmallMax {
		if lst := m.freeSmall[n]; len(lst) > 0 {
			off := lst[len(lst)-1]
			m.freeSmall[n] = lst[:len(lst)-1]
			return off, true
		}
		return 0, false
	}
	if lst := m.freeBig[n]; len(lst) > 0 {
		off := lst[len(lst)-1]
		if len(lst) == 1 {
			delete(m.freeBig, n)
		} else {
			m.freeBig[n] = lst[:len(lst)-1]
		}
		return off, true
	}
	return 0, false
}

// protect pushes a word onto the temp-root stack, shielding structure
// reachable only from host locals across allocations; the caller must
// balance it with release. Returns the depth to restore.
func (m *Machine) protect(w Word) int {
	m.tempRoots = append(m.tempRoots, w)
	return len(m.tempRoots) - 1
}

// release pops temp roots down to depth (a value previously returned by
// protect).
func (m *Machine) release(depth int) {
	m.tempRoots = m.tempRoots[:depth]
}

// Pin roots w on the temp-root stack for a holder outside the machine —
// a literal in a function body not yet installed, a call argument not
// yet pushed — and returns it. Any allocation can collect, so such a
// word must stay pinned until the machine itself references it; the
// caller unpins with Unpin(PinDepth()) taken beforehand.
func (m *Machine) Pin(w Word) Word {
	m.protect(w)
	return w
}

// PinDepth is the current temp-root depth, for a later Unpin.
func (m *Machine) PinDepth() int { return len(m.tempRoots) }

// Unpin pops temp roots down to depth.
func (m *Machine) Unpin(depth int) { m.release(depth) }

// collectDue reports whether an allocation of n words must first run
// collectFor. It inlines, so the allocators pay no call when, as almost
// always, nothing is due.
func (m *Machine) collectDue(n int64) bool {
	return m.gcStress || m.gcStressMinor || m.gcThreshold > 0 && m.liveSinceGC >= m.gcThreshold ||
		m.HeapLimit > 0 && m.liveWords+n > m.HeapLimit
}

// collectFor runs the collection an allocation of n words calls for.
func (m *Machine) collectFor(n int64) {
	if m.gcStress {
		// Stress mode: collect before every allocation, making every
		// allocation point a GC safepoint. Any structure not reachable
		// from the roots dies immediately — construction-order bugs
		// surface deterministically instead of under rare heap pressure.
		m.GC()
	} else if m.gcStressMinor {
		m.MinorGC()
	} else if m.gcThreshold > 0 && m.liveSinceGC >= m.gcThreshold {
		m.collectAuto()
	}
	// The heap guard: collect when the limit would be crossed, and if
	// the survivors still don't leave room, fail the allocation — as a
	// panic, because the call chain down to Cons has no error path; the
	// run loop converts it to a RuntimeError. Always a full collection:
	// a minor cannot reclaim the old generation the limit is drowning in.
	if m.HeapLimit > 0 && m.liveWords+n > m.HeapLimit {
		m.GC()
		if m.liveWords+n > m.HeapLimit {
			panic(&heapExhausted{need: n, live: m.liveWords, limit: m.HeapLimit})
		}
	}
}

// Box puts an immutable host object in the box table and returns its
// word. It is an allocation point: it charges boxWords(v) as gcAlloc
// charges a block (no Stats meter moves), then fills the lowest free
// slot, or appends one. The slot is young until the next collection.
func (m *Machine) Box(v sexp.Value) Word {
	n := boxWords(v)
	if m.collectDue(n) {
		m.collectFor(n)
	}
	m.liveWords += n
	m.liveSinceGC += n
	for m.boxLow < len(m.Boxes) && m.Boxes[m.boxLow] != nil {
		m.boxLow++
	}
	i := m.boxLow
	if i < len(m.Boxes) {
		m.ownBoxes()
		m.Boxes[i] = v
	} else {
		// A shared table's capacity is clipped, so this copies it.
		m.Boxes = append(m.Boxes, v)
		m.boxesShared = false
	}
	m.boxLow++
	m.youngBoxes = append(m.youngBoxes, uint32(i))
	return Ptr(TagBoxed, uint64(i))
}

// unbox returns the object a box word indexes; a word that indexes a
// free slot (or none) is a dangling box, which the collector's
// poisoning exists to catch.
func (m *Machine) unbox(w Word) (sexp.Value, error) {
	if w.Bits < uint64(len(m.Boxes)) && m.Boxes[w.Bits] != nil {
		return m.Boxes[w.Bits], nil
	}
	return nil, &RuntimeError{PC: m.pc, Msg: "dangling box " + w.String()}
}

// boxWords is what a boxed object counts against the heap: its payload
// in words, plus one for the slot.
func boxWords(v sexp.Value) int64 {
	switch x := v.(type) {
	case *sexp.Bignum:
		return int64(len(x.X.Bits())) + 1
	case *sexp.Ratio:
		return int64(len(x.X.Num().Bits())+len(x.X.Denom().Bits())) + 1
	case sexp.String:
		return int64(len(x)+7)/8 + 1
	}
	return 1
}

// ownBoxes gives the machine its own copy of a box table it shares with
// a template (LoadFrom), before the first write into a slot.
func (m *Machine) ownBoxes() {
	if m.boxesShared {
		m.Boxes = slices.Clone(m.Boxes)
		m.boxesShared = false
	}
}

// sweepBoxes frees the unmarked boxes — every slot in a full
// collection, the young ones in a minor, whose survivors are promoted —
// and returns the words and boxes it freed. The nursery empties either
// way.
func (m *Machine) sweepBoxes(minor bool) (words, boxes int64) {
	free := func(i int) {
		m.ownBoxes()
		words += boxWords(m.Boxes[i])
		boxes++
		m.Boxes[i] = nil
		m.boxLow = min(m.boxLow, i)
	}
	if minor {
		for _, j := range m.youngBoxes {
			if i := int(j); !m.boxMarks[i] {
				free(i)
			} else {
				n := boxWords(m.Boxes[i])
				m.GCMeters.WordsPromoted += n
				m.GCMeters.BlocksPromoted++
				m.promotedSinceFull += n
			}
		}
	} else {
		for i, v := range m.Boxes {
			if v != nil && !m.boxMarks[i] {
				free(i)
			}
		}
	}
	m.youngBoxes = m.youngBoxes[:0]
	return words, boxes
}

// freeBoxSlots lists the free box slots in ascending order, the slots
// Box will fill next (AllocContext). None lies below boxLow.
func (m *Machine) freeBoxSlots() []uint64 {
	var slots []uint64
	for i := m.boxLow; i < len(m.Boxes); i++ {
		if m.Boxes[i] == nil {
			slots = append(slots, uint64(i))
		}
	}
	return slots
}

// checkBoxes is CheckHeapInvariants' check of the box table: no free
// slot lies below boxLow, the young list holds each live slot at most
// once, and no word reachable from the roots indexes a free slot (a
// dangling box), which takes a full mark phase whose block marks it
// clears again. It returns the words the live boxes are charged.
func (m *Machine) checkBoxes() (int64, error) {
	var live int64
	for i, v := range m.Boxes {
		if v != nil {
			live += boxWords(v)
		} else if i < m.boxLow {
			return 0, fmt.Errorf("s1 gc: free box slot %d lies below boxLow %d", i, m.boxLow)
		}
	}
	young := make(map[uint32]bool, len(m.youngBoxes))
	for _, i := range m.youngBoxes {
		if young[i] || int(i) >= len(m.Boxes) || m.Boxes[i] == nil {
			return 0, fmt.Errorf("s1 gc: young box list holds slot %d twice, out of range or free", i)
		}
		young[i] = true
	}
	m.markRoots(false)
	for _, off := range m.gcBlocks {
		m.gcRecs[off].marked = false
	}
	for i, v := range m.Boxes {
		if v == nil && m.boxMarks[i] {
			return 0, fmt.Errorf("s1 gc: a reachable word indexes free box slot %d", i)
		}
	}
	return live, nil
}

// gcAlloc is Alloc with free-list reuse and the auto-collect trigger.
// Every block it returns — reused or fresh — is young.
func (m *Machine) gcAlloc(n int) uint64 {
	if m.collectDue(int64(n)) {
		m.collectFor(int64(n))
	}
	m.liveWords += int64(n)
	m.liveSinceGC += int64(n)
	m.Stats.HeapAllocs++
	if off, ok := m.gcReuse(n); ok {
		rec := &m.gcRecs[off]
		rec.free = false
		rec.marked = false
		rec.old = false
		m.youngBlocks = append(m.youngBlocks, off)
		for i := 0; i < n; i++ {
			m.heap[off+uint64(i)] = Word{}
		}
		m.GCMeters.WordsReused += int64(n)
		return HeapBase + off
	}
	off := uint64(len(m.heap))
	// Grow heap and the parallel record and card slices. Extending
	// within capacity is the common case. On spill, double the capacity
	// rather than letting append pick its large-slice growth factor: a
	// program that outruns the collector grows the heap monotonically,
	// and the copy per appended word is the allocator's dominant cost at
	// 1.25x. Heap words past len have never been written, so they are
	// zero (the arena reset re-establishes this for recycled storage).
	need := len(m.heap) + n
	if need <= cap(m.heap) {
		m.heap = m.heap[:need]
	} else {
		grown := make([]Word, need, growCap(need))
		copy(grown, m.heap)
		m.heap = grown
	}
	if need <= cap(m.gcRecs) {
		m.gcRecs = m.gcRecs[:need]
	} else {
		grown := make([]gcRec, need, growCap(need))
		copy(grown, m.gcRecs)
		m.gcRecs = grown
	}
	if cl := cardsFor(need); cl > len(m.cards) {
		if cl <= cap(m.cards) {
			m.cards = m.cards[:cl]
		} else {
			grown := make([]byte, cl, cardsFor(growCap(need)))
			copy(grown, m.cards)
			m.cards = grown
		}
	}
	m.Stats.HeapWords += int64(n)
	m.gcRecs[off] = gcRec{size: int32(n)}
	m.gcBlocks = append(m.gcBlocks, off)
	m.youngBlocks = append(m.youngBlocks, off)
	return HeapBase + off
}

// growCap picks the capacity for a spilled heap-parallel slice.
func growCap(need int) int {
	if need < 4096 {
		return 4096
	}
	return need * 2
}

// LiveHeapWords reports the words in non-free blocks. It returns the
// incrementally maintained meter; CheckHeapInvariants re-derives the
// same quantity by an O(blocks) scan and asserts they agree, which is
// what lets every hot caller use the counter.
func (m *Machine) LiveHeapWords() int64 { return m.liveWords }
