package s1

import (
	"fmt"
	"time"
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

	var reclaimed, blocks int64
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

	var reclaimed, blocks int64
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
	// would reclaim the partially built object (surfaced by -gc-stress).
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
// a minor collection.
func (m *Machine) markPush(w Word, minor bool) {
	switch w.Tag {
	case TagCons, TagFlonum, TagClosure, TagEnv, TagVector, TagArray, TagFArray:
	default:
		return
	}
	if w.Bits < HeapBase {
		return
	}
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

// gcAlloc is Alloc with free-list reuse and the auto-collect trigger.
// Every block it returns — reused or fresh — is young.
func (m *Machine) gcAlloc(n int) uint64 {
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
	if m.HeapLimit > 0 && m.liveWords+int64(n) > m.HeapLimit {
		m.GC()
		if m.liveWords+int64(n) > m.HeapLimit {
			panic(&heapExhausted{need: int64(n), live: m.liveWords, limit: m.HeapLimit})
		}
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
