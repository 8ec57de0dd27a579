package s1

// Machine-arena reuse (DESIGN.md §15). A request-per-machine server
// allocates the same few large slices — heap, GC records, card table —
// for every request, runs a prelude image into them, and drops the lot
// at request end; the Go allocator pays for that churn. An Arena
// recycles the storage: when a request finishes, ReleaseArena detaches
// the machine's slices into the arena, and NewFromArena hands them to
// the next machine after clearing only the prefix the previous tenant
// actually dirtied (the high-water mark), not the full capacity. The
// 16 MB value stack is not the arena's: every machine draws it from
// stackPool (machine.go), whose dirty mark bounds its reset the same
// way, so ReleaseArena returns it there.
//
// Ownership is strictly alternating: while a machine holds the slices
// the arena's fields are nil, so a machine that is dropped without
// Release (a panic path, an oversized heap) can never alias storage the
// arena later hands to someone else. The daemon keeps arenas in a
// sync.Pool; everything here is single-goroutine.

// Arena holds a previous machine's storage for reuse. The zero value is
// an empty arena: NewFromArena on it behaves like New and the first
// Release stocks it.
type Arena struct {
	heap   []Word
	recs   []gcRec
	cards  []byte
	blocks []uint64
	young  []uint64
	mark   []uint64
	// heapUsed/recsUsed are the dirty prefixes: the slice lengths at
	// release time. Capacity beyond them has never been written (heap
	// growth copies into fresh zeroed storage), which is exactly the
	// invariant gcAlloc's in-capacity extension relies on.
	heapUsed, recsUsed int
	uses               int64
}

// arenaKeepWords bounds the heap capacity an arena retains: a machine
// whose heap outgrew it (a request that ran up against -max-heap) is
// dropped on Release rather than pinning tens of megabytes in the pool.
const arenaKeepWords = 1 << 21

// Uses reports how many machines this arena's storage has served.
func (a *Arena) Uses() int64 { return a.uses }

// NewFromArena creates an empty machine drawing its large slices from
// the arena. A nil or empty arena degrades to New.
func NewFromArena(a *Arena) *Machine {
	if a == nil {
		return New()
	}
	return newMachine(a)
}

// adopt transfers the arena's storage into m, clearing the previous
// tenant's dirty prefixes.
func (a *Arena) adopt(m *Machine) {
	// A machine built on recycled storage must never inherit a pending
	// interrupt: a stale kill left over from a previous tenant's deadline
	// would make the first safepoint 504 instantly. The machine is
	// freshly constructed on this path today, but the invariant is load-
	// bearing for resident sessions, so assert it where the reuse
	// happens rather than trusting every caller to ClearInterrupt.
	if m.signal.Load() != sigRun {
		panic("s1: arena adoption with a pending interrupt")
	}
	a.uses++
	clear(a.heap[:a.heapUsed])
	clear(a.recs[:a.recsUsed])
	clear(a.cards)
	m.heap = a.heap[:0]
	m.gcRecs = a.recs[:0]
	m.cards = a.cards[:0]
	m.gcBlocks = a.blocks[:0]
	m.youngBlocks = a.young[:0]
	m.markStack = a.mark[:0]
	m.arena = a
	// The slices now belong to the machine until ReleaseArena harvests
	// them back; nil the arena's references so a machine dropped without
	// releasing can never alias a later tenant.
	a.heap, a.recs, a.cards = nil, nil, nil
	a.blocks, a.young, a.mark = nil, nil, nil
	a.heapUsed, a.recsUsed = 0, 0
}

// ReleaseArena detaches the machine's recycled slices back into the
// arena it was built from and returns true, or returns false when the
// machine owns its memory (not arena-built) or its heap outgrew
// arenaKeepWords (the heap storage is left to the Go collector). An
// arena-built machine's stack goes back to stackPool either way. The
// machine must not run again afterwards.
func (m *Machine) ReleaseArena() bool {
	a := m.arena
	if a == nil {
		return false
	}
	m.arena = nil
	m.releaseStack()
	if cap(m.heap) > arenaKeepWords {
		return false
	}
	a.heap, a.heapUsed = m.heap, len(m.heap)
	a.recs, a.recsUsed = m.gcRecs, len(m.gcRecs)
	a.cards = m.cards
	a.blocks = m.gcBlocks
	a.young = m.youngBlocks
	a.mark = m.markStack
	m.heap, m.gcRecs, m.cards = nil, nil, nil
	m.gcBlocks, m.youngBlocks, m.markStack = nil, nil, nil
	return true
}
