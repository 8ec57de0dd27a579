package s1

import (
	"testing"

	"repro/internal/sexp"
)

// TestGCMarksDeepListIteratively pins the explicit-worklist mark phase:
// the recursive marker this replaced consumed one Go stack frame per
// cons cell, so a million-cell chain is the regression that would blow
// it up (or, at best, force huge goroutine stack growth).
func TestGCMarksDeepListIteratively(t *testing.T) {
	m := New()
	const cells = 1 << 20
	lst := NilWord
	for i := 0; i < cells; i++ {
		lst = m.Cons(FixnumWord(int64(i)), lst)
	}
	m.regs[RegA] = lst
	if got := m.GC(); got != 0 {
		t.Errorf("live deep list partially reclaimed: %d words", got)
	}
	m.regs[RegA] = NilWord
	if got := m.GC(); got != 2*cells {
		t.Errorf("dropped deep list reclaimed %d words, want %d", got, 2*cells)
	}
	if err := m.CheckHeapInvariants(); err != nil {
		t.Error(err)
	}
}

// TestLiveHeapWordsInvariant: the O(1) counter must agree with a full
// scan of the block records across allocation, full collection, reuse,
// and minor collection. CheckHeapInvariants performs exactly that
// comparison, so it is called at every phase boundary.
func TestLiveHeapWordsInvariant(t *testing.T) {
	m := New()
	check := func(when string) {
		t.Helper()
		if err := m.CheckHeapInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	keep := NilWord
	for i := 0; i < 100; i++ {
		keep = m.Cons(FixnumWord(int64(i)), keep)
		m.Cons(FixnumWord(int64(i)), NilWord) // garbage
	}
	m.regs[RegA] = keep
	check("after allocation")
	m.GC()
	check("after full collection")
	for i := 0; i < 50; i++ {
		m.Cons(FixnumWord(int64(i)), NilWord) // reuses freed blocks
	}
	check("after free-list reuse")
	m.MinorGC()
	check("after minor collection")
	if live := m.LiveHeapWords(); live != 200 {
		t.Errorf("live words = %d, want 200 (the kept 100-cons chain)", live)
	}
}

// TestGCFreeBigPruning: a big-block size class emptied by reuse must be
// deleted from freeBig, not left as a dead zero-length entry.
func TestGCFreeBigPruning(t *testing.T) {
	m := New()
	const big = gcSmallMax + 36
	m.gcAlloc(big) // unreferenced: garbage from birth
	m.regs[RegA] = NilWord
	m.GC()
	if got := len(m.freeBig[big]); got != 1 {
		t.Fatalf("freed big block not on freeBig[%d]: %d entries", big, got)
	}
	m.gcAlloc(big)
	if _, ok := m.freeBig[big]; ok {
		t.Errorf("emptied size class %d still present in freeBig", big)
	}
	if err := m.CheckHeapInvariants(); err != nil {
		t.Error(err)
	}
}

// TestMinorPromotesSurvivors: a minor collection tenures its survivors
// in place, and tenured blocks are invisible to later minors — even
// once dead, only a full collection reclaims them.
func TestMinorPromotesSurvivors(t *testing.T) {
	m := New()
	keep := m.Cons(FixnumWord(7), NilWord)
	m.Cons(FixnumWord(8), NilWord) // young garbage
	m.regs[RegA] = keep
	if got := m.MinorGC(); got != 2 {
		t.Errorf("minor reclaimed %d words, want 2 (the garbage cons)", got)
	}
	off := keep.Bits - HeapBase
	if !m.gcRecs[off].old {
		t.Error("minor survivor not promoted (old bit clear)")
	}
	if m.GCMeters.BlocksPromoted != 1 || m.GCMeters.WordsPromoted != 2 {
		t.Errorf("promotion meters %+v", m.GCMeters)
	}
	// Dead old blocks survive minors…
	m.regs[RegA] = NilWord
	if got := m.MinorGC(); got != 0 {
		t.Errorf("minor swept an old block: %d words", got)
	}
	if m.gcRecs[off].free {
		t.Fatal("old block freed by a minor collection")
	}
	// …and fall to the next full collection.
	if got := m.GC(); got != 2 {
		t.Errorf("full collection reclaimed %d words, want 2", got)
	}
	if err := m.CheckHeapInvariants(); err != nil {
		t.Error(err)
	}
}

// TestWriteBarrierOldToYoung: a young block reachable only through a
// store into an old block must survive a minor collection — the dirty
// card is its only tether. Exercised through both mutation paths, the
// checked Machine.store and the lowered-block storeFast.
func TestWriteBarrierOldToYoung(t *testing.T) {
	for _, path := range []string{"store", "storeFast"} {
		t.Run(path, func(t *testing.T) {
			m := New()
			keep := m.Cons(FixnumWord(1), NilWord)
			m.regs[RegA] = keep
			m.MinorGC() // promote keep
			young := m.Cons(FixnumWord(2), NilWord)
			// RPLACD keep young — the only reference to young is now the
			// cdr of the tenured cell.
			switch path {
			case "store":
				if err := m.store(keep.Bits+1, young); err != nil {
					t.Fatal(err)
				}
			case "storeFast":
				if !m.storeFast(keep.Bits+1, young) {
					t.Fatal("storeFast rejected a heap address")
				}
			}
			m.MinorGC()
			if m.gcRecs[young.Bits-HeapBase].free {
				t.Fatal("young block reachable only from an old block was swept: write barrier hole")
			}
			v, err := m.ToValue(keep)
			if err != nil || sexp.Print(v) != "(1 2)" {
				t.Errorf("structure after barrier-dependent minor: %v %v", v, err)
			}
			if err := m.CheckHeapInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestNoGenForcesFull: with generations disabled every automatic
// collection is full.
func TestNoGenForcesFull(t *testing.T) {
	m := New()
	m.SetGCNoGen(true)
	m.SetGCThreshold(64)
	m.regs[RegA] = NilWord
	for i := 0; i < 200; i++ {
		m.Cons(FixnumWord(int64(i)), NilWord)
	}
	if m.GCMeters.Collections == 0 {
		t.Error("auto GC never triggered")
	}
	if m.GCMeters.MinorCollections != 0 {
		t.Errorf("nogen machine ran %d minor collections", m.GCMeters.MinorCollections)
	}
}

// TestStressMinorForcesMinors: -gc-stress-minor runs a minor before
// every allocation.
func TestStressMinorForcesMinors(t *testing.T) {
	m := New()
	m.SetGCStressMinor(true)
	m.regs[RegA] = NilWord
	for i := 0; i < 10; i++ {
		m.Cons(FixnumWord(int64(i)), NilWord)
	}
	if got := m.GCMeters.MinorCollections; got < 10 {
		t.Errorf("stress-minor ran %d minors for 10 allocations", got)
	}
	if err := m.CheckHeapInvariants(); err != nil {
		t.Error(err)
	}
}

// TestPromotionPressureForcesFull: a workload that tenures everything it
// allocates must eventually get a full collection from collectAuto —
// promotion pressure is the only thing that reclaims a dying old
// generation when no minor ever overruns and nogen is off.
func TestPromotionPressureForcesFull(t *testing.T) {
	m := New()
	m.SetGCThreshold(64)
	lst := NilWord
	for i := 0; i < 2000 && m.GCMeters.Collections == 0; i++ {
		lst = m.Cons(FixnumWord(int64(i)), lst)
		m.regs[RegA] = lst // everything survives, so every minor promotes
	}
	if m.GCMeters.MinorCollections == 0 {
		t.Error("no minors ran under promotion pressure")
	}
	if m.GCMeters.Collections == 0 {
		t.Error("promotion pressure never escalated to a full collection")
	}
	if err := m.CheckHeapInvariants(); err != nil {
		t.Error(err)
	}
}
