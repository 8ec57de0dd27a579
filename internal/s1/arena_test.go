package s1

import (
	"sync"
	"testing"

	"repro/internal/sexp"
)

// TestArenaRecyclesStorage: release-then-adopt hands the next machine
// the previous one's backing arrays, cleared of everything the previous
// tenant wrote.
func TestArenaRecyclesStorage(t *testing.T) {
	ar := &Arena{}
	m1 := NewFromArena(ar)
	lst := NilWord
	for i := 0; i < 100; i++ {
		lst = m1.Cons(FixnumWord(int64(i)), lst)
	}
	m1.regs[RegA] = lst
	m1.GC()
	heapCap := cap(m1.heap)
	if heapCap == 0 {
		t.Fatal("first tenant never grew the heap")
	}
	if !m1.ReleaseArena() {
		t.Fatal("ReleaseArena refused an arena-built machine")
	}

	m2 := NewFromArena(ar)
	if got := ar.Uses(); got != 2 {
		t.Errorf("arena uses = %d, want 2", got)
	}
	if cap(m2.heap) != heapCap {
		t.Errorf("second tenant heap cap = %d, want recycled %d", cap(m2.heap), heapCap)
	}
	if len(m2.heap) != 0 || m2.LiveHeapWords() != 0 {
		t.Errorf("recycled machine not empty: len=%d live=%d", len(m2.heap), m2.LiveHeapWords())
	}
	// The recycled storage must behave exactly like fresh storage:
	// allocate into it, collect, and read structure back.
	m2.regs[RegA] = m2.Cons(FixnumWord(1), m2.Cons(FixnumWord(2), NilWord))
	m2.GC()
	v, err := m2.ToValue(m2.regs[RegA])
	if err != nil || sexp.Print(v) != "(1 2)" {
		t.Errorf("recycled machine structure: %v %v", v, err)
	}
	if err := m2.CheckHeapInvariants(); err != nil {
		t.Error(err)
	}

	// The stack segment recycles through stackPool with a cleared dirty
	// prefix: whatever the previous tenant wrote, through any write path,
	// the next machine reads zeros.
	for _, w := range stackWritePaths() {
		w := w
		t.Run("stack/"+w.name, func(t *testing.T) {
			checkStackIsolation(t, w, func() *Machine { return NewFromArena(ar) },
				func(t *testing.T, m *Machine) {
					if !m.ReleaseArena() {
						t.Fatal("ReleaseArena refused an arena-built machine")
					}
				})
		})
	}
}

// TestParkStackIsolation is the resident-session counterpart of the
// arena stack case: a session machine that parks its stack hands the
// segment to whichever machine attaches next, and that machine must not
// see one word of what the parked tenant wrote.
func TestParkStackIsolation(t *testing.T) {
	for _, w := range stackWritePaths() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			checkStackIsolation(t, w, New, func(t *testing.T, m *Machine) {
				if !m.ParkStack() {
					t.Fatal("ParkStack declined an idle machine")
				}
			})
		})
	}
}

// TestParkStackConcurrent: machines on several goroutines attach,
// dirty, and park stacks through the shared pool at once. Every
// attached segment must read zero past its (fresh) dirty mark, whoever
// parked it last.
func TestParkStackConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m := New()
				if err := m.CheckStackInvariant(); err != nil {
					t.Error(err)
					return
				}
				deep := uint64(1000 * (g*50 + i + 1))
				if err := m.store(StackBase+deep, FixnumWord(int64(i+1))); err != nil {
					t.Error(err)
					return
				}
				if !m.ParkStack() {
					t.Error("ParkStack declined an idle machine")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// stackWriter writes one nonzero word deep in a fresh machine's stack
// through a single write path and returns the stack index it wrote. Each
// path runs in its own tenant, so a path that fails to raise the dirty
// mark cannot hide under a deeper write from another path.
type stackWriter struct {
	name  string
	write func(t *testing.T, m *Machine) uint64
}

func stackWritePaths() []stackWriter {
	const deep = 900_000
	// leaf is a callee for the inline-cache paths.
	leaf := func(t *testing.T, m *Machine, nargs int) (int, int) {
		idx := addFn(t, m, "leaf", nargs, nargs, []Item{
			InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(NilWord)}),
			InstrItem(Instr{Op: OpRET}),
		})
		return idx, m.Funcs[idx].Entry
	}
	return []stackWriter{
		{"store", func(t *testing.T, m *Machine) uint64 {
			if err := m.store(StackBase+deep, FixnumWord(11)); err != nil {
				t.Fatal(err)
			}
			return deep
		}},
		{"push", func(t *testing.T, m *Machine) uint64 {
			m.regs[RegSP] = RawInt(StackBase + deep)
			if err := m.push(FixnumWord(12)); err != nil {
				t.Fatal(err)
			}
			return deep
		}},
		{"storeFast", func(t *testing.T, m *Machine) uint64 {
			// Forced hot at AddFunction, so the store runs as an lMovXI
			// in the lowered block, SP-relative past the frame.
			m.SetHotThreshold(0)
			addFn(t, m, "poke", 0, 0, []Item{
				InstrItem(Instr{Op: OpMOV, A: Mem(RegSP, deep), B: Imm(FixnumWord(13))}),
				InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(NilWord)}),
				InstrItem(Instr{Op: OpRET}),
			})
			if m.TierStats().Promotions == 0 {
				t.Fatal("poke was not promoted")
			}
			if _, err := m.CallFunction("poke"); err != nil {
				t.Fatal(err)
			}
			return deep + 4 // the frame's four words sit below SP
		}},
		{"enterFrameIC", func(t *testing.T, m *Machine) uint64 {
			idx, entry := leaf(t, m, 0)
			m.regs[RegSP] = RawInt(StackBase + deep)
			if !m.enterFrameIC(0, 7, idx, entry) {
				t.Fatal("enterFrameIC declined")
			}
			return deep + 1 // the saved return PC
		}},
		{"tailCallIC", func(t *testing.T, m *Machine) uint64 {
			// A zero-argument frame whose callee reserved three outgoing
			// argument slots without writing them: the tail call's new
			// frame words land above everything written so far.
			idx, entry := leaf(t, m, 3)
			fp := uint64(StackBase + deep)
			for i, w := range []Word{RawInt(0), RawInt(7), RawInt(8), RawInt(9)} {
				if err := m.store(fp-4+uint64(i), w); err != nil {
					t.Fatal(err)
				}
			}
			m.regs[RegFP] = RawInt(int64(fp))
			m.regs[RegSP] = RawInt(int64(fp + 3))
			if !m.tailCallIC(3, idx, entry) {
				t.Fatal("tailCallIC declined")
			}
			return deep + 2 // the moved saved EP, past the old frame
		}},
		{"LoadImage", func(t *testing.T, m *Machine) uint64 {
			src := New()
			if err := src.store(StackBase+deep, FixnumWord(14)); err != nil {
				t.Fatal(err)
			}
			src.regs[RegSP] = RawInt(StackBase + deep + 1)
			img, err := src.ExportImage()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadImage(img); err != nil {
				t.Fatal(err)
			}
			return deep
		}},
	}
}

// checkStackIsolation runs one stack write path in a tenant, retires
// the tenant by release (ReleaseArena or ParkStack), and requires the
// next machine — built by fresh from the emptied pool, so it must get
// the very segment just released — to read zero across the whole
// segment.
func checkStackIsolation(t *testing.T, w stackWriter, fresh func() *Machine,
	release func(*testing.T, *Machine)) {
	t.Helper()
	stackPool.mu.Lock()
	stackPool.segs = nil
	stackPool.mu.Unlock()
	m := fresh()
	i := w.write(t, m)
	if m.stack[i] == (Word{}) {
		t.Fatalf("%s wrote nothing at stack index %d", w.name, i)
	}
	if err := m.CheckStackInvariant(); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	seg := &m.stack[0]
	m.regs[RegSP], m.regs[RegFP] = RawInt(StackBase), RawInt(StackBase)
	release(t, m)
	next := fresh()
	if &next.stack[0] != seg {
		t.Fatal("the released stack segment was not handed to the next machine")
	}
	if next.stackDirty != 0 {
		t.Fatalf("reattached stack has dirty mark %d", next.stackDirty)
	}
	for j, v := range next.stack {
		if v != (Word{}) {
			t.Fatalf("%s: next tenant reads %s at stack index %d", w.name, v, j)
		}
	}
}

// TestArenaImageRoundTrip: an image exported from a fresh machine loads
// into a recycled-arena machine with an identical fingerprint — leftover
// dirt from the previous tenant must be invisible.
func TestArenaImageRoundTrip(t *testing.T) {
	src := New()
	src.SetGlobal("*keep*", src.FromValue(mustRead("(1 (2 3) 4)")))
	img, err := src.ExportImage()
	if err != nil {
		t.Fatal(err)
	}

	ar := &Arena{}
	m1 := NewFromArena(ar)
	for i := 0; i < 500; i++ {
		m1.Cons(FixnumWord(int64(i)), NilWord)
	}
	if !m1.ReleaseArena() {
		t.Fatal("release failed")
	}

	m2 := NewFromArena(ar)
	if err := m2.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	if got, want := m2.ImageFingerprint(), src.ImageFingerprint(); got != want {
		t.Errorf("fingerprint diverges after arena round trip:\n  got  %s\n  want %s", got, want)
	}
	if err := m2.CheckHeapInvariants(); err != nil {
		t.Error(err)
	}
}

// TestArenaDropsOversizedHeap: a machine whose heap outgrew
// arenaKeepWords is not harvested — the pool must not pin huge request
// heaps — and the emptied arena still serves later machines.
func TestArenaDropsOversizedHeap(t *testing.T) {
	ar := &Arena{}
	m := NewFromArena(ar)
	m.gcAlloc(arenaKeepWords + 1)
	if m.ReleaseArena() {
		t.Fatal("ReleaseArena kept a heap beyond arenaKeepWords")
	}
	// The arena is empty but must still be adoptable.
	m2 := NewFromArena(ar)
	m2.regs[RegA] = m2.Cons(FixnumWord(5), NilWord)
	v, err := m2.ToValue(m2.regs[RegA])
	if err != nil || sexp.Print(v) != "(5)" {
		t.Errorf("post-drop arena machine: %v %v", v, err)
	}
	if !m2.ReleaseArena() {
		t.Error("release failed for the post-drop tenant")
	}
}

// TestArenaReleaseNotArenaBuilt: ReleaseArena on a plain New machine is
// a no-op returning false.
func TestArenaReleaseNotArenaBuilt(t *testing.T) {
	m := New()
	if m.ReleaseArena() {
		t.Error("ReleaseArena returned true for a machine that owns its memory")
	}
}
