package s1

import (
	"errors"
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

	// The stack is not the arena's: whatever the previous tenant grew,
	// through any write path, the next arena machine starts on its own
	// small stack and reads zero there.
	for _, w := range stackWritePaths() {
		t.Run("stack/"+w.name, func(t *testing.T) {
			checkStackGrowth(t, w, func() *Machine { return NewFromArena(ar) },
				func(t *testing.T, m *Machine) {
					if !m.ReleaseArena() {
						t.Fatal("ReleaseArena refused an arena-built machine")
					}
				})
		})
	}
}

// TestStackGrowth: every stack write path lands a word deep in a fresh
// machine's small stack by doubling it, and a machine built afterwards
// starts small again.
func TestStackGrowth(t *testing.T) {
	for _, w := range stackWritePaths() {
		t.Run(w.name, func(t *testing.T) { checkStackGrowth(t, w, New, nil) })
	}
}

// deep is the stack index the write paths aim at: each write reaches it
// by doubling the stack from initialStackWords to the whole segment.
const deep = 900_000

// stackWriter writes one nonzero word deep in a fresh machine's stack
// through a single write path and returns the stack index it wrote and
// the word it must read back there.
type stackWriter struct {
	name  string
	write func(t *testing.T, m *Machine) (uint64, Word)
}

func stackWritePaths() []stackWriter {
	// leaf is a callee for the inline-cache paths.
	leaf := func(t *testing.T, m *Machine, nargs int) int {
		return addFn(t, m, "leaf", nargs, nargs, []Item{
			InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(NilWord)}),
			InstrItem(Instr{Op: OpRET}),
		})
	}
	return []stackWriter{
		{"store", func(t *testing.T, m *Machine) (uint64, Word) {
			if err := m.store(StackBase+deep, FixnumWord(11)); err != nil {
				t.Fatal(err)
			}
			return deep, FixnumWord(11)
		}},
		{"push", func(t *testing.T, m *Machine) (uint64, Word) {
			m.regs[RegSP] = RawInt(StackBase + deep)
			if err := m.push(FixnumWord(12)); err != nil {
				t.Fatal(err)
			}
			return deep, FixnumWord(12)
		}},
		{"storeFast", func(t *testing.T, m *Machine) (uint64, Word) {
			// The store runs as an lMovXI, SP-relative past the frame.
			// The call then spins until a preemption stops it, because a
			// finished call resets the stack.
			addFn(t, m, "poke", 0, 0, []Item{
				InstrItem(Instr{Op: OpMOV, A: Mem(RegSP, deep), B: Imm(FixnumWord(13))}),
				InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: ImmInt(100_000)}),
				LabelItem("spin"),
				InstrItem(Instr{Op: OpSUB, A: R(RegRTA), B: ImmInt(1)}),
				InstrItem(Instr{Op: OpJNE, A: R(RegRTA), B: ImmInt(0), C: Lbl("spin")}),
				InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(NilWord)}),
				InstrItem(Instr{Op: OpRET}),
			})
			m.Preempt()
			if _, err := m.CallFunction("poke"); !errors.Is(err, ErrPreempted) {
				t.Fatalf("poke returned %v, want ErrPreempted", err)
			}
			return deep + 4, FixnumWord(13) // the frame's four words sit below SP
		}},
		{"enterFrameIC", func(t *testing.T, m *Machine) (uint64, Word) {
			idx := leaf(t, m, 0)
			m.regs[RegSP] = RawInt(StackBase + deep)
			if !m.enterFrameIC(0, 7, idx) {
				t.Fatal("enterFrameIC declined")
			}
			return deep + 1, RawInt(7) // the saved return PC
		}},
		{"tailCallIC", func(t *testing.T, m *Machine) (uint64, Word) {
			// A zero-argument frame whose callee reserved three outgoing
			// argument slots without writing them: the tail call's new
			// frame words land above everything written so far.
			idx := leaf(t, m, 3)
			fp := uint64(StackBase + deep)
			for i, w := range []Word{RawInt(0), RawInt(7), RawInt(8), RawInt(9)} {
				if err := m.store(fp-4+uint64(i), w); err != nil {
					t.Fatal(err)
				}
			}
			m.regs[RegFP] = RawInt(int64(fp))
			m.regs[RegSP] = RawInt(int64(fp + 3))
			if !m.tailCallIC(3, idx) {
				t.Fatal("tailCallIC declined")
			}
			return deep + 2, RawInt(9) // the moved saved EP, past the old frame
		}},
		{"LoadImage", func(t *testing.T, m *Machine) (uint64, Word) {
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
			return deep, FixnumWord(14)
		}},
	}
}

// checkStackGrowth runs one stack write path on a machine from fresh,
// which must start on the initial small stack, and requires the write
// to land by doubling the stack just far enough, to read back, and to
// leave every word between the initial top and the write zero. Then it
// retires the machine (when retire is non-nil) and requires the next
// machine from fresh to start small again and read zero at the index.
func checkStackGrowth(t *testing.T, w stackWriter, fresh func() *Machine,
	retire func(*testing.T, *Machine)) {
	t.Helper()
	m := fresh()
	if len(m.stack) != initialStackWords {
		t.Fatalf("fresh machine has a %d-word stack, want %d", len(m.stack), initialStackWords)
	}
	i, want := w.write(t, m)
	n := initialStackWords
	for uint64(n) <= i {
		n *= 2
	}
	if len(m.stack) != n {
		t.Fatalf("%s: stack has %d words after writing index %d, want %d", w.name, len(m.stack), i, n)
	}
	if got, err := m.load(StackBase + i); err != nil || got != want {
		t.Fatalf("%s: stack index %d reads %s (%v), want %s", w.name, i, got, err, want)
	}
	for j := initialStackWords; j < deep-4; j++ {
		if v := m.stack[j]; v != (Word{}) {
			t.Fatalf("%s: grown stack reads %s at index %d", w.name, v, j)
		}
	}
	if retire != nil {
		retire(t, m)
	}
	next := fresh()
	if len(next.stack) != initialStackWords {
		t.Fatalf("%s: next machine has a %d-word stack, want %d", w.name, len(next.stack), initialStackWords)
	}
	if v, err := next.load(StackBase + i); err != nil || v != (Word{}) {
		t.Fatalf("%s: next machine reads %s (%v) at stack index %d", w.name, v, err, i)
	}
}

// TestArenaRecyclesCode: the code vector comes back through the arena
// emptied and the lowered stream as it was (it holds no pointer), both
// with their capacity, and a machine
// built on them assembles and runs exactly as a fresh one does; a
// machine whose code outgrew arenaKeepInstrs leaves its code behind.
func TestArenaRecyclesCode(t *testing.T) {
	ar := &Arena{}
	m1 := NewFromArena(ar)
	for i := 0; i < 50; i++ {
		buildAdd2(t, m1)
	}
	if _, err := m1.CallFunction("add2", FixnumWord(1), FixnumWord(2)); err != nil {
		t.Fatal(err)
	}
	codeCap, opsCap := cap(m1.Code), cap(m1.ops)
	if !m1.ReleaseArena() {
		t.Fatal("ReleaseArena refused an arena-built machine")
	}

	m2 := NewFromArena(ar)
	if cap(m2.Code) != codeCap || cap(m2.ops) != opsCap {
		t.Errorf("second tenant code/ops cap = %d/%d, want recycled %d/%d",
			cap(m2.Code), cap(m2.ops), codeCap, opsCap)
	}
	if len(m2.Code) != 1 || m2.Code[0].Op != OpHALT || len(m2.ops) != 0 {
		t.Fatalf("recycled machine code not reset: %d instrs, %d lowered", len(m2.Code), len(m2.ops))
	}
	for i, ins := range m2.Code[1:cap(m2.Code)] {
		if ins.Op != 0 || ins.Comment != "" {
			t.Fatalf("recycled code keeps the previous tenant's instruction %d: %s", i+1, ins.String())
		}
	}
	buildAdd2(t, m2)
	if err := m2.CheckLoweredPristine(0, len(m2.Code)); err != nil {
		t.Error(err)
	}
	w, err := m2.CallFunction("add2", FixnumWord(30), FixnumWord(12))
	if err != nil || w != FixnumWord(42) {
		t.Errorf("(add2 30 12) on recycled code = %s, %v", w, err)
	}
	fresh := New()
	buildAdd2(t, fresh)
	if got, want := m2.ImageFingerprint(), fresh.ImageFingerprint(); got != want {
		t.Errorf("recycled-code fingerprint %s, want %s", got, want)
	}

	for len(m2.Code) <= arenaKeepInstrs {
		buildAdd2(t, m2)
	}
	if !m2.ReleaseArena() {
		t.Fatal("ReleaseArena refused an arena-built machine")
	}
	if m3 := NewFromArena(ar); cap(m3.Code) > arenaKeepInstrs {
		t.Errorf("arena kept %d instructions of code capacity, bound %d", cap(m3.Code), arenaKeepInstrs)
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
