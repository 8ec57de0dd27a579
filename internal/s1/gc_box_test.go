package s1

import (
	"math/big"
	"strings"
	"testing"

	"repro/internal/sexp"
)

// bignum returns a host bignum of about bits bits.
func bignum(bits uint) sexp.Value {
	return &sexp.Bignum{X: new(big.Int).Lsh(big.NewInt(3), bits)}
}

// TestGCBoxSweep: a full collection frees exactly the unreachable boxes,
// gives back the words they were charged, poisons their slots, and Box
// refills the lowest free slot before it appends.
func TestGCBoxSweep(t *testing.T) {
	m := New()
	dead := m.Box(bignum(200))         // slot 0: garbage
	kept := m.Box(sexp.String("kept")) // slot 1: a symbol's value
	m.Box(mustRead("1/3"))             // slot 2: garbage
	held := m.Box(sexp.Character('q')) // slot 3: in a register
	m.SetGlobal("*s*", kept)
	m.regs[RegA] = held
	if want := int64(4+1) + 2 + 3 + 1; m.LiveHeapWords() != want {
		t.Fatalf("live words = %d, want %d charged for the four boxes", m.LiveHeapWords(), want)
	}
	if got := m.GC(); got != 5+3 {
		t.Errorf("reclaimed %d words, want 8 (the bignum's 5 and the ratio's 3)", got)
	}
	if m.Boxes[0] != nil || m.Boxes[2] != nil || m.Boxes[1] == nil || m.Boxes[3] == nil {
		t.Fatalf("box table after GC: %v", m.Boxes)
	}
	if _, err := m.ToValue(dead); err == nil || !strings.Contains(err.Error(), "dangling box") {
		t.Errorf("a freed box converts: %v", err)
	}
	if err := m.CheckHeapInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []uint64{0, 2, 4} {
		if w := m.Box(sexp.String("new")); w.Bits != want {
			t.Errorf("Box filled slot %d, want %d", w.Bits, want)
		}
	}
	if v, err := m.ToValue(kept); err != nil || sexp.Print(v) != `"kept"` {
		t.Errorf("kept box reads %v %v", v, err)
	}
	// A word that still indexes a freed slot is a dangling box.
	m.regs[RegA] = NilWord
	m.GC()
	m.regs[RegB] = held
	if err := m.CheckHeapInvariants(); err == nil || !strings.Contains(err.Error(), "free box slot 3") {
		t.Errorf("CheckHeapInvariants on a dangling box word: %v", err)
	}
}

// TestGCBoxMinor: a minor collection frees the unreachable young boxes
// and promotes the rest; an old box survives it unreachable, to be freed
// by the next full collection; a young box stored into a tenured cons is
// kept by the write barrier's card.
func TestGCBoxMinor(t *testing.T) {
	m := New()
	cell := m.Cons(NilWord, NilWord)
	m.SetGlobal("*cell*", cell)
	old := m.Box(bignum(100))
	m.regs[RegA] = old
	m.GC() // cell and old are tenured
	m.regs[RegA] = NilWord

	young := m.Box(sexp.String("young"))
	if err := m.store(cell.Bits, young); err != nil {
		t.Fatal(err)
	}
	garbage := m.Box(bignum(300))
	m.MinorGC()
	if m.Boxes[garbage.Bits] != nil {
		t.Error("minor kept an unreachable young box")
	}
	if m.Boxes[old.Bits] == nil {
		t.Error("minor freed an old box")
	}
	if v, err := m.ToValue(young); err != nil || sexp.Print(v) != `"young"` {
		t.Errorf("box stored into a tenured cons: %v %v", v, err)
	}
	if m.GCMeters.BlocksPromoted != 1 || m.GCMeters.WordsPromoted != 2 {
		t.Errorf("promoted %d boxes, %d words; want 1 and 2", m.GCMeters.BlocksPromoted, m.GCMeters.WordsPromoted)
	}
	if err := m.CheckHeapInvariants(); err != nil {
		t.Fatal(err)
	}
	m.GC()
	if m.Boxes[old.Bits] != nil {
		t.Error("full collection kept an unreachable old box")
	}
	if err := m.CheckHeapInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGCBoxCharges: a box is an allocation point. It counts toward the
// threshold, so boxing alone triggers collections, and toward
// HeapLimit, whose failure is the typed heap-exhausted panic.
func TestGCBoxCharges(t *testing.T) {
	m := New()
	m.SetGCThreshold(64)
	for i := 0; i < 100; i++ {
		m.Box(bignum(640)) // 12 words each, all garbage
	}
	if m.GCMeters.MinorCollections == 0 {
		t.Error("boxing never triggered a collection")
	}
	if len(m.Boxes) > 8 {
		t.Errorf("box table grew to %d slots despite collections", len(m.Boxes))
	}

	m = New()
	m.HeapLimit = 90
	m.SetGlobal("*keep*", m.Box(bignum(3000)))
	defer func() {
		he, ok := recover().(*heapExhausted)
		if !ok || he.need != 48 || he.limit != 90 {
			t.Errorf("over-limit Box raised %v, want heap exhausted needing 48 words", he)
		}
	}()
	m.Box(bignum(3000))
}

// TestGCBoxSharedTable: a machine loaded from a template shares its box
// table until it writes a slot, and then writes only its own copy.
func TestGCBoxSharedTable(t *testing.T) {
	tmpl := New()
	kept := tmpl.Box(sexp.String("prelude"))
	tmpl.SetGlobal("*s*", kept)
	tmpl.Box(bignum(100)) // garbage the template never collects
	before := append([]sexp.Value(nil), tmpl.Boxes...)

	m := New()
	if err := m.LoadFrom(tmpl); err != nil {
		t.Fatal(err)
	}
	m.GC()
	if m.Boxes[1] != nil {
		t.Fatal("restored machine kept the garbage box")
	}
	m.SetGlobal("*s*", NilWord)
	m.GC()
	if w := m.Box(sexp.String("mine")); w.Bits != 0 {
		t.Errorf("Box filled slot %d, want 0", w.Bits)
	}
	for i, v := range tmpl.Boxes {
		if v != before[i] {
			t.Errorf("template slot %d changed to %v", i, v)
		}
	}
	if err := m.CheckHeapInvariants(); err != nil {
		t.Error(err)
	}
}

// TestGCBoxSlotsWireRoundTrip: a free box slot crosses the image's wire
// form as the empty string, and the restored machine has the same free
// slots — the same AllocContext, and the same slot for its next box.
func TestGCBoxSlotsWireRoundTrip(t *testing.T) {
	m := New()
	m.Box(bignum(100))
	m.SetGlobal("*s*", m.Box(sexp.String("")))
	m.Box(sexp.Character('x'))
	m.SetGlobal("*r*", m.Box(mustRead("2/7")))
	m.GC()
	img, err := m.ExportImage()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"", `""`, "", "2/7"}; strings.Join(img.Boxes, "|") != strings.Join(want, "|") {
		t.Fatalf("image boxes %q, want %q", img.Boxes, want)
	}
	r := New()
	if err := r.LoadImage(wireRoundTrip(t, img)); err != nil {
		t.Fatal(err)
	}
	if got, want := r.AllocContext(), m.AllocContext(); got != want {
		t.Errorf("restored AllocContext %s, want %s", got, want)
	}
	if got, want := r.ImageFingerprint(), m.ImageFingerprint(); got != want {
		t.Errorf("restored fingerprint %s, want %s", got, want)
	}
	for i := 0; i < 3; i++ {
		if a, b := m.Box(sexp.String("n")), r.Box(sexp.String("n")); a != b {
			t.Fatalf("next boxes diverged: %v vs %v", a, b)
		}
	}
	if err := r.CheckHeapInvariants(); err != nil {
		t.Error(err)
	}
}
