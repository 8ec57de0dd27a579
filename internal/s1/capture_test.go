package s1

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sexp"
)

// TestAddBodyMatchesAddFunction: a body a capture recorded from
// AddFunction, relative to its entry, and appended by AddBody lands
// exactly as AddFunction assembles the same items in place — jump
// targets rebased to the landing address — and runs the same. The
// shared Body is left untouched, and a capture in progress records an
// AddBody install as it records an AddFunction one.
func TestAddBodyMatchesAddFunction(t *testing.T) {
	items := []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(1))}),
		InstrItem(Instr{Op: OpJMP, A: Lbl("done")}),
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(2))}),
		LabelItem("done"),
		InstrItem(Instr{Op: OpRET}),
	}
	pad := []Item{InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(NilWord)}), InstrItem(Instr{Op: OpRET})}

	want := New()
	addFn(t, want, "pad", 0, 0, pad)
	addFn(t, want, "pad2", 0, 0, pad)
	want.BeginCapture()
	addFn(t, want, "f", 0, 0, items)
	capt := want.EndCapture()
	if len(capt.Funcs) != 1 {
		t.Fatalf("capture recorded %d bodies, want 1", len(capt.Funcs))
	}
	body := capt.Funcs[0]
	if got := body.Code[1].target; got != 3 {
		t.Fatalf("captured jump target %d, want 3 (relative to the body's entry)", got)
	}

	orig := append([]Instr(nil), body.Code...)
	got := New()
	addFn(t, got, "pad", 0, 0, pad)
	addFn(t, got, "pad2", 0, 0, pad)
	got.BeginCapture()
	got.AddBody(&body)
	recapt := got.EndCapture()
	if !reflect.DeepEqual(got.Code, want.Code) || !reflect.DeepEqual(got.Funcs, want.Funcs) {
		t.Fatalf("AddBody code differs from AddFunction's:\n got %+v\nwant %+v", got.Code, want.Code)
	}
	if !reflect.DeepEqual(body.Code, orig) {
		t.Error("AddBody modified the shared body")
	}
	if len(recapt.Funcs) != 1 || !reflect.DeepEqual(recapt.Funcs[0].Code, orig) {
		t.Errorf("a capture around AddBody recorded %+v, want the installed body", recapt.Funcs)
	}
	w, err := got.CallFunction("f")
	if err != nil {
		t.Fatal(err)
	}
	if w != FixnumWord(1) {
		t.Errorf("f = %s, want 1 (the jump must skip the second MOV)", w)
	}
}

// refAllocContext is AllocContext's definition in fmt terms.
func refAllocContext(m *Machine) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "syms=%d:%x|funcs=%d|code=%d|boxes=%d|heap=%d|live=%d|since=%d|thr=%d|lim=%d|stress=%t|",
		len(m.Syms), m.symHash, len(m.Funcs), len(m.Code), len(m.Boxes),
		len(m.heap), m.liveWords, m.liveSinceGC, m.gcThreshold, m.HeapLimit,
		m.gcStress)
	for n := 0; n <= gcSmallMax; n++ {
		if lst := m.freeSmall[n]; len(lst) > 0 {
			fmt.Fprintf(h, "f%d=%v|", n, lst)
		}
	}
	sizes := make([]int, 0, len(m.freeBig))
	for n := range m.freeBig {
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	for _, n := range sizes {
		fmt.Fprintf(h, "F%d=%v|", n, m.freeBig[n])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestAllocContextMatchesDefinition: the strconv-built fingerprint is
// the fmt-defined one — on a fresh machine and on one whose collector
// has left small and big blocks on the free lists — so contexts stored
// in cache entries and snapshots stay comparable.
func TestAllocContextMatchesDefinition(t *testing.T) {
	m := New()
	if got, want := m.AllocContext(), refAllocContext(m); got != want {
		t.Fatalf("fresh machine: %s, want %s", got, want)
	}
	m.InternSym("alpha")
	m.HeapLimit = 1 << 20
	m.SetGCThreshold(1 << 16)
	big := make([]sexp.Value, 100)
	for i := range big {
		big[i] = sexp.Fixnum(int64(i))
	}
	for i := 0; i < 50; i++ {
		m.Cons(FixnumWord(int64(i)), NilWord)
		m.FromValue(&sexp.Vector{Items: big})
	}
	m.regs[RegA] = NilWord
	m.GC()
	if len(m.freeBig) == 0 || len(m.freeSmall[2]) == 0 {
		t.Fatalf("no free blocks to fingerprint (big %d, small %d)", len(m.freeBig), len(m.freeSmall[2]))
	}
	if got, want := m.AllocContext(), refAllocContext(m); got != want {
		t.Errorf("after a collection: %s, want %s", got, want)
	}
}
