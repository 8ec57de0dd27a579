package s1

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/sexp"
)

// buildImageTestMachine assembles a small machine with a function, interned
// symbols, heap structure (some of it garbage, so free lists are
// populated), boxed objects and leftover register state.
func buildImageTestMachine(t *testing.T) *Machine {
	t.Helper()
	m := New()
	m.InternSym("x")
	m.InternSym("double")
	m.SetGlobal("x", FixnumWord(21))
	items := []Item{
		{Instr: &Instr{Op: OpMOV, A: Operand{Mode: MReg, Base: RegA}, B: Operand{Mode: MMem, Base: RegFP, Off: -5}}},
		{Instr: &Instr{Op: OpADD, A: Operand{Mode: MReg, Base: RegA}, B: Operand{Mode: MReg, Base: RegA}}},
		{Instr: &Instr{Op: OpJMP, A: Operand{Mode: MLabel, Label: "done"}}},
		{Instr: &Instr{Op: OpHALT}},
		{Label: "done"},
		{Instr: &Instr{Op: OpRET}},
	}
	idx, err := m.AddFunction("double", 1, 1, items)
	if err != nil {
		t.Fatalf("AddFunction: %v", err)
	}
	m.SetSymbolFunction("double", Ptr(TagFunc, uint64(idx)))
	// Live heap structure reachable from a symbol cell, plus a garbage
	// cons that a collection frees so the free lists are non-empty.
	live := m.Cons(FixnumWord(1), m.Cons(FixnumWord(2), NilWord))
	m.SetGlobal("lst", live)
	m.Cons(FixnumWord(99), NilWord) // garbage
	m.Box(sexp.String("hello\nworld"))
	m.Box(sexp.Character('q'))
	m.GC()
	if _, err := m.CallFunction("double", FixnumWord(7)); err != nil {
		t.Fatalf("call: %v", err)
	}
	return m
}

// wireRoundTrip pushes the image through its wire encoding, the one the
// snapshot format uses, so state the encoding drops would surface here
// first. The decoded image must re-encode to the same bytes.
func wireRoundTrip(t *testing.T, img *Image) *Image {
	t.Helper()
	var w Writer
	AppendImage(&w, img)
	r := NewReader(w.Bytes())
	out := ReadImage(r)
	if err := r.End(); err != nil {
		t.Fatalf("ReadImage: %v", err)
	}
	var again Writer
	AppendImage(&again, out)
	if !bytes.Equal(again.Bytes(), w.Bytes()) {
		t.Fatal("decoded image re-encodes to different bytes")
	}
	return out
}

func TestImageRoundTripFingerprint(t *testing.T) {
	m := buildImageTestMachine(t)
	wantFP := m.ImageFingerprint()
	wantCtx := m.AllocContext()

	img, err := m.ExportImage()
	if err != nil {
		t.Fatalf("ExportImage: %v", err)
	}
	img = wireRoundTrip(t, img)

	r := New()
	if err := r.LoadImage(img); err != nil {
		t.Fatalf("LoadImage: %v", err)
	}
	if got := r.ImageFingerprint(); got != wantFP {
		t.Errorf("restored ImageFingerprint = %s, want %s", got, wantFP)
	}
	if got := r.AllocContext(); got != wantCtx {
		t.Errorf("restored AllocContext = %s, want %s", got, wantCtx)
	}
	if err := r.CheckHeapInvariants(); err != nil {
		t.Errorf("restored heap invariants: %v", err)
	}
	// The restored machine must execute: jump targets survived the trip
	// inside their instructions.
	w, err := r.CallFunction("double", FixnumWord(7))
	if err != nil {
		t.Fatalf("restored call: %v", err)
	}
	if w.Int() != 14 {
		t.Errorf("restored (double 7) = %v, want 14", w)
	}
}

func TestImageRoundTripAllocParity(t *testing.T) {
	// After restore, allocation and collection must evolve the two
	// machines identically: same addresses handed out, same live words.
	m := buildImageTestMachine(t)
	img, err := m.ExportImage()
	if err != nil {
		t.Fatalf("ExportImage: %v", err)
	}
	r := New()
	if err := r.LoadImage(wireRoundTrip(t, img)); err != nil {
		t.Fatalf("LoadImage: %v", err)
	}
	for i := 0; i < 8; i++ {
		a, b := m.Cons(FixnumWord(int64(i)), NilWord), r.Cons(FixnumWord(int64(i)), NilWord)
		if a != b {
			t.Fatalf("alloc %d diverged: original %v, restored %v", i, a, b)
		}
	}
	m.GC()
	r.GC()
	if lm, lr := m.LiveHeapWords(), r.LiveHeapWords(); lm != lr {
		t.Errorf("post-GC live words diverged: original %d, restored %d", lm, lr)
	}
	if cm, cr := m.AllocContext(), r.AllocContext(); cm != cr {
		t.Errorf("post-GC AllocContext diverged: %s vs %s", cm, cr)
	}
}

// TestImageRoundTripForcedHot: LoadImage lowers the whole restored code
// vector — every function ready before its first call, as forced-hot
// tiering once made it — and the restored machine runs it.
func TestImageRoundTripForcedHot(t *testing.T) {
	m := buildImageTestMachine(t)
	img, err := m.ExportImage()
	if err != nil {
		t.Fatalf("ExportImage: %v", err)
	}
	r := New()
	if err := r.LoadImage(img); err != nil {
		t.Fatalf("LoadImage: %v", err)
	}
	if err := r.CheckLoweredPristine(0, len(r.Code)); err != nil {
		t.Error(err)
	}
	w, err := r.CallFunction("double", FixnumWord(5))
	if err != nil {
		t.Fatalf("restored call: %v", err)
	}
	if w.Int() != 10 {
		t.Errorf("restored (double 5) = %v, want 10", w)
	}
}

func TestExportImageRefusesMidActivity(t *testing.T) {
	m := New()
	if err := m.BeginCapture(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ExportImage(); err == nil {
		t.Error("ExportImage succeeded during capture")
	}
	m.EndCapture()
	m.tempRoots = append(m.tempRoots, NilWord)
	if _, err := m.ExportImage(); err == nil {
		t.Error("ExportImage succeeded with live temp roots")
	}
}

func TestLoadImageRejectsCorrupt(t *testing.T) {
	m := buildImageTestMachine(t)
	base, err := m.ExportImage()
	if err != nil {
		t.Fatalf("ExportImage: %v", err)
	}
	cases := []struct {
		name string
		mut  func(img *Image)
	}{
		{"bad-binding", func(img *Image) { img.Bindings[0].Idx = 99 }},
		{"bad-func-span", func(img *Image) { img.Funcs[0].End = len(img.Code) + 7 }},
		{"block-overrun", func(img *Image) { img.Blocks[0].Size = int32(len(img.Heap)) + 1 }},
		{"bad-box", func(img *Image) { img.Boxes[0] = "(unterminated" }},
		{"bad-regs", func(img *Image) { img.Regs = img.Regs[:3] }},
		{"live-words-skew", func(img *Image) { img.LiveWords += 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := wireRoundTrip(t, base)
			tc.mut(img)
			if err := New().LoadImage(img); err == nil {
				t.Errorf("LoadImage accepted %s image", tc.name)
			}
		})
	}
	// Corruptions of the encoded code section: the JMP at code[3] ends
	// its record with its target word.
	var w Writer
	AppendImage(&w, base)
	enc := w.Bytes()
	var prefix Writer
	AppendSection(&prefix, base.Code[:4], (*Writer).instrTarget)
	if base.Code[3].Op != OpJMP {
		t.Fatalf("code[3] is %s, want the JMP", base.Code[3].Op)
	}
	targetAt := len(prefix.Bytes()) - 8
	for _, tc := range []struct {
		name string
		data func() []byte
	}{
		{"truncated-targets", func() []byte { return enc[:targetAt+4] }},
		{"bad-target", func() []byte {
			d := bytes.Clone(enc)
			binary.LittleEndian.PutUint64(d[targetAt:], 1<<40)
			return d
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.data())
			if ReadImage(r); r.End() == nil {
				t.Errorf("ReadImage accepted a %s code section", tc.name)
			}
		})
	}
	// The same bounds hold for an image built in memory.
	bad := wireRoundTrip(t, base)
	bad.Code[3].target = len(bad.Code) + 1
	if err := New().LoadImage(bad); err == nil {
		t.Error("LoadImage accepted a jump target outside the code vector")
	}

	// The non-fresh guard: loading twice must fail.
	r := New()
	if err := r.LoadImage(wireRoundTrip(t, base)); err != nil {
		t.Fatalf("first load: %v", err)
	}
	if err := r.LoadImage(wireRoundTrip(t, base)); err == nil {
		t.Error("LoadImage accepted a non-fresh machine")
	}
}
