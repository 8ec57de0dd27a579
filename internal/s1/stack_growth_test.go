package s1_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/s1"
	"repro/internal/sexp"
)

// deepSrc is a non-tail recursion: each level keeps its argument and a
// four-word frame on the stack until the innermost call returns.
const deepSrc = `(defun deep (n) (if (= n 0) 0 (+ 1 (deep (- n 1)))))`

// Reference figures taken with a preallocated full-segment stack; the
// growing stack must reproduce them exactly.
const (
	deepN        = 20000
	deepMaxStack = 100005 // five words per level plus the result
	// deepLimit is the deepest (deep n) that fits the segment; one more
	// level overflows at StackLimit.
	deepLimit         = 209714
	deepLimitMaxStack = 1048575
)

func deepSystem(t *testing.T) *core.System {
	t.Helper()
	sys := core.NewSystem(core.Options{})
	if err := sys.LoadString(deepSrc); err != nil {
		t.Fatal(err)
	}
	sys.ResetStats()
	return sys
}

// TestStackGrowthDeepRecursion: a deep non-tail recursion grows the
// stack across several doublings, with the value, MaxStack and overflow
// depth the full-segment stack gave; and a frame whose ADD SP
// reservation runs past the stack's end survives a collection and
// exports the same stack, registers and fingerprint.
func TestStackGrowthDeepRecursion(t *testing.T) {
	t.Run("deep", func(t *testing.T) {
		sys := deepSystem(t)
		m := sys.Machine
		if m.StackLen() >= deepMaxStack/8 {
			t.Fatalf("fresh system already has a %d-word stack", m.StackLen())
		}
		// Until the innermost call returns, nothing above SP has been
		// written, so every time the stack has grown the new words
		// must read zero.
		checked, peak := m.StackLen(), 0
		var zeroErr error
		m.OnSafepoint = func(int64, bool) error {
			n := m.StackLen()
			peak = max(peak, n)
			if n != checked && zeroErr == nil {
				checked = n
				zeroErr = m.CheckZeroAboveSP()
			}
			return nil
		}
		v, err := sys.Call("deep", sexp.Fixnum(deepN))
		m.OnSafepoint = nil
		if err != nil || sexp.Print(v) != fmt.Sprint(deepN) {
			t.Fatalf("(deep %d) = %v, %v", deepN, v, err)
		}
		if zeroErr != nil {
			t.Error(zeroErr)
		}
		if got := m.Stats.MaxStack; got != deepMaxStack {
			t.Errorf("MaxStack = %d, want %d", got, deepMaxStack)
		}
		if peak < deepMaxStack || peak > 2*deepMaxStack {
			t.Errorf("stack grew to %d words for a %d-word extent", peak, deepMaxStack)
		}
		// The finished call leaves the machine, as a parked session
		// would hold it, with a zeroed initial-size stack.
		if got := m.StackLen(); got != s1.InitialStackWords {
			t.Errorf("idle machine keeps a %d-word stack, want %d", got, s1.InitialStackWords)
		}
		if err := m.CheckZeroAboveSP(); err != nil {
			t.Error(err)
		}
		if err := m.CheckStackRegs(); err != nil {
			t.Error(err)
		}

		sys = deepSystem(t)
		if _, err := sys.Call("deep", sexp.Fixnum(deepLimit)); err != nil {
			t.Fatalf("(deep %d): %v", deepLimit, err)
		}
		if got := sys.Machine.Stats.MaxStack; got != deepLimitMaxStack {
			t.Errorf("MaxStack at the limit = %d, want %d", got, deepLimitMaxStack)
		}
		sys = deepSystem(t)
		_, err = sys.Call("deep", sexp.Fixnum(deepLimit+1))
		var re *s1.RuntimeError
		if !errors.As(err, &re) || re.Msg != "stack overflow" {
			t.Fatalf("(deep %d) = %v, want a stack overflow RuntimeError", deepLimit+1, err)
		}
	})

	t.Run("reserve-then-tail-call", func(t *testing.T) {
		// A frame reserves 3000 slots with ADD SP, writes none of them
		// and tail-calls a leaf, so SP lies far past the stack's end at
		// the TCALL: the tail-call cache must decline to the generic tail
		// call, which rebuilds the frame at the bottom of the stack.
		m := s1.New()
		leaf, err := m.AddFunction("leaf", 0, 0, []s1.Item{
			s1.InstrItem(s1.Instr{Op: s1.OpMOV, A: s1.R(s1.RegA), B: s1.Imm(s1.FixnumWord(42))}),
			s1.InstrItem(s1.Instr{Op: s1.OpRET}),
		})
		if err != nil {
			t.Fatal(err)
		}
		m.SetSymbolFunction("leaf", s1.Ptr(s1.TagFunc, uint64(leaf)))
		sym := m.InternSym("leaf")
		if _, err := m.AddFunction("reserve-tail", 0, 0, []s1.Item{
			s1.InstrItem(s1.Instr{Op: s1.OpADD, A: s1.R(s1.RegSP), B: s1.ImmInt(3000)}),
			s1.InstrItem(s1.Instr{Op: s1.OpTCALL, A: s1.Imm(s1.Ptr(s1.TagSymbol, uint64(sym)))}),
		}); err != nil {
			t.Fatal(err)
		}
		w, err := m.CallFunction("reserve-tail")
		if err != nil {
			t.Fatal(err)
		}
		// The rebuilt frame's four words; the leaf's result then lands
		// in the first of them.
		if w != s1.FixnumWord(42) || m.Stats.MaxStack != 4 {
			t.Errorf("returned %s with MaxStack %d, want 42 with 4", w, m.Stats.MaxStack)
		}
	})

	t.Run("reserve-past-end", func(t *testing.T) {
		// A frame reserves 3000 slots with ADD SP and spins without
		// writing them, so the first safepoint stops it with SP far past
		// the stack's end.
		m := s1.New()
		if _, err := m.AddFunction("reserve", 0, 0, []s1.Item{
			s1.InstrItem(s1.Instr{Op: s1.OpADD, A: s1.R(s1.RegSP), B: s1.ImmInt(3000)}),
			s1.InstrItem(s1.Instr{Op: s1.OpMOV, A: s1.R(s1.RegRTA), B: s1.ImmInt(400)}),
			s1.LabelItem("spin"),
			s1.InstrItem(s1.Instr{Op: s1.OpSUB, A: s1.R(s1.RegRTA), B: s1.ImmInt(1)}),
			s1.InstrItem(s1.Instr{Op: s1.OpJNE, A: s1.R(s1.RegRTA), B: s1.ImmInt(0), C: s1.Lbl("spin")}),
			s1.InstrItem(s1.Instr{Op: s1.OpMOV, A: s1.Mem(s1.RegSP, -1), B: s1.Imm(s1.FixnumWord(42))}),
			s1.InstrItem(s1.Instr{Op: s1.OpMOV, A: s1.R(s1.RegA), B: s1.Mem(s1.RegSP, -1)}),
			s1.InstrItem(s1.Instr{Op: s1.OpRET}),
		}); err != nil {
			t.Fatal(err)
		}
		m.Cons(s1.FixnumWord(1), s1.NilWord)
		m.Preempt()
		if _, err := m.CallFunction("reserve"); !errors.Is(err, s1.ErrPreempted) {
			t.Fatalf("reserve returned %v, want ErrPreempted", err)
		}
		if n := m.StackLen(); n >= 3004 {
			t.Fatalf("stack already %d words; the reservation must run past its end", n)
		}
		m.GC()
		img, err := m.ExportImage()
		if err != nil {
			t.Fatal(err)
		}
		if len(img.Stack) != 3004 {
			t.Errorf("exported stack has %d words, want 3004 (up to SP)", len(img.Stack))
		}
		// References built by the full-segment stack from the same
		// program: the image's stack and registers, and the machine's
		// fingerprint.
		if got, want := stackDigest(img), "6f2a1dd1eb6f08ba6f68deab190400fcda586aa1131cf6f4fc82295b8c135ab1"; got != want {
			t.Errorf("exported stack and registers digest to %s, want %s", got, want)
		}
		if got, want := m.ImageFingerprint(), "9c4b634b1a740bbe57ec25c5b4c4316ef315ce256330def7aa19b19b2dd4c709"; got != want {
			t.Errorf("image fingerprint %s, want %s", got, want)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		if w, err := m.HeapLoad(s1.StackBase); err != nil || w != s1.FixnumWord(42) {
			t.Errorf("result word %s (%v), want 42", w, err)
		}
	})
}

// stackDigest hashes an image's stack extent and words and its
// registers.
func stackDigest(img *s1.Image) string {
	h := sha256.New()
	put := func(ws []s1.Word) {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(ws))))
		for _, w := range ws {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(w.Tag)))
			h.Write(binary.LittleEndian.AppendUint64(nil, w.Bits))
		}
	}
	put(img.Stack)
	put(img.Regs)
	return hex.EncodeToString(h.Sum(nil))
}
