package s1

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sexp"
)

// addFn is a test helper that panics on assembly errors.
func addFn(t *testing.T, m *Machine, name string, min, max int, items []Item) int {
	t.Helper()
	idx, err := m.AddFunction(name, min, max, items)
	if err != nil {
		t.Fatalf("assemble %s: %v", name, err)
	}
	return idx
}

func TestWordBasics(t *testing.T) {
	if RawInt(-5).Int() != -5 {
		t.Error("RawInt round trip")
	}
	if RawFloat(2.5).Float() != 2.5 {
		t.Error("RawFloat round trip")
	}
	if NilWord.Truthy() || !FixnumWord(0).Truthy() {
		t.Error("truthiness")
	}
	if !IsStackAddr(StackBase) || IsStackAddr(HeapBase) {
		t.Error("region test")
	}
	if FixnumWord(42).String() != "42" {
		t.Errorf("print: %s", FixnumWord(42))
	}
}

func TestTwoAndHalfAddressRule(t *testing.T) {
	m := New()
	// Legal: destination is RTA.
	_, err := m.AddFunction("ok1", 0, 0, []Item{
		InstrItem(Instr{Op: OpADD, A: R(RegRTA), B: Mem(RegFP, 0), C: Mem(RegFP, 1)}),
		InstrItem(Instr{Op: OpRET}),
	})
	if err != nil {
		t.Errorf("RTA-destination form should assemble: %v", err)
	}
	// Legal: first source is RTB.
	_, err = m.AddFunction("ok2", 0, 0, []Item{
		InstrItem(Instr{Op: OpSUB, A: Mem(RegFP, 0), B: R(RegRTB), C: Mem(RegFP, 1)}),
		InstrItem(Instr{Op: OpRET}),
	})
	if err != nil {
		t.Errorf("RTB-source form should assemble: %v", err)
	}
	// Legal: two-operand form with arbitrary operands.
	_, err = m.AddFunction("ok3", 0, 0, []Item{
		InstrItem(Instr{Op: OpADD, A: Mem(RegFP, 0), B: Mem(RegFP, 1)}),
		InstrItem(Instr{Op: OpRET}),
	})
	if err != nil {
		t.Errorf("two-operand form should assemble: %v", err)
	}
	// Illegal: three distinct non-RT operands.
	_, err = m.AddFunction("bad", 0, 0, []Item{
		InstrItem(Instr{Op: OpADD, A: Mem(RegFP, 0), B: Mem(RegFP, 1), C: Mem(RegFP, 2)}),
		InstrItem(Instr{Op: OpRET}),
	})
	if err == nil {
		t.Error("three-operand arithmetic without an RT register must be rejected")
	}
	// MOV is exempt.
	_, err = m.AddFunction("mov", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: Mem(RegFP, 0), B: Mem(RegFP, 1)}),
		InstrItem(Instr{Op: OpRET}),
	})
	if err != nil {
		t.Errorf("MOV is not subject to the rule: %v", err)
	}
}

func TestAssemblerLabelErrors(t *testing.T) {
	m := New()
	_, err := m.AddFunction("f", 0, 0, []Item{
		InstrItem(Instr{Op: OpJMP, A: Lbl("nowhere")}),
	})
	if err == nil {
		t.Error("undefined label should fail")
	}
	_, err = m.AddFunction("g", 0, 0, []Item{
		LabelItem("x"), LabelItem("x"),
		InstrItem(Instr{Op: OpRET}),
	})
	if err == nil {
		t.Error("duplicate label should fail")
	}
}

// buildAdd2 compiles by hand: f(a, b) = a + b on fixnum immediates.
func buildAdd2(t *testing.T, m *Machine) {
	// Args at FP-4-2+i; fixnums are immediate, add their Bits.
	addFn(t, m, "add2", 2, 2, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: Mem(RegFP, -6)}),
		InstrItem(Instr{Op: OpADD, A: R(RegRTA), B: Mem(RegFP, -5)}),
		InstrItem(Instr{Op: OpMOVP, TagArg: int64(TagFixnum), A: R(RegA), B: Idx(RegRTA, 0, NoReg, 0)}),
		InstrItem(Instr{Op: OpRET}),
	})
}

func TestCallAndReturn(t *testing.T) {
	m := New()
	buildAdd2(t, m)
	got, err := m.CallFunction("add2", FixnumWord(30), FixnumWord(12))
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != TagFixnum || got.Int() != 42 {
		t.Fatalf("add2 = %s", got)
	}
	if m.Stats.Calls == 0 || m.Stats.Instrs == 0 || m.Stats.Cycles == 0 {
		t.Error("stats not counted")
	}
}

func TestMOVPMakesPointer(t *testing.T) {
	m := New()
	// Store a raw float into a frame slot, then make a pdl pointer to it.
	addFn(t, m, "pdl", 0, 0, []Item{
		InstrItem(Instr{Op: OpADD, A: R(RegSP), B: ImmInt(1)}), // reserve local
		InstrItem(Instr{Op: OpMOV, A: Mem(RegFP, 0), B: Imm(RawFloat(2.5))}),
		InstrItem(Instr{Op: OpMOVP, TagArg: int64(TagFlonum), A: R(RegA), B: Mem(RegFP, 0)}),
		InstrItem(Instr{Op: OpRET}),
	})
	got, err := m.CallFunction("pdl")
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != TagFlonum || !IsStackAddr(got.Bits) {
		t.Fatalf("expected stack flonum pointer, got %s", got)
	}
}

func TestCertifyCopiesStackPointer(t *testing.T) {
	m := New()
	addFn(t, m, "c", 0, 0, []Item{
		InstrItem(Instr{Op: OpADD, A: R(RegSP), B: ImmInt(1)}),
		InstrItem(Instr{Op: OpMOV, A: Mem(RegFP, 0), B: Imm(RawFloat(7.5))}),
		InstrItem(Instr{Op: OpMOVP, TagArg: int64(TagFlonum), A: R(RegA), B: Mem(RegFP, 0)}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQCertify}),
		InstrItem(Instr{Op: OpRET}),
	})
	got, err := m.CallFunction("c")
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != TagFlonum || IsStackAddr(got.Bits) {
		t.Fatalf("certify should move to heap: %s", got)
	}
	if m.Stats.Certifies != 1 || m.Stats.CertifyCopies != 1 {
		t.Errorf("certify stats: %+v", m.Stats)
	}
	if v, _ := m.ToValue(got); sexp.Print(v) != "7.5" {
		t.Errorf("value = %s", sexp.Print(v))
	}
	// A heap pointer passes certification without copying.
	m2 := New()
	addFn(t, m2, "c2", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(RawFloat(1.5))}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQFlonumCons}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQCertify}),
		InstrItem(Instr{Op: OpRET}),
	})
	if _, err := m2.CallFunction("c2"); err != nil {
		t.Fatal(err)
	}
	if m2.Stats.CertifyCopies != 0 {
		t.Error("heap pointer should not be copied")
	}
}

func TestTailCallConstantStack(t *testing.T) {
	// loop(n): if n == 0 return 99 else tail-call loop(n-1).
	m := New()
	idx := m.InternSym("loop")
	items := []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: Mem(RegFP, -5)}), // arg n (fixnum)
		InstrItem(Instr{Op: OpJEQ, A: Idx(RegRTA, 0, NoReg, 0), B: ImmInt(0), C: Lbl("done")}),
		InstrItem(Instr{Op: OpSUB, A: R(RegRTA), B: ImmInt(1)}),
		InstrItem(Instr{Op: OpMOVP, TagArg: int64(TagFixnum), A: R(RegA), B: Idx(RegRTA, 0, NoReg, 0)}),
		InstrItem(Instr{Op: OpPUSH, A: R(RegA)}),
		InstrItem(Instr{Op: OpTCALL, A: Imm(Ptr(TagSymbol, uint64(idx))), TagArg: 1}),
		LabelItem("done"),
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(99))}),
		InstrItem(Instr{Op: OpRET}),
	}
	// Wait: JEQ compares operand values; arg is a fixnum word whose Bits
	// hold n, so compare via the register's bits. Rebuild: load the word
	// into RTA and compare RTA's bits with 0 directly.
	items[1] = InstrItem(Instr{Op: OpJEQ, A: R(RegRTA), B: ImmInt(0), C: Lbl("done")})
	fnIdx := addFn(t, m, "loop", 1, 1, items)
	m.SetSymbolFunction("loop", Ptr(TagFunc, uint64(fnIdx)))
	got, err := m.CallFunction("loop", FixnumWord(100000))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 99 {
		t.Fatalf("loop = %s", got)
	}
	// Constant stack: frame for 1 arg is 1+4 words + 1 result.
	if m.Stats.MaxStack > 16 {
		t.Errorf("tail calls must not grow the stack: max depth %d", m.Stats.MaxStack)
	}
	if m.Stats.TailCalls != 100000 {
		t.Errorf("tail calls = %d", m.Stats.TailCalls)
	}
}

func TestJEQComparesFixnumBits(t *testing.T) {
	// Fixnum words carry their value in Bits, so JEQ on the word works
	// when tags agree; this test pins that assumption.
	if FixnumWord(5).Int() != 5 {
		t.Fatal("fixnum bits")
	}
}

func TestNonTailCallGrowsStack(t *testing.T) {
	// deep(n): if n == 0 return 0 else 0 + deep(n-1) via real CALL.
	m := New()
	buildDeep(t, m)
	if _, err := m.CallFunction("deep", FixnumWord(1000)); err != nil {
		t.Fatal(err)
	}
	if m.Stats.MaxStack < 1000 {
		t.Errorf("non-tail recursion should grow stack: max %d", m.Stats.MaxStack)
	}
}

func TestFloatOpsAndTranscendentals(t *testing.T) {
	m := New()
	addFn(t, m, "f", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: Imm(RawFloat(3.0))}),
		InstrItem(Instr{Op: OpFMULT, A: R(RegRTA), B: Imm(RawFloat(4.0))}),
		InstrItem(Instr{Op: OpFADD, A: R(RegRTA), B: Imm(RawFloat(0.25))}),
		InstrItem(Instr{Op: OpFSQRT, A: R(RegRTA), B: R(RegRTA)}),
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: R(RegRTA)}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQFlonumCons}),
		InstrItem(Instr{Op: OpRET}),
	})
	got, err := m.CallFunction("f")
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.ToValue(got)
	if err != nil {
		t.Fatal(err)
	}
	if sexp.Print(v) != "3.5" {
		t.Errorf("sqrt(12.25) = %s", sexp.Print(v))
	}
}

func TestFSINTakesCycles(t *testing.T) {
	m := New()
	addFn(t, m, "s", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(RawFloat(0.25))}), // quarter cycle
		InstrItem(Instr{Op: OpFSIN, A: R(RegA), B: R(RegA)}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQFlonumCons}),
		InstrItem(Instr{Op: OpRET}),
	})
	got, err := m.CallFunction("s")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.ToValue(got)
	f, _ := sexp.ToFloat(v)
	if f < 0.999999 || f > 1.000001 {
		t.Errorf("sin(quarter cycle) = %v, want 1.0", f)
	}
}

func TestGenericArithmeticSQ(t *testing.T) {
	m := New()
	addFn(t, m, "g", 2, 2, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Mem(RegFP, -6)}),
		InstrItem(Instr{Op: OpMOV, A: R(RegB), B: Mem(RegFP, -5)}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQAdd}),
		InstrItem(Instr{Op: OpRET}),
	})
	// fixnum + fixnum
	got, err := m.CallFunction("g", FixnumWord(40), FixnumWord(2))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 42 || got.Tag != TagFixnum {
		t.Errorf("40+2 = %s", got)
	}
	// fixnum + flonum with contagion
	fl := m.ConsFlonum(0.5)
	got, err = m.CallFunction("g", FixnumWord(1), fl)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.ToValue(got)
	if sexp.Print(v) != "1.5" {
		t.Errorf("1+0.5 = %s", sexp.Print(v))
	}
	// bignum overflow
	got, err = m.CallFunction("g", FixnumWord(1<<62), FixnumWord(1<<62))
	if err != nil {
		t.Fatal(err)
	}
	v, _ = m.ToValue(got)
	if sexp.Print(v) != "9223372036854775808" {
		t.Errorf("overflow = %s", sexp.Print(v))
	}
	// type error
	if _, err := m.CallFunction("g", NilWord, FixnumWord(1)); err == nil {
		t.Error("adding nil should fail")
	}
}

func TestConsCarCdr(t *testing.T) {
	m := New()
	addFn(t, m, "k", 2, 2, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Mem(RegFP, -6)}),
		InstrItem(Instr{Op: OpMOV, A: R(RegB), B: Mem(RegFP, -5)}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQCons}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQCar}),
		InstrItem(Instr{Op: OpRET}),
	})
	got, err := m.CallFunction("k", FixnumWord(7), NilWord)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 7 {
		t.Errorf("(car (cons 7 nil)) = %s", got)
	}
	if m.Stats.ConsAllocs != 1 {
		t.Errorf("cons allocs = %d", m.Stats.ConsAllocs)
	}
}

func TestSpecialBindingDeep(t *testing.T) {
	m := New()
	sym := buildSpecialBind(t, m)
	got, err := m.CallFunction("f")
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 42 {
		t.Errorf("special read = %s", got)
	}
	if m.BindingDepth() != 0 {
		t.Error("binding stack should unwind")
	}
	if m.Stats.SpecialLookups != 1 {
		t.Errorf("lookups = %d", m.Stats.SpecialLookups)
	}
	// With no binding, the global cell is used.
	addFn(t, m, "g", 0, 0, []Item{
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQSpecReadSym, B: ImmInt(int64(sym))}),
		InstrItem(Instr{Op: OpRET}),
	})
	got, err = m.CallFunction("g")
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 0 {
		t.Errorf("global read = %s", got)
	}
}

func TestCatchThrow(t *testing.T) {
	m := New()
	buildCatch(t, m)
	got, err := m.CallFunction("c")
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 41 {
		t.Errorf("catch/throw = %s", got)
	}
	// Uncaught throw errors.
	buildUncaught(t, m)
	if _, err := m.CallFunction("u"); err == nil ||
		!strings.Contains(err.Error(), "uncaught") {
		t.Errorf("uncaught throw: %v", err)
	}
}

func TestClosureCreationAndCall(t *testing.T) {
	m := New()
	buildClosure(t, m)
	got, err := m.CallFunction("outer", FixnumWord(32))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 42 {
		t.Errorf("closure call = %s", got)
	}
	if m.Stats.EnvAllocs != 1 {
		t.Errorf("env allocs = %d", m.Stats.EnvAllocs)
	}
}

func TestRestify(t *testing.T) {
	m := New()
	buildRestify(t, m)
	got, err := m.CallFunction("f", FixnumWord(1), FixnumWord(2), FixnumWord(3))
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.ToValue(got)
	if err != nil {
		t.Fatal(err)
	}
	if sexp.Print(v) != "(2 3)" {
		t.Errorf("rest = %s", sexp.Print(v))
	}
	// Zero extra args → empty rest.
	got, err = m.CallFunction("f", FixnumWord(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != TagNil {
		t.Errorf("empty rest = %s", got)
	}
}

func TestApplyListSQ(t *testing.T) {
	m := New()
	buildApplyList(t, m)
	got, err := m.CallFunction("ap")
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 42 {
		t.Errorf("apply = %s", got)
	}
}

func TestValueConversionRoundTrip(t *testing.T) {
	m := New()
	cases := []string{
		"42", "-7", "foo", "nil", "t", "(1 2 3)", "(1 . 2)",
		"#(1 2)", `"str"`, "12345678901234567890123456789", "2/3", "3.25",
	}
	for _, src := range cases {
		v := mustRead(src)
		w := m.FromValue(v)
		back, err := m.ToValue(w)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if !sexp.Equal(v, back) {
			t.Errorf("%s round-tripped to %s", src, sexp.Print(back))
		}
	}
}

func TestPrimHook(t *testing.T) {
	m := New()
	m.SetPrimHook(func(name *sexp.Symbol, args []sexp.Value) (sexp.Value, error) {
		if name != sexp.Intern("reverse") {
			t.Errorf("hook name = %s", name.Name)
		}
		return mustRead("(3 2 1)"), nil
	})
	sym := m.InternSym("reverse")
	lst := m.FromValue(mustRead("(1 2 3)"))
	addFn(t, m, "r", 0, 0, []Item{
		InstrItem(Instr{Op: OpPUSH, A: Imm(lst)}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQPrim, B: ImmInt(int64(sym)), C: ImmInt(1)}),
		InstrItem(Instr{Op: OpRET}),
	})
	got, err := m.CallFunction("r")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.ToValue(got)
	if sexp.Print(v) != "(3 2 1)" {
		t.Errorf("prim result = %s", sexp.Print(v))
	}
}

func TestStepLimit(t *testing.T) {
	m := New()
	m.StepLimit = 1000
	addFn(t, m, "spin", 0, 0, []Item{
		LabelItem("top"),
		InstrItem(Instr{Op: OpJMP, A: Lbl("top")}),
	})
	if _, err := m.CallFunction("spin"); err == nil ||
		!strings.Contains(err.Error(), "step limit") {
		t.Errorf("step limit: %v", err)
	}
}

func TestIndexedAddressing(t *testing.T) {
	m := New()
	// Build a float array [3] = {1.5, 2.5, 3.5} and fetch element [i]
	// with one indexed operand: mem[data + i].
	fa := m.FromValue(&sexp.FloatArray{Dims: []int{3}, Data: []float64{1.5, 2.5, 3.5}})
	dataBase := int64(fa.Bits + 2) // [rank, dim0, data...]
	addFn(t, m, "el", 1, 1, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegRTB), B: Mem(RegFP, -5)}), // i (fixnum: bits)
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Idx(NoReg, dataBase, RegRTB, 0)}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQFlonumCons}),
		InstrItem(Instr{Op: OpRET}),
	})
	got, err := m.CallFunction("el", FixnumWord(2))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.ToValue(got)
	if sexp.Print(v) != "3.5" {
		t.Errorf("a[2] = %s", sexp.Print(v))
	}
}

func TestListingAndMOVCount(t *testing.T) {
	m := New()
	buildAdd2(t, m)
	f := m.Funcs[m.FuncNamed("add2")]
	listing := Listing(m.Code, f.Entry, f.End)
	if !strings.Contains(listing, "ADD") || !strings.Contains(listing, "MOVP") {
		t.Errorf("listing:\n%s", listing)
	}
	if n := CountMOVs(m.Code, f.Entry, f.End); n != 1 {
		t.Errorf("static MOVs = %d, want 1", n)
	}
}

func TestUndefinedFunction(t *testing.T) {
	m := New()
	sym := m.InternSym("nothing")
	addFn(t, m, "f", 0, 0, []Item{
		InstrItem(Instr{Op: OpCALL, A: Imm(Ptr(TagSymbol, uint64(sym))), TagArg: 0}),
		InstrItem(Instr{Op: OpRET}),
	})
	if _, err := m.CallFunction("f"); err == nil ||
		!strings.Contains(err.Error(), "undefined function") {
		t.Errorf("undefined function: %v", err)
	}
}

func TestDivideByZeroTraps(t *testing.T) {
	m := New()
	addFn(t, m, "d", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: ImmInt(5)}),
		InstrItem(Instr{Op: OpDIV, A: R(RegRTA), B: ImmInt(0)}),
		InstrItem(Instr{Op: OpRET}),
	})
	if _, err := m.CallFunction("d"); err == nil {
		t.Error("integer divide by zero should trap")
	}
}

func TestMoreALUOps(t *testing.T) {
	m := New()
	addFn(t, m, "alu", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: ImmInt(5)}),
		InstrItem(Instr{Op: OpASH, A: R(RegRTA), B: ImmInt(2)}),  // 20
		InstrItem(Instr{Op: OpSUB, A: R(RegRTA), B: ImmInt(2)}),  // 18
		InstrItem(Instr{Op: OpDIV, A: R(RegRTA), B: ImmInt(3)}),  // 6
		InstrItem(Instr{Op: OpASH, A: R(RegRTA), B: ImmInt(-1)}), // 3
		InstrItem(Instr{Op: OpMOVP, TagArg: int64(TagFixnum), A: R(RegA), B: Idx(RegRTA, 0, NoReg, 0)}),
		InstrItem(Instr{Op: OpRET}),
	})
	got, err := m.CallFunction("alu")
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 3 {
		t.Errorf("alu = %s", got)
	}
}

func TestFloatUnaries(t *testing.T) {
	m := New()
	addFn(t, m, "fu", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(RawFloat(-4.0))}),
		InstrItem(Instr{Op: OpFABS, A: R(RegA), B: R(RegA)}),  // 4
		InstrItem(Instr{Op: OpFNEG, A: R(RegA), B: R(RegA)}),  // -4
		InstrItem(Instr{Op: OpFNEG, A: R(RegA), B: R(RegA)}),  // 4
		InstrItem(Instr{Op: OpFIX, A: R(RegB), B: R(RegA)}),   // raw 4
		InstrItem(Instr{Op: OpFLT, A: R(RegA), B: R(RegB)}),   // 4.0
		InstrItem(Instr{Op: OpFSQRT, A: R(RegA), B: R(RegA)}), // 2.0
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQFlonumCons}),
		InstrItem(Instr{Op: OpRET}),
	})
	got, err := m.CallFunction("fu")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.ToValue(got)
	if sexp.Print(v) != "2.0" {
		t.Errorf("fu = %s", sexp.Print(v))
	}
}

func TestMoreJumps(t *testing.T) {
	m := New()
	// f(n): return 1 if n>3, 2 if n<=3 — via JGT.
	addFn(t, m, "jg", 1, 1, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: Mem(RegFP, -5)}),
		InstrItem(Instr{Op: OpJGT, A: R(RegRTA), B: ImmInt(3), C: Lbl("big")}),
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(2))}),
		InstrItem(Instr{Op: OpRET}),
		LabelItem("big"),
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(1))}),
		InstrItem(Instr{Op: OpRET}),
	})
	if v, _ := m.CallFunction("jg", FixnumWord(5)); v.Int() != 1 {
		t.Errorf("jg 5 = %s", v)
	}
	if v, _ := m.CallFunction("jg", FixnumWord(2)); v.Int() != 2 {
		t.Errorf("jg 2 = %s", v)
	}
	// Float compare jump.
	addFn(t, m, "fj", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: Imm(RawFloat(1.5))}),
		InstrItem(Instr{Op: OpFJLE, A: R(RegRTA), B: Imm(RawFloat(2.0)), C: Lbl("le")}),
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(NilWord)}),
		InstrItem(Instr{Op: OpRET}),
		LabelItem("le"),
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(TWord)}),
		InstrItem(Instr{Op: OpRET}),
	})
	if v, _ := m.CallFunction("fj"); v.Tag != TagT {
		t.Errorf("fj = %s", v)
	}
}

func TestTagOp(t *testing.T) {
	m := New()
	addFn(t, m, "tg", 1, 1, []Item{
		InstrItem(Instr{Op: OpTAG, A: R(RegRTA), B: Mem(RegFP, -5)}),
		InstrItem(Instr{Op: OpMOVP, TagArg: int64(TagFixnum), A: R(RegA), B: Idx(RegRTA, 0, NoReg, 0)}),
		InstrItem(Instr{Op: OpRET}),
	})
	v, err := m.CallFunction("tg", m.Cons(NilWord, NilWord))
	if err != nil {
		t.Fatal(err)
	}
	if Tag(v.Int()) != TagCons {
		t.Errorf("tag = %d", v.Int())
	}
}

func TestSQEqlAndEqual(t *testing.T) {
	m := New()
	run := func(sq int64, a, b Word) Word {
		name := fmt.Sprintf("eq%d-%s-%s", sq, a, b)
		addFn(t, m, name, 0, 0, []Item{
			InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(a)}),
			InstrItem(Instr{Op: OpMOV, A: R(RegB), B: Imm(b)}),
			InstrItem(Instr{Op: OpCALLSQ, TagArg: sq}),
			InstrItem(Instr{Op: OpRET}),
		})
		v, err := m.CallFunction(name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	f1, f2 := m.ConsFlonum(1.5), m.ConsFlonum(1.5)
	if v := run(SQEql, f1, f2); v.Tag != TagT {
		t.Error("eql flonums of equal value")
	}
	l1 := m.FromValue(mustRead("(1 2)"))
	l2 := m.FromValue(mustRead("(1 2)"))
	if v := run(SQEql, l1, l2); v.Tag != TagNil {
		t.Error("distinct lists are not eql")
	}
	if v := run(SQEqual, l1, l2); v.Tag != TagT {
		t.Error("equal lists")
	}
}

func TestPrintWordAndSQPrint(t *testing.T) {
	m := New()
	if got := m.PrintWord(FixnumWord(42)); got != "42" {
		t.Errorf("PrintWord = %s", got)
	}
	var buf strings.Builder
	m.Out = &buf
	lst := m.FromValue(mustRead("(a 1 2.5)"))
	addFn(t, m, "pr", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(lst)}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQPrint}),
		InstrItem(Instr{Op: OpRET}),
	})
	if _, err := m.CallFunction("pr"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(a 1 2.5)") {
		t.Errorf("printed %q", buf.String())
	}
}

func TestVectorAndArrayConversion(t *testing.T) {
	m := New()
	v := mustRead("#(1 (2 3) \"s\")")
	w := m.FromValue(v)
	back, err := m.ToValue(w)
	if err != nil || !sexp.Equal(v, back) {
		t.Errorf("vector round trip: %v %v", back, err)
	}
	arr := sexp.NewArray([]int{2, 2}, sexp.Fixnum(7))
	wa := m.FromValue(arr)
	ba, err := m.ToValue(wa)
	if err != nil {
		t.Fatal(err)
	}
	if !sexp.Equal(ba.(*sexp.Array).Items[3], sexp.Fixnum(7)) {
		t.Error("array round trip")
	}
	fn := Ptr(TagFunc, 0)
	m.Funcs = append(m.Funcs, FuncDesc{Name: "zork"})
	fv, err := m.ToValue(fn)
	if err != nil || !strings.Contains(sexp.Print(fv), "zork") {
		t.Errorf("function converts to placeholder: %v %v", fv, err)
	}
}

func TestSpecialWriteSQ(t *testing.T) {
	m := New()
	sym := m.InternSym("*w*")
	m.SetGlobal("*w*", FixnumWord(1))
	addFn(t, m, "w", 0, 0, []Item{
		InstrItem(Instr{Op: OpSPECBIND, TagArg: int64(sym), A: Imm(FixnumWord(10))}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQSpecFind, B: ImmInt(int64(sym))}),
		InstrItem(Instr{Op: OpMOV, A: R(RegB), B: Imm(FixnumWord(20))}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQSpecWrite}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQSpecReadSym, B: ImmInt(int64(sym))}),
		InstrItem(Instr{Op: OpSPECUNBIND, TagArg: 1}),
		InstrItem(Instr{Op: OpRET}),
	})
	v, err := m.CallFunction("w")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 20 {
		t.Errorf("special write/read = %s", v)
	}
	// Global untouched by the bound write.
	if m.Syms[sym].Value.Int() != 1 {
		t.Error("global cell should be unchanged")
	}
	// Write through the symbol (no binding) hits the global.
	addFn(t, m, "w2", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(77))}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQSpecWriteSym, B: ImmInt(int64(sym))}),
		InstrItem(Instr{Op: OpRET}),
	})
	if _, err := m.CallFunction("w2"); err != nil {
		t.Fatal(err)
	}
	if m.Syms[sym].Value.Int() != 77 {
		t.Error("global write failed")
	}
}

// mustRead parses one form, panicking on error — a test-table
// convenience; the production reader paths all return errors.
func mustRead(src string) sexp.Value {
	v, err := sexp.ReadOne(src)
	if err != nil {
		panic(err)
	}
	return v
}

// TestPrimArgsStack: a primitive call made while another's arguments are
// live gets its own region of the scratch stack, capped so an append
// cannot spill into a neighbour, and popping clears what it releases.
func TestPrimArgsStack(t *testing.T) {
	m := New()
	outer, base := m.pushPrimArgs(2)
	outer[0], outer[1] = sexp.Fixnum(1), sexp.Fixnum(2)
	inner, innerBase := m.pushPrimArgs(3)
	for i := range inner {
		inner[i] = sexp.Fixnum(9)
	}
	_ = append(outer, sexp.Fixnum(7))
	if outer[0] != sexp.Fixnum(1) || outer[1] != sexp.Fixnum(2) || inner[0] != sexp.Fixnum(9) {
		t.Fatalf("regions overlap: outer %v inner %v", outer, inner)
	}
	m.popPrimArgs(innerBase)
	if len(m.primArgs) != 2 || outer[1] != sexp.Fixnum(2) {
		t.Fatalf("popping the inner region disturbed the outer one: %v", m.primArgs)
	}
	m.popPrimArgs(base)
	for i, v := range m.primArgs[:cap(m.primArgs)] {
		if v != nil {
			t.Errorf("released slot %d still holds %v", i, v)
		}
	}
}
