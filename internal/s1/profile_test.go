package s1

import (
	"strings"
	"testing"
)

// buildCounted assembles f() = 40 + 2 with a known instruction mix.
func buildCounted(t *testing.T, m *Machine) {
	addFn(t, m, "counted", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: ImmInt(40)}),
		InstrItem(Instr{Op: OpADD, A: R(RegRTA), B: ImmInt(2)}),
		InstrItem(Instr{Op: OpMOVP, TagArg: int64(TagFixnum), A: R(RegA), B: Idx(RegRTA, 0, NoReg, 0)}),
		InstrItem(Instr{Op: OpRET}),
	})
}

func TestProfileOpcodeHistogram(t *testing.T) {
	m := New()
	buildCounted(t, m)
	p := m.EnableProfile()
	if m.EnableProfile() != p {
		t.Fatalf("EnableProfile is not idempotent")
	}
	got, err := m.CallFunction("counted")
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 42 {
		t.Fatalf("counted = %s", got)
	}
	// The body executes MOV, ADD, MOVP, RET exactly once each.
	for _, op := range []Op{OpMOV, OpADD, OpMOVP, OpRET} {
		if p.OpCount[op] != 1 {
			t.Errorf("OpCount[%s] = %d, want 1", op, p.OpCount[op])
		}
		if p.OpCycles[op] != cycleCost[op] {
			t.Errorf("OpCycles[%s] = %d, want %d", op, p.OpCycles[op], cycleCost[op])
		}
	}
	// Every executed instruction is counted somewhere: the histogram
	// totals must match the machine's own meters exactly.
	var instrs, cycles int64
	for op := 0; op < NumOps; op++ {
		instrs += p.OpCount[op]
		cycles += p.OpCycles[op]
	}
	if instrs != m.Stats.Instrs {
		t.Errorf("histogram instrs %d != Stats.Instrs %d", instrs, m.Stats.Instrs)
	}
	if cycles != m.Stats.Cycles {
		t.Errorf("histogram cycles %d != Stats.Cycles %d", cycles, m.Stats.Cycles)
	}
}

func TestProfileFunctionAttribution(t *testing.T) {
	// deep(n): n == 0 ? 0 : deep(n-1) via real CALL — the shadow stack
	// must attribute every instruction to deep and fold the recursion
	// into nested collapsed stacks.
	m := New()
	fnIdx := buildDeep(t, m)
	p := m.EnableProfile()
	if _, err := m.CallFunction("deep", FixnumWord(5)); err != nil {
		t.Fatal(err)
	}
	if p.FnCalls[fnIdx] != 6 {
		t.Errorf("FnCalls = %d, want 6 (outer + 5 recursive)", p.FnCalls[fnIdx])
	}
	if p.FnInstrs[fnIdx] != m.Stats.Instrs {
		t.Errorf("every instruction runs inside deep: FnInstrs %d != Instrs %d",
			p.FnInstrs[fnIdx], m.Stats.Instrs)
	}
	if p.FnCycles[fnIdx] != m.Stats.Cycles {
		t.Errorf("FnCycles %d != Cycles %d", p.FnCycles[fnIdx], m.Stats.Cycles)
	}
	// Collapsed stacks reflect the recursion depth, and their cycle
	// total equals the machine total. WriteCollapsed flushes pending
	// cycles, so call it before reading the map.
	var b strings.Builder
	m.WriteCollapsed(&b)
	folded := p.Collapsed()
	if folded["deep;deep;deep;deep;deep;deep"] == 0 {
		t.Errorf("missing depth-6 collapsed stack; have %v", folded)
	}
	var total int64
	for _, c := range folded {
		total += c
	}
	if total != m.Stats.Cycles {
		t.Errorf("collapsed cycles %d != Stats.Cycles %d", total, m.Stats.Cycles)
	}
	if !strings.Contains(b.String(), "deep;deep") {
		t.Errorf("folded output missing nested stack:\n%s", b.String())
	}

	out := new(strings.Builder)
	m.WriteProfile(out)
	if !strings.Contains(out.String(), "deep") || !strings.Contains(out.String(), "CALL") {
		t.Errorf("profile report incomplete:\n%s", out.String())
	}
}

func TestProfileTailCallSwapsFrame(t *testing.T) {
	// loop(n): n == 0 ? 99 : loop(n-1) via TCALL — the shadow stack must
	// stay one deep.
	m := New()
	sym := m.InternSym("ploop")
	fnIdx := addFn(t, m, "ploop", 1, 1, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: Mem(RegFP, -5)}),
		InstrItem(Instr{Op: OpJEQ, A: R(RegRTA), B: ImmInt(0), C: Lbl("done")}),
		InstrItem(Instr{Op: OpSUB, A: R(RegRTA), B: ImmInt(1)}),
		InstrItem(Instr{Op: OpMOVP, TagArg: int64(TagFixnum), A: R(RegA), B: Idx(RegRTA, 0, NoReg, 0)}),
		InstrItem(Instr{Op: OpPUSH, A: R(RegA)}),
		InstrItem(Instr{Op: OpTCALL, A: Imm(Ptr(TagSymbol, uint64(sym))), TagArg: 1}),
		LabelItem("done"),
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(99))}),
		InstrItem(Instr{Op: OpRET}),
	})
	m.SetSymbolFunction("ploop", Ptr(TagFunc, uint64(fnIdx)))
	p := m.EnableProfile()
	if _, err := m.CallFunction("ploop", FixnumWord(10)); err != nil {
		t.Fatal(err)
	}
	if p.FnCalls[fnIdx] != 11 {
		t.Errorf("FnCalls = %d, want 11", p.FnCalls[fnIdx])
	}
	var b strings.Builder
	m.WriteCollapsed(&b)
	for stack := range p.Collapsed() {
		if strings.Contains(stack, ";") {
			t.Errorf("tail recursion deepened the shadow stack: %q", stack)
		}
	}
}

func TestProfileReset(t *testing.T) {
	m := New()
	buildCounted(t, m)
	p := m.EnableProfile()
	if _, err := m.CallFunction("counted"); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	var instrs int64
	for op := 0; op < NumOps; op++ {
		instrs += p.OpCount[op]
	}
	if instrs != 0 || len(p.Collapsed()) != 0 || p.GCPauseCount != 0 {
		t.Errorf("Reset left data behind")
	}
	// Profiling still works after a reset.
	if _, err := m.CallFunction("counted"); err != nil {
		t.Fatal(err)
	}
	if p.OpCount[OpADD] != 1 {
		t.Errorf("profiling dead after Reset")
	}
}

func TestProfileGCPauses(t *testing.T) {
	m := New()
	m.EnableProfile()
	m.Cons(FixnumWord(1), NilWord)
	m.GC()
	p := m.Profile()
	if p.GCPauseCount != 1 {
		t.Errorf("GCPauseCount = %d, want 1", p.GCPauseCount)
	}
	if p.GCPauseTotal <= 0 {
		t.Errorf("GCPauseTotal = %v, want > 0", p.GCPauseTotal)
	}
}

func TestProfileDisabledByDefault(t *testing.T) {
	m := New()
	buildCounted(t, m)
	if _, err := m.CallFunction("counted"); err != nil {
		t.Fatal(err)
	}
	if m.Profile() != nil {
		t.Fatalf("profile enabled without EnableProfile")
	}
	var b strings.Builder
	m.WriteProfile(&b)
	if !strings.Contains(b.String(), "not enabled") {
		t.Errorf("disabled WriteProfile output: %q", b.String())
	}
}
