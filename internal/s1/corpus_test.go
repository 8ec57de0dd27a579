package s1

import (
	"testing"

	"repro/internal/sexp"
)

// The hand-built program corpus of the engine suite (engine_test.go).
// It covers each opcode family: straight-line arithmetic, conditional
// and unconditional jumps, calls, tail calls, SQ routines, closures,
// special binding, catch/throw unwinding, step-limit trips, and error
// paths.

// diffProg is one corpus program.
type diffProg struct {
	name string
	// build installs functions (and any heap constants) into m.
	build func(t *testing.T, m *Machine)
	fn    string
	args  []Word
	// stepLim/gcAt configure the machine before build.
	stepLim int64
	gcAt    int64
	// wantErr, when non-empty, is a substring the run error must carry;
	// empty means the run must succeed.
	wantErr string
}

// buildSpecialBind assembles f: bind *depth* (globally 0) to 42,
// find and read it, unbind, return; it returns *depth*'s index.
func buildSpecialBind(t *testing.T, m *Machine) int {
	sym := m.InternSym("*depth*")
	m.SetGlobal("*depth*", FixnumWord(0))
	addFn(t, m, "f", 0, 0, []Item{
		InstrItem(Instr{Op: OpSPECBIND, TagArg: int64(sym), A: Imm(FixnumWord(42))}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQSpecFind, B: ImmInt(int64(sym))}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQSpecRead}),
		InstrItem(Instr{Op: OpSPECUNBIND, TagArg: 1}),
		InstrItem(Instr{Op: OpRET}),
	})
	return sym
}

// buildCatch assembles c, which throws 41 to its own catch of out.
func buildCatch(t *testing.T, m *Machine) {
	tagSym := Ptr(TagSymbol, uint64(m.InternSym("out")))
	addFn(t, m, "c", 0, 0, []Item{
		InstrItem(Instr{Op: OpCATCH, A: Imm(tagSym), B: Lbl("handler")}),
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(tagSym)}),
		InstrItem(Instr{Op: OpMOV, A: R(RegB), B: Imm(FixnumWord(41))}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQThrow}),
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(0))}), // skipped
		LabelItem("handler"),
		InstrItem(Instr{Op: OpRET}),
	})
}

// buildUncaught assembles u, which throws with no catch.
func buildUncaught(t *testing.T, m *Machine) {
	addFn(t, m, "u", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(1))}),
		InstrItem(Instr{Op: OpMOV, A: R(RegB), B: Imm(FixnumWord(2))}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQThrow}),
		InstrItem(Instr{Op: OpRET}),
	})
}

// buildClosure assembles outer(n), which makes an environment {n},
// closes inner over it and calls the closure with 10; inner returns
// its environment slot 0 plus its argument.
func buildClosure(t *testing.T, m *Machine) {
	innerIdx := addFn(t, m, "inner", 1, 1, []Item{
		// env slot 0 at EP.addr+1; arg fixnum at FP-5.
		InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: Mem(RegEP, 1)}),
		InstrItem(Instr{Op: OpMOV, A: R(RegRTB), B: Mem(RegFP, -5)}),
		InstrItem(Instr{Op: OpADD, A: R(RegRTA), B: R(RegRTB)}), // add fixnum bits
		InstrItem(Instr{Op: OpMOVP, TagArg: int64(TagFixnum), A: R(RegA), B: Idx(RegRTA, 0, NoReg, 0)}),
		InstrItem(Instr{Op: OpRET}),
	})
	addFn(t, m, "outer", 1, 1, []Item{
		InstrItem(Instr{Op: OpENV, A: R(10), B: Imm(NilWord), TagArg: 1}),
		InstrItem(Instr{Op: OpMOV, A: Idx(10, 1, NoReg, 0), B: Mem(RegFP, -5)}),
		InstrItem(Instr{Op: OpCLOSE, A: R(11), B: R(10), TagArg: int64(innerIdx)}),
		InstrItem(Instr{Op: OpPUSH, A: Imm(FixnumWord(10))}),
		InstrItem(Instr{Op: OpCALL, A: R(11), TagArg: 1}),
		InstrItem(Instr{Op: OpPOP, A: R(RegA)}),
		InstrItem(Instr{Op: OpRET}),
	})
}

// buildRestify assembles f(a, &rest r), which returns r.
func buildRestify(t *testing.T, m *Machine) {
	addFn(t, m, "f", 1, -1, []Item{
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQRestify, B: ImmInt(1)}),
		// Normalized layout: args at FP-4-2+i → a at FP-6, rest at FP-5.
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Mem(RegFP, -5)}),
		InstrItem(Instr{Op: OpRET}),
	})
}

// buildApplyList assembles ap, which applies add2 to the list (40 2).
func buildApplyList(t *testing.T, m *Machine) {
	buildAdd2(t, m)
	addIdx := m.FuncNamed("add2")
	lst := m.Cons(FixnumWord(40), m.Cons(FixnumWord(2), NilWord))
	addFn(t, m, "ap", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(Ptr(TagFunc, uint64(addIdx)))}),
		InstrItem(Instr{Op: OpMOV, A: R(RegB), B: Imm(lst)}),
		InstrItem(Instr{Op: OpCALLSQ, TagArg: SQApplyList}),
		InstrItem(Instr{Op: OpPOP, A: R(RegA)}),
		InstrItem(Instr{Op: OpRET}),
	})
}

// buildDeep assembles deep(n): n == 0 ? 0 : deep(n-1) through a real
// CALL, so each level keeps its frame; it returns deep's index.
func buildDeep(t *testing.T, m *Machine) int {
	sym := m.InternSym("deep")
	fnIdx := addFn(t, m, "deep", 1, 1, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: Mem(RegFP, -5)}),
		InstrItem(Instr{Op: OpJEQ, A: R(RegRTA), B: ImmInt(0), C: Lbl("base")}),
		InstrItem(Instr{Op: OpSUB, A: R(RegRTA), B: ImmInt(1)}),
		InstrItem(Instr{Op: OpMOVP, TagArg: int64(TagFixnum), A: R(RegA), B: Idx(RegRTA, 0, NoReg, 0)}),
		InstrItem(Instr{Op: OpPUSH, A: R(RegA)}),
		InstrItem(Instr{Op: OpCALL, A: Imm(Ptr(TagSymbol, uint64(sym))), TagArg: 1}),
		InstrItem(Instr{Op: OpPOP, A: R(RegA)}),
		InstrItem(Instr{Op: OpRET}),
		LabelItem("base"),
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(0))}),
		InstrItem(Instr{Op: OpRET}),
	})
	m.SetSymbolFunction("deep", Ptr(TagFunc, uint64(fnIdx)))
	return fnIdx
}

func diffCorpus() []diffProg {
	return []diffProg{
		{name: "fixnum-arith", fn: "add2",
			args:  []Word{FixnumWord(30), FixnumWord(12)},
			build: func(t *testing.T, m *Machine) { buildAdd2(t, m) }},

		{name: "tail-loop", fn: "loop", args: []Word{FixnumWord(500)}, build: buildCountLoop},

		{name: "deep-call", fn: "deep", args: []Word{FixnumWord(100)},
			build: func(t *testing.T, m *Machine) { buildDeep(t, m) }},

		{name: "float-chain", fn: "f",
			build: func(t *testing.T, m *Machine) {
				addFn(t, m, "f", 0, 0, []Item{
					InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: Imm(RawFloat(3.0))}),
					InstrItem(Instr{Op: OpFMULT, A: R(RegRTA), B: Imm(RawFloat(4.0))}),
					InstrItem(Instr{Op: OpFADD, A: R(RegRTA), B: Imm(RawFloat(0.25))}),
					InstrItem(Instr{Op: OpFSQRT, A: R(RegRTA), B: R(RegRTA)}),
					InstrItem(Instr{Op: OpFSIN, A: R(RegRTB), B: R(RegRTA)}),
					InstrItem(Instr{Op: OpMOV, A: R(RegA), B: R(RegRTA)}),
					InstrItem(Instr{Op: OpCALLSQ, TagArg: SQFlonumCons}),
					InstrItem(Instr{Op: OpRET}),
				})
			}},

		{name: "sq-generic-mixed", fn: "g",
			args: []Word{FixnumWord(40), FixnumWord(2)},
			build: func(t *testing.T, m *Machine) {
				fl := m.ConsFlonum(0.5)
				addFn(t, m, "g", 2, 2, []Item{
					InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Mem(RegFP, -6)}),
					InstrItem(Instr{Op: OpMOV, A: R(RegB), B: Mem(RegFP, -5)}),
					InstrItem(Instr{Op: OpCALLSQ, TagArg: SQAdd}),
					// Contaminate: (40+2) + 0.5 through the generic path.
					InstrItem(Instr{Op: OpMOV, A: R(RegB), B: Imm(fl)}),
					InstrItem(Instr{Op: OpCALLSQ, TagArg: SQAdd}),
					InstrItem(Instr{Op: OpRET}),
				})
			}},

		{name: "cons-gc-churn", fn: "churn", args: []Word{FixnumWord(40)},
			gcAt: 64,
			build: func(t *testing.T, m *Machine) {
				// churn(n): build an n-cons list, dropping it each
				// iteration so the threshold collector runs repeatedly.
				addFn(t, m, "churn", 1, 1, []Item{
					InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: Mem(RegFP, -5)}),
					InstrItem(Instr{Op: OpMOV, A: R(RegB), B: Imm(NilWord)}),
					LabelItem("top"),
					InstrItem(Instr{Op: OpJEQ, A: R(RegRTA), B: ImmInt(0), C: Lbl("done")}),
					InstrItem(Instr{Op: OpMOVP, TagArg: int64(TagFixnum), A: R(RegA), B: Idx(RegRTA, 0, NoReg, 0)}),
					InstrItem(Instr{Op: OpCALLSQ, TagArg: SQCons}),
					InstrItem(Instr{Op: OpMOV, A: R(RegB), B: R(RegA)}),
					InstrItem(Instr{Op: OpSUB, A: R(RegRTA), B: ImmInt(1)}),
					InstrItem(Instr{Op: OpJMP, A: Lbl("top")}),
					LabelItem("done"),
					InstrItem(Instr{Op: OpMOV, A: R(RegA), B: R(RegB)}),
					InstrItem(Instr{Op: OpRET}),
				})
			}},

		{name: "special-binding", fn: "f",
			build: func(t *testing.T, m *Machine) { buildSpecialBind(t, m) }},

		{name: "catch-throw", fn: "c", build: buildCatch},

		{name: "uncaught-throw", fn: "u", wantErr: "uncaught", build: buildUncaught},

		{name: "closure", fn: "outer", args: []Word{FixnumWord(32)}, build: buildClosure},

		{name: "restify", fn: "f",
			args: []Word{FixnumWord(1), FixnumWord(2), FixnumWord(3)}, build: buildRestify},

		{name: "apply-list", fn: "ap", build: buildApplyList},

		{name: "indexed-addressing", fn: "el", args: []Word{FixnumWord(2)},
			build: func(t *testing.T, m *Machine) {
				fa := m.FromValue(diffFloatArray())
				dataBase := int64(fa.Bits + 2)
				addFn(t, m, "el", 1, 1, []Item{
					InstrItem(Instr{Op: OpMOV, A: R(RegRTB), B: Mem(RegFP, -5)}),
					InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Idx(NoReg, dataBase, RegRTB, 0)}),
					InstrItem(Instr{Op: OpCALLSQ, TagArg: SQFlonumCons}),
					InstrItem(Instr{Op: OpRET}),
				})
			}},

		// The step limit must trip at exactly the limit's instruction
		// count.
		{name: "step-limit", fn: "spin", stepLim: 1000, wantErr: "step limit",
			build: func(t *testing.T, m *Machine) {
				addFn(t, m, "spin", 0, 0, []Item{
					LabelItem("top"),
					InstrItem(Instr{Op: OpMOV, A: R(10), B: ImmInt(1)}),
					InstrItem(Instr{Op: OpMOV, A: R(11), B: R(10)}),
					InstrItem(Instr{Op: OpADD, A: R(RegRTA), B: R(11)}),
					InstrItem(Instr{Op: OpJMP, A: Lbl("top")}),
				})
			}},

		{name: "division-by-zero", fn: "d", wantErr: "division by zero",
			build: func(t *testing.T, m *Machine) {
				addFn(t, m, "d", 0, 0, []Item{
					InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: ImmInt(5)}),
					InstrItem(Instr{Op: OpDIV, A: R(RegRTA), B: ImmInt(0)}),
					InstrItem(Instr{Op: OpRET}),
				})
			}},
	}
}

// diffFloatArray is the indexed-addressing program's constant.
func diffFloatArray() *sexp.FloatArray {
	return &sexp.FloatArray{Dims: []int{3}, Data: []float64{1.5, 2.5, 3.5}}
}
