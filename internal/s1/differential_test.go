package s1

import (
	"strings"
	"testing"

	"repro/internal/sexp"
)

// Differential suite for the decoded execution engine: every corpus
// program runs fused — each function's basic blocks lowered into the
// tier's block superinstructions at install (forced-hot tiering) — and
// unfused (plain decoded dispatch, -notier), and the two executions must
// be indistinguishable: same return word, same error, same Stats
// (instruction counts in original-PC units, cycle totals, allocation
// meters, stack high water), same GC activity, and the same heap image
// word for word. The corpus covers each opcode family: straight-line
// arithmetic, conditional and unconditional jumps, calls, tail calls, SQ
// routines, closures, special binding, catch/throw unwinding, step-limit
// trips, and error paths. tier_differential_test.go runs the same corpus
// under every engine configuration.

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

func diffCorpus() []diffProg {
	return []diffProg{
		{name: "fixnum-arith", fn: "add2",
			args:  []Word{FixnumWord(30), FixnumWord(12)},
			build: func(t *testing.T, m *Machine) { buildAdd2(t, m) }},

		{name: "tail-loop", fn: "loop", args: []Word{FixnumWord(500)},
			build: func(t *testing.T, m *Machine) {
				idx := m.InternSym("loop")
				fnIdx := addFn(t, m, "loop", 1, 1, []Item{
					InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: Mem(RegFP, -5)}),
					InstrItem(Instr{Op: OpJEQ, A: R(RegRTA), B: ImmInt(0), C: Lbl("done")}),
					InstrItem(Instr{Op: OpSUB, A: R(RegRTA), B: ImmInt(1)}),
					InstrItem(Instr{Op: OpMOVP, TagArg: int64(TagFixnum), A: R(RegA), B: Idx(RegRTA, 0, NoReg, 0)}),
					InstrItem(Instr{Op: OpPUSH, A: R(RegA)}),
					InstrItem(Instr{Op: OpTCALL, A: Imm(Ptr(TagSymbol, uint64(idx))), TagArg: 1}),
					LabelItem("done"),
					InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(99))}),
					InstrItem(Instr{Op: OpRET}),
				})
				m.SetSymbolFunction("loop", Ptr(TagFunc, uint64(fnIdx)))
			}},

		{name: "deep-call", fn: "deep", args: []Word{FixnumWord(100)},
			build: func(t *testing.T, m *Machine) {
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
			}},

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
			build: func(t *testing.T, m *Machine) {
				sym := m.InternSym("*depth*")
				m.SetGlobal("*depth*", FixnumWord(0))
				addFn(t, m, "f", 0, 0, []Item{
					InstrItem(Instr{Op: OpSPECBIND, TagArg: int64(sym), A: Imm(FixnumWord(42))}),
					InstrItem(Instr{Op: OpCALLSQ, TagArg: SQSpecFind, B: ImmInt(int64(sym))}),
					InstrItem(Instr{Op: OpCALLSQ, TagArg: SQSpecRead}),
					InstrItem(Instr{Op: OpSPECUNBIND, TagArg: 1}),
					InstrItem(Instr{Op: OpRET}),
				})
			}},

		{name: "catch-throw", fn: "c",
			build: func(t *testing.T, m *Machine) {
				tagSym := Ptr(TagSymbol, uint64(m.InternSym("out")))
				addFn(t, m, "c", 0, 0, []Item{
					InstrItem(Instr{Op: OpCATCH, A: Imm(tagSym), B: Lbl("handler")}),
					InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(tagSym)}),
					InstrItem(Instr{Op: OpMOV, A: R(RegB), B: Imm(FixnumWord(41))}),
					InstrItem(Instr{Op: OpCALLSQ, TagArg: SQThrow}),
					InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(0))}),
					LabelItem("handler"),
					InstrItem(Instr{Op: OpRET}),
				})
			}},

		{name: "uncaught-throw", fn: "u", wantErr: "uncaught",
			build: func(t *testing.T, m *Machine) {
				addFn(t, m, "u", 0, 0, []Item{
					InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(1))}),
					InstrItem(Instr{Op: OpMOV, A: R(RegB), B: Imm(FixnumWord(2))}),
					InstrItem(Instr{Op: OpCALLSQ, TagArg: SQThrow}),
					InstrItem(Instr{Op: OpRET}),
				})
			}},

		{name: "closure", fn: "outer", args: []Word{FixnumWord(32)},
			build: func(t *testing.T, m *Machine) {
				innerIdx := addFn(t, m, "inner", 1, 1, []Item{
					InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: Mem(RegEP, 1)}),
					InstrItem(Instr{Op: OpMOV, A: R(RegRTB), B: Mem(RegFP, -5)}),
					InstrItem(Instr{Op: OpADD, A: R(RegRTA), B: R(RegRTB)}),
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
			}},

		{name: "restify", fn: "f",
			args: []Word{FixnumWord(1), FixnumWord(2), FixnumWord(3)},
			build: func(t *testing.T, m *Machine) {
				addFn(t, m, "f", 1, -1, []Item{
					InstrItem(Instr{Op: OpCALLSQ, TagArg: SQRestify, B: ImmInt(1)}),
					InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Mem(RegFP, -5)}),
					InstrItem(Instr{Op: OpRET}),
				})
			}},

		{name: "apply-list", fn: "ap",
			build: func(t *testing.T, m *Machine) {
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
			}},

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

		// The step limit must trip at the same original-instruction count
		// whether or not the spin loop was lowered into a block.
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

// diffFloatArray is shared between the two machines of a differential
// run so both embed identical constants.
func diffFloatArray() *sexp.FloatArray {
	return &sexp.FloatArray{Dims: []int{3}, Data: []float64{1.5, 2.5, 3.5}}
}

// fusedConfig lowers every function into block superinstructions at
// install; unfusedConfig is plain decoded dispatch.
var (
	fusedConfig   = tierConfig{name: "fused", apply: func(m *Machine) { m.SetHotThreshold(0) }}
	unfusedConfig = tierConfig{name: "unfused", apply: func(m *Machine) { m.SetNoTier() }}
)

func TestDifferentialFusedVsUnfused(t *testing.T) {
	anyFused := false
	for _, p := range diffCorpus() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			fm, fw, ferr := runTierConfig(t, p, fusedConfig)
			um, uw, uerr := runTierConfig(t, p, unfusedConfig)

			if fm.TierStats().LoweredBlocks > 0 {
				anyFused = true
			}
			if ts := um.TierStats(); ts.Promotions != 0 || ts.LoweredBlocks != 0 {
				t.Errorf("unfused machine lowered %d blocks", ts.LoweredBlocks)
			}

			// The unfused run must meet the program's expectation, so the
			// differential cannot pass by both engines going wrong alike.
			if p.wantErr == "" {
				if uerr != nil {
					t.Fatalf("run failed: %v", uerr)
				}
			} else if uerr == nil || !strings.Contains(uerr.Error(), p.wantErr) {
				t.Fatalf("want error %q, got %v", p.wantErr, uerr)
			}
			if p.name == "cons-gc-churn" &&
				um.GCMeters.Collections+um.GCMeters.MinorCollections == 0 {
				t.Error("churn program never collected; GC path untested")
			}
			assertSameOutcome(t, "fused", p, um, uw, uerr, fm, fw, ferr)
		})
	}
	if !anyFused {
		t.Error("no corpus program lowered a block; the differential is vacuous")
	}
}

// TestDifferentialStepLimitExact pins the step-limit trip point: the
// fused spin loop must retire exactly StepLimit original instructions
// before erroring, matching unfused dispatch instruction for instruction.
func TestDifferentialStepLimitExact(t *testing.T) {
	var p diffProg
	for _, c := range diffCorpus() {
		if c.name == "step-limit" {
			p = c
		}
	}
	for _, cfg := range []tierConfig{fusedConfig, unfusedConfig} {
		m, _, err := runTierConfig(t, p, cfg)
		if err == nil || !strings.Contains(err.Error(), "step limit") {
			t.Fatalf("%s: want step-limit error, got %v", cfg.name, err)
		}
		if m.Stats.Instrs != p.stepLim {
			t.Errorf("%s: retired %d instructions at trip, want exactly %d",
				cfg.name, m.Stats.Instrs, p.stepLim)
		}
	}
}
