package s1

// Differential suite for tiered execution and mid-group landings
// (DESIGN.md §12). Every program runs under three engine configurations —
// default tiering, forced-hot tiering (every function lowered at
// install), and -notier (plain decoded dispatch, the reference) — and
// all three executions must be indistinguishable: same return word or
// error text, same Stats, same GC activity, the same heap image word for
// word, and the same -max-steps trip points. The dedicated mid-group
// programs aim control transfers (jump targets, catch handlers, call
// returns) into the interior of what the tier's basic-block lowering
// would otherwise cover with one block, pinning the identity
// back-mapping invariant.

import (
	"strings"
	"testing"
)

type tierConfig struct {
	name  string
	apply func(m *Machine)
}

// tierConfigs returns the engine configurations under test, the
// plain-dispatch reference last. apply runs before the program is
// installed so forced-hot promotion happens at AddFunction time, like
// core.NewSystem wiring would.
func tierConfigs() []tierConfig {
	return []tierConfig{
		{name: "tiered", apply: func(m *Machine) {}},
		{name: "forcehot", apply: func(m *Machine) { m.SetHotThreshold(0) }},
		{name: "notier", apply: func(m *Machine) { m.SetNoTier() }},
	}
}

// runTierConfig executes p on a fresh machine under cfg. Every run,
// failed ones included, must leave SP and FP inside the stack segment:
// the lowered blocks' inline stores and call caches are the stack paths
// the generic engine does not share.
func runTierConfig(t *testing.T, p diffProg, cfg tierConfig) (*Machine, Word, error) {
	t.Helper()
	m := New()
	cfg.apply(m)
	if p.stepLim > 0 {
		m.StepLimit = p.stepLim
	}
	if p.gcAt > 0 {
		m.SetGCThreshold(p.gcAt)
	}
	p.build(t, m)
	got, err := m.CallFunction(p.fn, p.args...)
	if ierr := m.CheckStackRegs(); ierr != nil {
		t.Errorf("%s: %v", cfg.name, ierr)
	}
	return m, got, err
}

// assertSameOutcome compares a run against the reference run.
func assertSameOutcome(t *testing.T, cfg string, p diffProg,
	rm *Machine, rw Word, rerr error, m *Machine, w Word, err error) {
	t.Helper()
	if (err == nil) != (rerr == nil) {
		t.Fatalf("%s: error divergence: got %v, reference %v", cfg, err, rerr)
	}
	if rerr != nil {
		if err.Error() != rerr.Error() {
			t.Errorf("%s: error text divergence:\n  got:       %v\n  reference: %v", cfg, err, rerr)
		}
	} else if w != rw {
		t.Errorf("%s: return divergence: got %s, reference %s", cfg, w, rw)
	}
	if m.Stats != rm.Stats {
		t.Errorf("%s: stats divergence:\n  got:       %+v\n  reference: %+v", cfg, m.Stats, rm.Stats)
	}
	if m.GCMeters != rm.GCMeters {
		t.Errorf("%s: GC divergence:\n  got:       %+v\n  reference: %+v", cfg, m.GCMeters, rm.GCMeters)
	}
	if len(m.heap) != len(rm.heap) {
		t.Fatalf("%s: heap extent divergence: got %d, reference %d", cfg, len(m.heap), len(rm.heap))
	}
	for i := range m.heap {
		if m.heap[i] != rm.heap[i] {
			t.Fatalf("%s: heap divergence at +%d: got %s, reference %s",
				cfg, i, m.heap[i], rm.heap[i])
		}
	}
}

// TestTierDifferentialCorpus runs the whole opcode-family corpus under
// every engine configuration against plain dispatch. deep-call (100
// recursive CALLs) and tail-loop (500 self-TCALLs) cross the default
// threshold mid-run, so re-optimizing a function live on the call stack
// is exercised here, not just forced promotion at install.
func TestTierDifferentialCorpus(t *testing.T) {
	for _, p := range diffCorpus() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			cfgs := tierConfigs()
			ref := cfgs[len(cfgs)-1] // notier
			rm, rw, rerr := runTierConfig(t, p, ref)
			for _, cfg := range cfgs[:len(cfgs)-1] {
				m, w, err := runTierConfig(t, p, cfg)
				assertSameOutcome(t, cfg.name, p, rm, rw, rerr, m, w, err)
			}
		})
	}
}

// midGroupCorpus holds programs whose control transfers land inside
// straight-line runs the tier would otherwise lower as one block.
func midGroupCorpus() []diffProg {
	return []diffProg{
		// A back-edge targeting the middle of a straight-line run: the
		// tier splits a block there.
		{name: "jump-mid-run", fn: "jmr",
			build: func(t *testing.T, m *Machine) {
				addFn(t, m, "jmr", 0, 0, []Item{
					InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: ImmInt(4)}),
					InstrItem(Instr{Op: OpMOV, A: R(10), B: ImmInt(0)}),
					InstrItem(Instr{Op: OpMOV, A: R(11), B: ImmInt(0)}),
					LabelItem("mid"),
					InstrItem(Instr{Op: OpMOV, A: R(12), B: ImmInt(1)}),
					InstrItem(Instr{Op: OpADD, A: R(10), B: R(12)}),
					InstrItem(Instr{Op: OpADD, A: R(11), B: ImmInt(2)}),
					InstrItem(Instr{Op: OpSUB, A: R(RegRTA), B: ImmInt(1)}),
					InstrItem(Instr{Op: OpJNE, A: R(RegRTA), B: ImmInt(0), C: Lbl("mid")}),
					InstrItem(Instr{Op: OpADD, A: R(10), B: R(11)}),
					InstrItem(Instr{Op: OpMOVP, TagArg: int64(TagFixnum), A: R(RegA), B: Idx(10, 0, NoReg, 0)}),
					InstrItem(Instr{Op: OpRET}),
				})
			}},

		// A THROW unwinding to a handler placed mid straight-line run.
		{name: "throw-mid-run", fn: "tmr",
			build: func(t *testing.T, m *Machine) {
				tagSym := Ptr(TagSymbol, uint64(m.InternSym("tag")))
				addFn(t, m, "tmr", 0, 0, []Item{
					InstrItem(Instr{Op: OpCATCH, A: Imm(tagSym), B: Lbl("handler")}),
					InstrItem(Instr{Op: OpMOV, A: R(10), B: ImmInt(1)}),
					InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(tagSym)}),
					InstrItem(Instr{Op: OpMOV, A: R(RegB), B: Imm(FixnumWord(21))}),
					InstrItem(Instr{Op: OpCALLSQ, TagArg: SQThrow}),
					// Straight-line run the handler label interrupts.
					InstrItem(Instr{Op: OpMOV, A: R(10), B: ImmInt(2)}),
					InstrItem(Instr{Op: OpMOV, A: R(11), B: ImmInt(3)}),
					LabelItem("handler"),
					InstrItem(Instr{Op: OpMOV, A: R(12), B: ImmInt(4)}),
					InstrItem(Instr{Op: OpRET}),
				})
			}},

		// A call whose return point sits before more straight-line code,
		// inside what an unsplit tiling would group.
		{name: "ret-mid-run", fn: "rmr", args: []Word{FixnumWord(20)},
			build: func(t *testing.T, m *Machine) {
				buildAdd2(t, m)
				addSym := m.InternSym("add2")
				m.SetSymbolFunction("add2", Ptr(TagFunc, uint64(m.FuncNamed("add2"))))
				addFn(t, m, "rmr", 1, 1, []Item{
					InstrItem(Instr{Op: OpMOV, A: R(10), B: Mem(RegFP, -5)}),
					InstrItem(Instr{Op: OpPUSH, A: R(10)}),
					InstrItem(Instr{Op: OpPUSH, A: Imm(FixnumWord(22))}),
					InstrItem(Instr{Op: OpCALL, A: Imm(Ptr(TagSymbol, uint64(addSym))), TagArg: 2}),
					InstrItem(Instr{Op: OpPOP, A: R(RegA)}),
					InstrItem(Instr{Op: OpMOV, A: R(11), B: R(RegA)}),
					InstrItem(Instr{Op: OpMOV, A: R(12), B: R(11)}),
					InstrItem(Instr{Op: OpMOV, A: R(RegA), B: R(12)}),
					InstrItem(Instr{Op: OpRET}),
				})
			}},
	}
}

func TestTierDifferentialMidGroupLandings(t *testing.T) {
	for _, p := range midGroupCorpus() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			cfgs := tierConfigs()
			ref := cfgs[len(cfgs)-1]
			rm, rw, rerr := runTierConfig(t, p, ref)
			for _, cfg := range cfgs[:len(cfgs)-1] {
				m, w, err := runTierConfig(t, p, cfg)
				assertSameOutcome(t, cfg.name, p, rm, rw, rerr, m, w, err)
			}
		})
	}
}

// stepLimitSpin is a spin loop whose body is one long straight-line
// block under tiering; the -max-steps sweep below must trip inside it
// at every possible offset.
func stepLimitSpin() diffProg {
	return diffProg{name: "spin-block", fn: "spin2", wantErr: "step limit",
		build: func(t *testing.T, m *Machine) {
			addFn(t, m, "spin2", 0, 0, []Item{
				LabelItem("top"),
				InstrItem(Instr{Op: OpMOV, A: R(10), B: ImmInt(1)}),
				InstrItem(Instr{Op: OpMOV, A: R(11), B: R(10)}),
				InstrItem(Instr{Op: OpADD, A: R(RegRTA), B: R(11)}),
				InstrItem(Instr{Op: OpMOV, A: R(12), B: ImmInt(2)}),
				InstrItem(Instr{Op: OpADD, A: R(12), B: ImmInt(3)}),
				InstrItem(Instr{Op: OpMOV, A: R(13), B: R(12)}),
				InstrItem(Instr{Op: OpJMP, A: Lbl("top")}),
			})
		}}
}

// TestTierDifferentialStepLimitSweep trips -max-steps at every offset
// within the lowered block: the retired-instruction count at the trip
// must equal the limit exactly under every configuration.
func TestTierDifferentialStepLimitSweep(t *testing.T) {
	for _, cfg := range tierConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for lim := int64(1); lim <= 29; lim++ {
				p := stepLimitSpin()
				p.stepLim = lim
				m, _, err := runTierConfig(t, p, cfg)
				if err == nil || !strings.Contains(err.Error(), "step limit") {
					t.Fatalf("limit %d: want step-limit error, got %v", lim, err)
				}
				if m.Stats.Instrs != lim {
					t.Errorf("limit %d: retired %d instructions at trip", lim, m.Stats.Instrs)
				}
			}
		})
	}
}

// TestTierReentrantPromotion drives a self-recursive function across its
// hot threshold mid-recursion: the function is re-optimized while its
// frames are live on the machine stack and on the tier shadow stack, and
// every outstanding return then lands in the re-fused code. The run must
// match the -notier reference exactly.
func TestTierReentrantPromotion(t *testing.T) {
	prog := diffProg{name: "deep-reentrant", fn: "deep", args: []Word{FixnumWord(150)}}
	for _, c := range diffCorpus() {
		if c.name == "deep-call" {
			prog.build = c.build
		}
	}
	ref, rw, rerr := runTierConfig(t, prog, tierConfig{name: "notier",
		apply: func(m *Machine) { m.SetNoTier() }})
	m, w, err := runTierConfig(t, prog, tierConfig{name: "threshold-7",
		apply: func(m *Machine) { m.SetHotThreshold(7) }})
	assertSameOutcome(t, "threshold-7", prog, ref, rw, rerr, m, w, err)
	if ts := m.TierStats(); ts.Promotions == 0 {
		t.Error("deep recursion never promoted; re-entrancy untested")
	}
}
