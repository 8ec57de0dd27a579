package s1

// The engine suite. Every hand-built program runs on a fresh machine and
// its outcome — the result word or error text, Stats, the GC meters and
// the image fingerprint (code, heap, registers, live stack) — must match
// testdata/engine_outcomes.golden byte for byte. The file was recorded
// from the plain decoded-dispatch engine the lowered one replaced, in
// which every instruction ran as its own closure; that engine, the
// default tiered one and the forced-hot one all agreed on it. The
// landing programs aim control transfers (jump targets, catch handlers,
// call and primitive-gateway returns) into the middle of straight-line
// runs. Step-limit sweeps trip -max-steps at every offset of a loop
// body and at every instruction of the landing programs and of small
// calling, tail-calling, binding, closure and catch programs (one line
// per trip point). Each program also runs fused and unfused — its
// instructions in their lowered fast forms, and all through step's
// generic operand path — and the two runs must agree.

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

const engineOutcomesGolden = "testdata/engine_outcomes.golden"

// landingCorpus holds programs whose control transfers land inside
// straight-line runs.
func landingCorpus() []diffProg {
	return []diffProg{
		// A back-edge targeting the middle of a straight-line run.
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
					InstrItem(Instr{Op: OpMOV, A: R(10), B: ImmInt(2)}),
					InstrItem(Instr{Op: OpMOV, A: R(11), B: ImmInt(3)}),
					LabelItem("handler"),
					InstrItem(Instr{Op: OpMOV, A: R(12), B: ImmInt(4)}),
					InstrItem(Instr{Op: OpRET}),
				})
			}},

		// A call whose return point sits before more straight-line code.
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

		// A THROW whose handler sits inside a loop body: each iteration
		// catches its own throw and goes round again.
		{name: "throw-into-loop", fn: "til",
			build: func(t *testing.T, m *Machine) {
				tagSym := Ptr(TagSymbol, uint64(m.InternSym("again")))
				addFn(t, m, "til", 0, 0, []Item{
					InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: ImmInt(3)}),
					InstrItem(Instr{Op: OpMOV, A: R(10), B: ImmInt(0)}),
					LabelItem("top"),
					InstrItem(Instr{Op: OpCATCH, A: Imm(tagSym), B: Lbl("handler")}),
					InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(tagSym)}),
					InstrItem(Instr{Op: OpMOV, A: R(RegB), B: Imm(FixnumWord(5))}),
					InstrItem(Instr{Op: OpCALLSQ, TagArg: SQThrow}),
					InstrItem(Instr{Op: OpMOV, A: R(10), B: ImmInt(100)}),
					LabelItem("handler"),
					InstrItem(Instr{Op: OpADD, A: R(10), B: ImmInt(1)}),
					InstrItem(Instr{Op: OpSUB, A: R(RegRTA), B: ImmInt(1)}),
					InstrItem(Instr{Op: OpJNE, A: R(RegRTA), B: ImmInt(0), C: Lbl("top")}),
					InstrItem(Instr{Op: OpMOVP, TagArg: int64(TagFixnum), A: R(RegA), B: Idx(10, 0, NoReg, 0)}),
					InstrItem(Instr{Op: OpRET}),
				})
			}},

		// A *:SQ-PRIMITIVE gateway whose primitive a compiled definition
		// shadows: the definition's return (a negative, gateway return
		// address) lands mid straight-line run with the caller's
		// registers restored.
		{name: "gateway-return-mid-run", fn: "gw",
			build: func(t *testing.T, m *Machine) {
				sym := m.InternSym("oddp")
				def := addFn(t, m, "my-oddp", 1, 1, []Item{
					InstrItem(Instr{Op: OpMOV, A: R(RegRTA), B: Mem(RegFP, -5)}),
					InstrItem(Instr{Op: OpMOV, A: R(10), B: ImmInt(-1)}),
					InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(77))}),
					InstrItem(Instr{Op: OpRET}),
				})
				m.SetSymbolFunction("oddp", Ptr(TagFunc, uint64(def)))
				addFn(t, m, "gw", 0, 0, []Item{
					InstrItem(Instr{Op: OpMOV, A: R(10), B: ImmInt(9)}),
					InstrItem(Instr{Op: OpPUSH, A: Imm(FixnumWord(7))}),
					InstrItem(Instr{Op: OpCALLSQ, TagArg: SQPrim, B: ImmInt(int64(sym)), C: ImmInt(1)}),
					InstrItem(Instr{Op: OpMOV, A: R(11), B: R(RegA)}),
					InstrItem(Instr{Op: OpMOV, A: R(12), B: R(11)}),
					InstrItem(Instr{Op: OpADD, A: R(12), B: R(10)}),
					InstrItem(Instr{Op: OpMOV, A: R(RegA), B: R(11)}),
					InstrItem(Instr{Op: OpRET}),
				})
			}},
	}
}

// stepLimitSpin is a spin loop with a seven-instruction body; the sweep
// trips -max-steps at every offset within it.
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

// engineOutcomePrograms lists the golden file's programs in its order:
// the corpus, the landing programs, a 150-deep recursion, and the
// step-limit sweep.
func engineOutcomePrograms() []diffProg {
	progs := append(diffCorpus(), landingCorpus()...)
	progs = append(progs, deepCall150())
	return append(progs, stepLimitSweep()...)
}

// deepCall150 is the deep-call program recursing 150 deep.
func deepCall150() diffProg {
	deep := diffProg{name: "deep-call/150", fn: "deep", args: []Word{FixnumWord(150)}}
	for _, c := range diffCorpus() {
		if c.name == "deep-call" {
			deep.build = c.build
		}
	}
	return deep
}

// stepLimitSweep is the spin loop under every -max-steps limit from 1
// to 29: each offset of its body, four times over.
func stepLimitSweep() []diffProg {
	var progs []diffProg
	for lim := int64(1); lim <= 29; lim++ {
		p := stepLimitSpin()
		p.name = fmt.Sprintf("spin-block/max-steps=%d", lim)
		p.stepLim = lim
		progs = append(progs, p)
	}
	return progs
}

// sweepPrograms are the programs swept at every instruction: few
// enough instructions each to keep the golden file small.
func sweepPrograms() []diffProg {
	progs := landingCorpus()
	for _, c := range diffCorpus() {
		switch c.name {
		case "deep-call", "tail-loop":
			c.args = []Word{FixnumWord(3)}
			progs = append(progs, c)
		case "special-binding", "closure", "restify", "apply-list", "catch-throw":
			progs = append(progs, c)
		}
	}
	return progs
}

// runProg executes p on a fresh machine, profiled when profile is set.
// Every run, failed ones included, must leave SP and FP inside the
// stack segment.
func runProg(t *testing.T, p diffProg, profile bool) (*Machine, Word, error) {
	t.Helper()
	m := New()
	if profile {
		m.EnableProfile()
	}
	if p.stepLim > 0 {
		m.StepLimit = p.stepLim
	}
	if p.gcAt > 0 {
		m.SetGCThreshold(p.gcAt)
	}
	p.build(t, m)
	got, err := m.CallFunction(p.fn, p.args...)
	if ierr := m.CheckStackRegs(); ierr != nil {
		t.Errorf("%s: %v", p.name, ierr)
	}
	return m, got, err
}

// checkExpectation fails the test unless a run of p meets p's own
// expectation, so no golden outcome and no differential can pass by
// being wrong alike.
func checkExpectation(t *testing.T, p diffProg, m *Machine, err error) {
	t.Helper()
	if p.wantErr == "" && err != nil {
		t.Errorf("%s: %v", p.name, err)
	} else if p.wantErr != "" && (err == nil || !strings.Contains(err.Error(), p.wantErr)) {
		t.Errorf("%s: want error %q, got %v", p.name, p.wantErr, err)
	}
	if p.stepLim > 0 && m.Stats.Instrs != p.stepLim {
		t.Errorf("%s: retired %d instructions at the trip, want exactly %d", p.name, m.Stats.Instrs, p.stepLim)
	}
	if p.gcAt > 0 && m.GCMeters.Collections+m.GCMeters.MinorCollections == 0 {
		t.Errorf("%s never collected; the GC path is untested", p.name)
	}
}

// outcomeSection formats a run of p as its section of the golden file.
func outcomeSection(p diffProg, m *Machine, w Word, err error) string {
	out := fmt.Sprintf("result: %s", w)
	if err != nil {
		out = fmt.Sprintf("error: %v", err)
	}
	return fmt.Sprintf("== %s\n%s\nstats: %+v\ngc: %+v\nimage: %s\n",
		p.name, out, m.Stats, m.GCMeters, m.ImageFingerprint())
}

// checkGoldenOutcome runs p, checks its expectation, and compares its
// outcome with p's section of the golden file, which the plain
// decoded-dispatch engine recorded.
func checkGoldenOutcome(t *testing.T, p diffProg) {
	t.Helper()
	raw, err := os.ReadFile(engineOutcomesGolden)
	if err != nil {
		t.Fatal(err)
	}
	head := "== " + p.name + "\n"
	i := strings.Index(string(raw), head)
	if i < 0 {
		t.Fatalf("%s has no section %q", engineOutcomesGolden, p.name)
	}
	// A section is five lines: the header, the result, the stats, the
	// GC meters and the image.
	lines := strings.SplitAfterN(string(raw[i:]), "\n", 6)
	want := strings.Join(lines[:min(5, len(lines))], "")
	m, w, err := runProg(t, p, false)
	checkExpectation(t, p, m, err)
	if got := outcomeSection(p, m, w, err); got != want {
		t.Errorf("outcome differs from the recorded one:\n  got:\n%s  want:\n%s", got, want)
	}
}

// TestEngineOutcomesGolden runs every program, and sweeps the sweep
// programs, and compares the outcomes with the golden file byte for
// byte.
func TestEngineOutcomesGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range engineOutcomePrograms() {
		m, w, err := runProg(t, p, false)
		b.WriteString(outcomeSection(p, m, w, err))
	}
	for _, p := range sweepPrograms() {
		full, _, err := runProg(t, p, false)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for lim := int64(1); lim <= full.Stats.Instrs; lim++ {
			p.stepLim = lim
			m, w, err := runProg(t, p, false)
			if lim < full.Stats.Instrs && m.Stats.Instrs != lim {
				t.Errorf("%s: retired %d instructions at the trip, want exactly %d", p.name, m.Stats.Instrs, lim)
			}
			out := "result " + w.String()
			if err != nil {
				out = "error " + err.Error()
			}
			fmt.Fprintf(&b, "%s max-steps=%d: %s %v %v %s\n", p.name, lim, out, m.Stats, m.GCMeters, m.ImageFingerprint())
		}
	}
	raw, err := os.ReadFile(engineOutcomesGolden)
	if err != nil {
		t.Fatal(err)
	}
	got, want := strings.Split(b.String(), "\n"), strings.Split(string(raw), "\n")
	for i := range max(len(got), len(want)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n  got:  %s\n  want: %s", engineOutcomesGolden, i+1, g, w)
		}
	}
}

// TestTierDifferentialCorpus runs the whole opcode-family corpus and
// compares each outcome with the one the plain decoded-dispatch engine
// recorded. deep-call (100 recursive CALLs) and tail-loop (500
// self-TCALLs) return through and re-enter the same lowered code at
// every level.
func TestTierDifferentialCorpus(t *testing.T) {
	for _, p := range diffCorpus() {
		t.Run(p.name, func(t *testing.T) { checkGoldenOutcome(t, p) })
	}
}

// TestTierDifferentialMidGroupLandings runs the landing programs, whose
// control transfers land in the middle of straight-line runs, against
// their recorded outcomes.
func TestTierDifferentialMidGroupLandings(t *testing.T) {
	for _, p := range landingCorpus() {
		t.Run(p.name, func(t *testing.T) { checkGoldenOutcome(t, p) })
	}
}

// TestTierDifferentialStepLimitSweep trips -max-steps at every offset
// within the spin loop's body: the retired-instruction count at the
// trip must equal the limit exactly, and the outcome the recorded one.
func TestTierDifferentialStepLimitSweep(t *testing.T) {
	for _, p := range stepLimitSweep() {
		checkGoldenOutcome(t, p)
	}
}

// TestTierReentrantPromotion runs deep-call 150 deep, the recursion
// the tiered engine once re-optimized while its frames were live: every
// outstanding return lands in the middle of the function's lowered
// code. The outcome must be the recorded one.
func TestTierReentrantPromotion(t *testing.T) {
	checkGoldenOutcome(t, deepCall150())
}

// assertSameOutcome compares a run against the reference run: return
// word or error text, Stats, GC meters, and the heap word for word.
func assertSameOutcome(t *testing.T, cfg string,
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

// TestDifferentialFusedVsUnfused runs every corpus and landing program
// fused — each lop in the fast form its lowering selected — and
// unfused, under the profiler, which runs every lop through exec, so
// that each instruction with a fast form goes through step's generic
// operand path instead. The two runs must be indistinguishable: same
// return word or error text, same Stats, same GC activity, and the same
// heap word for word.
func TestDifferentialFusedVsUnfused(t *testing.T) {
	for _, p := range append(diffCorpus(), landingCorpus()...) {
		t.Run(p.name, func(t *testing.T) {
			fm, fw, ferr := runProg(t, p, false)
			um, uw, uerr := runProg(t, p, true)
			checkExpectation(t, p, um, uerr)
			if p.name == "cons-gc-churn" &&
				um.GCMeters.Collections+um.GCMeters.MinorCollections == 0 {
				t.Error("churn program never collected; GC path untested")
			}
			assertSameOutcome(t, "fused", um, uw, uerr, fm, fw, ferr)
		})
	}
}

// TestDifferentialStepLimitExact pins the step-limit trip point: the
// spin loop must retire exactly StepLimit instructions before erroring,
// fused and unfused alike.
func TestDifferentialStepLimitExact(t *testing.T) {
	var p diffProg
	for _, c := range diffCorpus() {
		if c.name == "step-limit" {
			p = c
		}
	}
	for _, profile := range []bool{false, true} {
		m, _, err := runProg(t, p, profile)
		if err == nil || !strings.Contains(err.Error(), "step limit") {
			t.Fatalf("profile=%v: want step-limit error, got %v", profile, err)
		}
		if m.Stats.Instrs != p.stepLim {
			t.Errorf("profile=%v: retired %d instructions at trip, want exactly %d",
				profile, m.Stats.Instrs, p.stepLim)
		}
	}
}

// TestTierForcedHot: every function is lowered when it is installed,
// before its first call, as forced-hot tiering once did for some: the
// stream covers the code and is its exact lowering.
func TestTierForcedHot(t *testing.T) {
	m := New()
	buildAdd2(t, m)
	if ts := m.TierStats(); ts.LoweredInstrs != int64(len(m.Code)) {
		t.Fatalf("install lowered %d of %d instructions", ts.LoweredInstrs, len(m.Code))
	}
	if err := m.CheckLoweredPristine(0, len(m.Code)); err != nil {
		t.Fatal(err)
	}
	got, err := m.CallFunction("add2", FixnumWord(30), FixnumWord(12))
	if err != nil || got.Int() != 42 {
		t.Fatalf("add2 = %s, %v", got, err)
	}
}

// TestTierPromotionThreshold: calls past DefaultHotThreshold, the
// deprecated promotion threshold, change nothing: the stream stays the
// one lowered at install, and TierStats reports no promotion.
func TestTierPromotionThreshold(t *testing.T) {
	m := New()
	buildAdd2(t, m)
	for i := 0; i <= DefaultHotThreshold; i++ {
		got, err := m.CallFunction("add2", FixnumWord(30), FixnumWord(12))
		if err != nil || got.Int() != 42 {
			t.Fatalf("call %d: add2 = %s, %v", i, got, err)
		}
	}
	if err := m.CheckLoweredPristine(0, len(m.Code)); err != nil {
		t.Error(err)
	}
	if ts := m.TierStats(); ts.Promotions != 0 || ts.Refusions != 0 {
		t.Errorf("tier stats report promotion: %+v", ts)
	}
}

// TestTierLandingRefusion: control transfers that land in the middle of
// a straight-line run — a back-edge, a catch handler, a throw into a
// loop — need no re-fusion: the stream of a program without call sites
// comes out of the run exactly as it was lowered.
func TestTierLandingRefusion(t *testing.T) {
	for _, p := range landingCorpus() {
		switch p.name {
		case "jump-mid-run", "throw-mid-run", "throw-into-loop":
		default:
			continue
		}
		m, _, err := runProg(t, p, false)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if err := m.CheckLoweredPristine(0, len(m.Code)); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
		if ts := m.TierStats(); ts.Refusions != 0 {
			t.Errorf("%s: tier stats report a re-fusion: %+v", p.name, ts)
		}
	}
}

// TestTierStatsDisabled: the deprecated promotion counters of TierStats
// read zero, on a fresh machine and after runs that fill and refill
// inline caches, while CacheFills follows Machine.CacheFills.
func TestTierStatsDisabled(t *testing.T) {
	m := New()
	if ts := m.TierStats(); ts.Promotions != 0 || ts.Refusions != 0 || ts.CacheFills != 0 {
		t.Errorf("fresh machine tier stats: %+v", ts)
	}
	f1, f2 := buildPolyCaller(t, m)
	for _, f := range []int{f1, f2} {
		m.SetSymbolFunction("poly", Ptr(TagFunc, uint64(f)))
		if _, err := m.CallFunction("g"); err != nil {
			t.Fatal(err)
		}
	}
	ts := m.TierStats()
	if ts.Promotions != 0 || ts.Refusions != 0 {
		t.Errorf("tier stats report promotion: %+v", ts)
	}
	if ts.CacheFills != m.CacheFills() || ts.CacheFills != 2 {
		t.Errorf("tier stats cache fills %d, machine %d, want 2", ts.CacheFills, m.CacheFills())
	}
}

// buildPolyCaller installs f1 (returns 1), f2 (returns 2), and a caller
// g whose CALL site goes through the symbol "poly".
func buildPolyCaller(t *testing.T, m *Machine) (f1, f2 int) {
	f1 = addFn(t, m, "f1", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(1))}),
		InstrItem(Instr{Op: OpRET}),
	})
	f2 = addFn(t, m, "f2", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(RegA), B: Imm(FixnumWord(2))}),
		InstrItem(Instr{Op: OpRET}),
	})
	sym := m.InternSym("poly")
	addFn(t, m, "g", 0, 0, []Item{
		InstrItem(Instr{Op: OpMOV, A: R(10), B: ImmInt(0)}),
		InstrItem(Instr{Op: OpCALL, A: Imm(Ptr(TagSymbol, uint64(sym))), TagArg: 0}),
		InstrItem(Instr{Op: OpPOP, A: R(RegA)}),
		InstrItem(Instr{Op: OpRET}),
	})
	return f1, f2
}

// TestTierCallCacheRebind checks that the CALL inline cache is keyed on the
// symbol's current function cell: rebinding the symbol invalidates the
// cache and the next call refills it with the new callee.
func TestTierCallCacheRebind(t *testing.T) {
	m := New()
	f1, f2 := buildPolyCaller(t, m)
	m.SetSymbolFunction("poly", Ptr(TagFunc, uint64(f1)))

	got, err := m.CallFunction("g")
	if err != nil || got.Int() != 1 {
		t.Fatalf("g with poly=f1: %s, %v", got, err)
	}
	fillsAfterFirst := m.CacheFills()
	if fillsAfterFirst == 0 {
		t.Fatal("first call through the IC site did not fill the cache")
	}

	// A second call with an unchanged binding must hit, not refill.
	if _, err := m.CallFunction("g"); err != nil {
		t.Fatal(err)
	}
	if fills := m.CacheFills(); fills != fillsAfterFirst {
		t.Errorf("cache refilled on a stable binding: %d -> %d", fillsAfterFirst, fills)
	}

	// Rebinding must invalidate: the next call sees f2 and refills.
	m.SetSymbolFunction("poly", Ptr(TagFunc, uint64(f2)))
	got, err = m.CallFunction("g")
	if err != nil || got.Int() != 2 {
		t.Fatalf("g with poly=f2: %s, %v (stale inline cache?)", got, err)
	}
	if fills := m.CacheFills(); fills != fillsAfterFirst+1 {
		t.Errorf("rebind did not refill the cache: %d -> %d", fillsAfterFirst, fills)
	}
}
