package core_test

import (
	"math/big"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/codegen"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/opt"
	"repro/internal/s1"
	"repro/internal/sexp"
	"repro/internal/tree"
)

// programs returns the harness programs of seeds 0, 1, ... up to the
// nth that draws family.
func programs(family string, n int) []*difftest.Prog {
	var ps []*difftest.Prog
	for seed := uint64(0); n > 0; seed++ {
		p := difftest.Program(seed)
		if slices.Contains(p.Families, family) {
			n--
		}
		ps = append(ps, p)
	}
	return ps
}

// runPrograms runs the harness programs up to the nth that draws family
// in configuration c.
func runPrograms(t *testing.T, family string, n int, c difftest.Config) {
	t.Helper()
	for _, p := range programs(family, n) {
		if _, err := difftest.Run(p, c, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRandomizedDifferential runs generated programs compiled under each
// phase ablation against the reference interpreter: at least 120 depth-4
// fixnum expressions each, two in every program drawing the arith
// family.
func TestRandomizedDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for name, o := range map[string]codegen.Options{
		"full":     codegen.DefaultOptions(),
		"bare":     {Optimize: false},
		"opt-only": {Optimize: true},
		"tn-only":  {UseTN: true},
	} {
		t.Run(name, func(t *testing.T) { runPrograms(t, "arith", 60, difftest.Config{Codegen: &o}) })
	}
}

// TestRandomizedFloatDifferential runs generated programs, whose flonum
// arithmetic exercises representation analysis, with that analysis off:
// at least 100 depth-4 flonum expressions, two in every program drawing
// the arith family, each feeding a depth-2 one.
func TestRandomizedFloatDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := codegen.DefaultOptions()
	o.RepAnalysis = false
	runPrograms(t, "arith", 50, difftest.Config{Codegen: &o})
}

// TestRandomizedTailLoops runs generated programs under minor
// collections: the harness requires each of their self tail loops, a
// fixnum and a flonum one in each of the twenty programs drawing the
// loops family, to keep its stack bounded.
func TestRandomizedTailLoops(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runPrograms(t, "loops", 20, difftest.Config{GC: difftest.Minor})
}

// TestDifferentialCompiledVsInterpreted runs the harness's corpus of
// one program per core language feature.
func TestDifferentialCompiledVsInterpreted(t *testing.T) {
	for _, p := range difftest.Corpus() {
		if _, err := difftest.Run(p, difftest.Config{}, nil); err != nil {
			t.Error(err)
		}
	}
}

// runProg runs a hand-written harness program in configuration c and
// checks each call printed want.
func runProg(t *testing.T, p *difftest.Prog, c difftest.Config, want ...string) *difftest.Report {
	t.Helper()
	r, err := difftest.Run(p, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.Values, want) {
		t.Errorf("%s [%s] printed %q, want %q", p.Name, c, r.Values, want)
	}
	return r
}

// TestKitchenSink runs the harness's kitchen-sink program, whose catch
// unwinds through closures, a macro's special and a prog loop.
func TestKitchenSink(t *testing.T) {
	runProg(t, difftest.KitchenSink(), difftest.Config{}, "(too-big (1 3 6 10) (4 3 2 1 4 3 2 1) 5.0 14.0)")
}

var survivorValues = []string{"(100 100)", "(1.0 8.0 b)", "1.0"}

// TestGCSurvivesClosuresAndSpecials: a closure and a special's list
// outlive the collections a low threshold triggers.
func TestGCSurvivesClosuresAndSpecials(t *testing.T) {
	if r := runProg(t, difftest.Survivors(), difftest.Config{}, survivorValues...); r.GC.Collections+r.GC.MinorCollections == 0 {
		t.Error("no collection ran")
	}
}

// TestGCStressKeepsLiteralsAlive: boxed literals and arguments survive
// a full or a minor collection before every allocation.
func TestGCStressKeepsLiteralsAlive(t *testing.T) {
	for _, gc := range []difftest.GC{difftest.Full, difftest.Minor} {
		runProg(t, difftest.Survivors(), difftest.Config{GC: gc}, survivorValues...)
	}
}

// ablation runs Ablations()[i] compiled with the default phases and
// with edit applied to them, requiring want from both, and returns the
// two runs' Stats.
func ablation(t *testing.T, i int, edit func(o *codegen.Options), want string) (on, off s1.Stats) {
	t.Helper()
	o := codegen.DefaultOptions()
	edit(&o)
	p := difftest.Ablations()[i]
	return runProg(t, p, difftest.Config{}, want).Stats[0], runProg(t, p, difftest.Config{Codegen: &o}, want).Stats[0]
}

// TestRepAnalysisAvoidsBoxing: E5: a float chain boxes once (the
// return) with representation analysis on, more with it and pdl
// numbers off.
func TestRepAnalysisAvoidsBoxing(t *testing.T) {
	on, off := ablation(t, 0, func(o *codegen.Options) { o.RepAnalysis, o.PdlNumbers = false, false }, "7.0")
	if on.FlonumAllocs-1 > 1 { // minus the argument conversion
		t.Errorf("rep analysis on: %d flonum allocs (want 1: the result)", on.FlonumAllocs-1)
	}
	if off.FlonumAllocs <= on.FlonumAllocs-1 {
		t.Errorf("rep ablation broken: on=%d off=%d", on.FlonumAllocs-1, off.FlonumAllocs)
	}
}

// TestPdlNumbersAvoidHeap: E6: floats that must take pointer form but
// only flow to safe operations (a user call, a let binding) stay on the
// stack. d and e are POINTER-represented (their uses disagree: observe
// wants pointers, max$f wants raw).
func TestPdlNumbersAvoidHeap(t *testing.T) {
	on, off := ablation(t, 1, func(o *codegen.Options) { o.PdlNumbers = false }, "4.0")
	// One boxing for the argument conversion, one for the returned value.
	if on.FlonumAllocs > 2 {
		t.Errorf("pdl numbers on: %d flonum allocations (want <= 2: arg + result)", on.FlonumAllocs)
	}
	if on.Certifies == 0 {
		t.Error("returned pointer should have been certified")
	}
	if off.FlonumAllocs <= on.FlonumAllocs {
		t.Errorf("ablation broken: with=%d without=%d", on.FlonumAllocs, off.FlonumAllocs)
	}
}

// TestAllPhaseCombinations: E10: every phase toggle still yields a
// correct compiler.
func TestAllPhaseCombinations(t *testing.T) {
	for mask := 0; mask < 32; mask++ {
		ablation(t, 2, func(o *codegen.Options) {
			*o = codegen.Options{UseTN: mask&1 != 0, RepAnalysis: mask&2 != 0, PdlNumbers: mask&4 != 0,
				SpecialCaching: mask&8 != 0, Optimize: mask&16 != 0}
		}, "45.0")
	}
}

// TestCSEOptionReducesWork: common-subexpression elimination keeps the
// result and saves cycles.
func TestCSEOptionReducesWork(t *testing.T) {
	plain, cse := ablation(t, 3, func(o *codegen.Options) { o.CSE = true }, "98")
	if cse.Cycles >= plain.Cycles {
		t.Errorf("CSE should reduce cycles: %d vs %d", cse.Cycles, plain.Cycles)
	}
}

// tailLoopValues are TailLoops' results: 2^10, 2^60, 2^400 and 50000.
var tailLoopValues = []string{"1024", "1152921504606846976", new(big.Int).Lsh(big.NewInt(1), 400).String(), "50000"}

// TestExptlConstantStack: E3: the §2 example runs in constant stack no
// matter how large n is, into bignums (the harness bounds every tail
// loop's stack depth).
func TestExptlConstantStack(t *testing.T) {
	runProg(t, difftest.TailLoops(), difftest.Config{}, tailLoopValues...)
}

// TestDeepTailLoop: a 50,000-trip countdown makes every trip a tail
// call, in constant stack, also under minor collections.
func TestDeepTailLoop(t *testing.T) {
	if r := runProg(t, difftest.TailLoops(), difftest.Config{GC: difftest.Minor}, tailLoopValues...); r.Stats[3].TailCalls < 50000 {
		t.Errorf("tail calls = %d", r.Stats[3].TailCalls)
	}
}

// TestBatchGrowsCodeVectorOnce: a load's definitions reserve the code
// vector from their prepared trees before any installs, so a cold load
// grows it exactly once, to that reservation, with room left for the
// top-level forms that follow.
func TestBatchGrowsCodeVectorOnce(t *testing.T) {
	var generated string
	for seed := uint64(0); seed < 12; seed++ {
		p := difftest.Program(seed)
		if !slices.Contains(p.Families, "macro") { // expanders install during the front end
			generated += p.Src + "\n"
		}
	}
	for name, src := range map[string]string{"corpus": core.CorpusSrc, "generated": generated} {
		need, err := core.CodeReservation(src)
		if err != nil {
			t.Fatal(err)
		}
		sys := core.NewSystem(core.Options{})
		c0, l0 := cap(sys.Machine.Code), len(sys.Machine.Code)
		if err := sys.LoadString(src); err != nil {
			t.Fatal(err)
		}
		if want, got := max(2*c0, l0+need), cap(sys.Machine.Code); got != want {
			t.Errorf("%s: code vector capacity %d after the load, want the reservation %d (%d instructions installed)",
				name, got, want, len(sys.Machine.Code))
		}
	}
}

// freshSets is the reference environment analysis: every node's
// Reads/Writes in newly allocated sets, each the union of its children's
// plus the node's own variable, sharing nothing.
func freshSets(n tree.Node, reads, writes map[tree.Node]tree.VarSet) {
	r, w := tree.VarSet{}, tree.VarSet{}
	for _, c := range tree.AppendChildren(nil, n) {
		freshSets(c, reads, writes)
		for v := range reads[c] {
			r[v] = struct{}{}
		}
		for v := range writes[c] {
			w[v] = struct{}{}
		}
	}
	switch x := n.(type) {
	case *tree.VarRef:
		r[x.Var] = struct{}{}
	case *tree.Setq:
		w[x.Var] = struct{}{}
	}
	reads[n], writes[n] = r, w
}

func sameSet(a, b tree.VarSet) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b.Has(v) {
			return false
		}
	}
	return true
}

// TestSharedVarSetsMatchFreshAnalysis runs the optimizer (whose
// incremental passes re-analyze through Recompute and RecomputeShallow)
// over every defun of the harness's generated programs up to the 75th
// drawing the arith family (two depth-4 fixnum expressions each), then
// checks that every node's
// shared Reads/Writes equal a fresh-copy reference. It then recomputes
// each node in turn, as the optimizer's dirty path does: no other
// node's set may change when a child is recomputed, and refreshing the
// ancestors afterwards must leave the reference sets.
func TestSharedVarSetsMatchFreshAnalysis(t *testing.T) {
	for _, p := range programs("arith", 75) {
		forms, err := sexp.ReadAll(p.Src)
		if err != nil {
			t.Fatal(err)
		}
		conv, prog := convert.New(), convert.NewProgram()
		for _, f := range forms {
			conv.ScanProclaim(f)
		}
		for _, f := range forms {
			if c, _ := f.(*sexp.Cons); c != nil && c.Car == sexp.Intern("defmacro") {
				continue // needs the system's expander hooks; its uses convert as calls
			}
			if err := conv.TopForm(prog, f); err != nil {
				t.Fatalf("%s: %s: %v", p.Name, sexp.Print(f), err)
			}
		}
		for _, def := range prog.Defs {
			root := opt.New(opt.DefaultOptions()).Optimize(def.Lambda)
			var nodes []tree.Node
			tree.Walk(root, func(n tree.Node) bool { nodes = append(nodes, n); return true })
			reads, writes := map[tree.Node]tree.VarSet{}, map[tree.Node]tree.VarSet{}
			freshSets(root, reads, writes)
			check := func(when string) {
				t.Helper()
				for _, n := range nodes {
					in := n.Info()
					if !sameSet(in.Reads, reads[n]) || !sameSet(in.Writes, writes[n]) {
						t.Fatalf("%s %s: %s: %s has reads %v writes %v, want %v %v", p.Name, def.Name.Name, when,
							tree.Show(n), in.Reads.Sorted(), in.Writes.Sorted(), reads[n].Sorted(), writes[n].Sorted())
					}
				}
			}
			check("after optimizing")
			for _, n := range nodes {
				analysis.Recompute(n)
				check("after recomputing " + tree.Show(n))
				for p := n.Info().Parent; p != nil; p = p.Info().Parent {
					analysis.RecomputeShallow(p)
				}
				check("after refreshing the ancestors of " + tree.Show(n))
			}
		}
	}
}
