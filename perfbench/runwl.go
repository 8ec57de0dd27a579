package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/s1"
	"repro/internal/sexp"
)

// loadedKernel is a kernel compiled into its own system.
type loadedKernel struct {
	kernel
	sys  *core.System
	args []sexp.Value
	want string
	// gcFull and gcMinor collect pause times while the hook is on.
	gcFull, gcMinor []time.Duration
}

// buildKernels compiles every kernel into a fresh default system.
func buildKernels(ks []kernel) ([]*loadedKernel, error) {
	out := make([]*loadedKernel, len(ks))
	for i, k := range ks {
		opts := core.Options{}
		if k.consts != nil {
			opts.Constants = k.consts()
		}
		sys := core.NewSystem(opts)
		if k.gcAt > 0 {
			sys.Machine.SetGCThreshold(k.gcAt)
		}
		if err := sys.LoadString(k.src); err != nil {
			return nil, fmt.Errorf("load %s: %w", k.name, err)
		}
		args, err := readArgs(k.args)
		if err != nil {
			return nil, err
		}
		out[i] = &loadedKernel{kernel: k, sys: sys, args: args}
	}
	return out, nil
}

// hook turns the machine's runtime-event hook, which collects GC
// pauses, on or off.
func (lk *loadedKernel) hook(on bool) {
	if !on {
		lk.sys.Machine.OnEvent = nil
		return
	}
	lk.sys.Machine.OnEvent = func(kind, unit string, d time.Duration) {
		switch kind {
		case obs.EvGCPause:
			lk.gcFull = append(lk.gcFull, d)
		case obs.EvGCMinorPause:
			lk.gcMinor = append(lk.gcMinor, d)
		}
	}
}

// codeInstrs counts the S-1 instructions emitted for a system's defuns.
func codeInstrs(sys *core.System) (instrs, movs int, err error) {
	names := make([]string, 0, len(sys.Defs))
	for name := range sys.Defs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n, err := sys.InstructionCount(name)
		if err != nil {
			return 0, 0, err
		}
		m, err := sys.StaticMOVs(name)
		if err != nil {
			return 0, 0, err
		}
		instrs += n
		movs += m
	}
	return instrs, movs, nil
}

// runKernels is the run workload: the kernels are compiled at set-up,
// and each op is one round calling every kernel's driver once, in a
// seeded order.
func runKernels(cfg config, rep *report) error {
	ks := runKernelSet(cfg.seed)
	lks, setupS, err := timeSetups(func(int) ([]*loadedKernel, error) {
		return buildKernels(ks)
	}, func([]*loadedKernel) {})
	if err != nil {
		return err
	}
	// Oracle: the interpreter over the same sources and inputs.
	instrs, movs := 0, 0
	for _, lk := range lks {
		var consts map[string]sexp.Value
		if lk.consts != nil {
			consts = lk.consts()
		}
		pr := []probe{{fn: lk.fn, args: lk.kernel.args}}
		if err := oracle(lk.src, consts, pr); err != nil {
			return err
		}
		lk.want = pr[0].want
		n, m, err := codeInstrs(lk.sys)
		if err != nil {
			return err
		}
		instrs += n
		movs += m
	}
	order := rand.New(rand.NewSource(cfg.seed ^ 0x5eed)).Perm(len(lks))

	// round calls every kernel once; it returns the round's wall time
	// and each kernel's call wall time and result.
	calls := make([]time.Duration, len(lks))
	vals := make([]sexp.Value, len(lks))
	round := func() (time.Duration, error) {
		t0 := time.Now()
		for _, i := range order {
			c0 := time.Now()
			v, err := lks[i].sys.Call(lks[i].fn, lks[i].args...)
			calls[i] = time.Since(c0)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", lks[i].name, err)
			}
			vals[i] = v
		}
		return time.Since(t0), nil
	}
	verify := func() bool {
		ok := true
		for i, lk := range lks {
			got := sexp.Print(vals[i])
			if got != lk.want {
				rep.mismatch(lk.name, got, lk.want)
				ok = false
			}
		}
		return ok
	}

	// Warm-up past the tier's promotion threshold, so the timed rounds
	// measure the steady state.
	for i := 0; i < s1.DefaultHotThreshold+1; i++ {
		if _, err := round(); err != nil {
			return err
		}
	}

	// samples are the timings of one set of rounds.
	type samples struct {
		walls, callSum []float64   // per round, ms
		perKernel      [][]float64 // per kernel, ns per call
	}
	type window struct {
		plain, traced samples
		rounds        int     // correct rounds, both sets
		cycles        []int64 // per kernel, whole window
		instrs        int64
		allocs, flos  int64
		gm            s1.GCStats
	}
	// measure runs n rounds. In a traced run the odd rounds have the
	// machines' event hooks on, so traced and untraced rounds share
	// conditions and their throughput difference is the tracing overhead.
	measure := func(n int, trace bool) *window {
		w := &window{cycles: make([]int64, len(lks))}
		w.plain.perKernel = make([][]float64, len(lks))
		w.traced.perKernel = make([][]float64, len(lks))
		before := make([]s1.Stats, len(lks))
		gm0 := make([]s1.GCStats, len(lks))
		for i, lk := range lks {
			before[i] = *lk.sys.Stats()
			gm0[i] = lk.sys.Machine.GCMeters
		}
		runtime.GC()
		for r := 0; r < n; r++ {
			on := trace && r%2 == 1
			for _, lk := range lks {
				lk.hook(on)
			}
			wall, err := round()
			if err != nil {
				rep.fail("round", err)
				continue
			}
			ok := verify()
			rep.done(ok)
			if !ok {
				continue
			}
			w.rounds++
			set := &w.plain
			if on {
				set = &w.traced
			}
			set.walls = append(set.walls, ms(wall))
			cs := 0.0
			for i := range lks {
				set.perKernel[i] = append(set.perKernel[i], float64(calls[i].Nanoseconds()))
				cs += ms(calls[i])
			}
			set.callSum = append(set.callSum, cs)
		}
		for i, lk := range lks {
			st := lk.sys.Stats()
			w.cycles[i] = st.Cycles - before[i].Cycles
			w.instrs += st.Instrs - before[i].Instrs
			w.allocs += st.HeapAllocs - before[i].HeapAllocs
			w.flos += st.FlonumAllocs - before[i].FlonumAllocs
			g := lk.sys.Machine.GCMeters
			w.gm.Collections += g.Collections - gm0[i].Collections
			w.gm.MinorCollections += g.MinorCollections - gm0[i].MinorCollections
			w.gm.WordsPromoted += g.WordsPromoted - gm0[i].WordsPromoted
		}
		return w
	}

	n := cfg.ops(opsPerSecond["run"], 20)
	w := measure(n, cfg.trace)
	if !cfg.trace {
		var cycles int64
		for _, c := range w.cycles {
			cycles += c
		}
		rate, p50, _ := sliced(sequential(w.plain.walls))
		rep.set("setup_s", "s", setupS)
		rep.set("ops_per_s", "1/s", rate)
		rep.set("p50_ms", "ms", p50)
		rep.set("sim_cycles", "count", float64(cycles))
		rep.set("code_instrs", "count", float64(instrs))
		return nil
	}

	rounds := float64(w.rounds)
	tr := w.traced
	var full, minor []float64
	var pause time.Duration
	for i, lk := range lks {
		for _, d := range lk.gcFull {
			full = append(full, float64(d.Microseconds()))
			pause += d
		}
		for _, d := range lk.gcMinor {
			minor = append(minor, float64(d.Microseconds()))
			pause += d
		}
		rep.set("s1."+lk.name+".ns_per_call", "ns", median(tr.perKernel[i]))
		rep.set("s1."+lk.name+".cycles_per_call", "count", ratio(float64(w.cycles[i]), rounds))
	}
	var ts s1.TierStats
	for _, lk := range lks {
		t := lk.sys.Machine.TierStats()
		ts.Promotions += t.Promotions
		ts.Refusions += t.Refusions
		ts.LoweredInstrs += t.LoweredInstrs
		ts.CacheFills += t.CacheFills
	}
	wall := mean(tr.walls)
	callMs := mean(tr.callSum)
	pauseMs := ratio(ms(pause), float64(len(tr.walls)))
	rep.set("s1.steps_per_s", "1/s", ratio(float64(w.instrs), (sum(tr.callSum)+sum(w.plain.callSum))/1e3))
	rep.set("s1.tier.promotions", "count", float64(ts.Promotions))
	rep.set("s1.tier.refusions", "count", float64(ts.Refusions))
	rep.set("s1.tier.lowered_instrs", "count", float64(ts.LoweredInstrs))
	rep.set("s1.tier.cache_fills", "count", float64(ts.CacheFills))
	rep.set("s1.heap_allocs", "count", ratio(float64(w.allocs), rounds))
	rep.set("s1.flonum_allocs", "count", ratio(float64(w.flos), rounds))
	rep.set("s1.self_ms", "ms", callMs-pauseMs)
	rep.set("gc.pause_ms", "ms", pauseMs)
	rep.set("gc.self_frac", "ratio", ratio(pauseMs, callMs))
	rep.set("gc.minor_count", "count", ratio(float64(w.gm.MinorCollections), rounds))
	rep.set("gc.full_count", "count", ratio(float64(w.gm.Collections), rounds))
	rep.set("gc.words_promoted", "count", ratio(float64(w.gm.WordsPromoted), rounds))
	rep.set("gc.minor_pause_p50_us", "us", median(minor))
	rep.set("gc.full_pause_p50_us", "us", median(full))
	rep.set("core.other_ms", "ms", wall-callMs)
	rep.set("op.wall_ms", "ms", wall)
	rep.set("codegen.static_movs", "count", float64(movs))
	setOverhead(rep, ratio(float64(len(w.plain.walls)), sum(w.plain.walls)),
		ratio(float64(len(tr.walls)), sum(tr.walls)))
	return checkSum("run", wall, map[string]float64{
		"s1.self_ms": callMs - pauseMs, "gc.pause_ms": pauseMs, "core.other_ms": wall - callMs,
	}, "core.other_ms")
}

// setOverhead reports the tracing overhead: the share of untraced
// throughput the traced half lost.
func setOverhead(rep *report, untraced, traced float64) {
	rep.set("trace.overhead_frac", "ratio", ratio(untraced-traced, untraced))
}
