package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sexp"
)

// corpusGroups is the compile corpus size in template instances (the
// "special" template adds a helper defun, so the corpus has a few more
// defuns than this).
const corpusGroups = 280

// phaseMetrics names each compile phase's per-layer metric.
var phaseMetrics = map[string]string{
	"read":     "sexp.read_ms",
	"convert":  "convert.convert_ms",
	"optimize": "opt.optimize_ms",
	"cse":      "opt.cse_ms",
	"analysis": "analysis.ms",
	"binding":  "binding.ms",
	"rep":      "rep.ms",
	"pdl":      "pdl.ms",
	"emit":     "codegen.emit_ms",
}

// probeSystem calls every probe on sys and reports mismatches under
// their function names; it returns whether all matched and the
// simulated cycles the calls took.
func probeSystem(rep *report, sys *core.System, probes []probe) (bool, int64, error) {
	c0 := sys.Stats().Cycles
	ok := true
	for _, p := range probes {
		args, err := readArgs(p.args)
		if err != nil {
			return false, 0, err
		}
		v, err := sys.Call(p.fn, args...)
		got := ""
		if err != nil {
			got = "error: " + err.Error()
		} else {
			got = sexp.Print(v)
		}
		if got != p.want {
			rep.mismatch(p.fn, got, p.want)
			ok = false
		}
	}
	return ok, sys.Stats().Cycles - c0, nil
}

// runCompile is the compile workload: each op cold-loads the seeded
// corpus into a fresh default system.
func runCompile(cfg config, rep *report) error {
	type corpus struct {
		src    string
		probes []probe
	}
	// Set-up generates the corpus and computes its expected values on
	// the interpreter.
	cp, setupS, err := timeSetups(func(int) (corpus, error) {
		src, probes := genCorpus(cfg.seed, corpusGroups)
		return corpus{src, probes}, oracle(src, nil, probes)
	}, func(corpus) {})
	if err != nil {
		return err
	}

	// load is one op; rec, when non-nil, records its phase spans. It
	// returns the system and the op's window on rec's clock.
	load := func(rec *obs.Recorder) (*core.System, time.Duration, time.Duration, error) {
		var from time.Duration
		if rec != nil {
			from = time.Since(rec.Epoch())
		}
		t0 := time.Now()
		sys := core.NewSystem(core.Options{Obs: rec})
		err := sys.LoadString(cp.src)
		d := time.Since(t0)
		return sys, from, from + d, err
	}

	// Warm-up: two untimed loads, the first also measuring code size.
	var instrs, movs int
	for i := 0; i < 2; i++ {
		sys, _, _, err := load(nil)
		if err != nil {
			return fmt.Errorf("warm-up load: %w", err)
		}
		if instrs, movs, err = codeInstrs(sys); err != nil {
			return err
		}
	}

	type window struct {
		plain, traced []float64 // op walls, ms
		cycles        int64
		// Traced ops only: per-phase wall-share ms, the uncovered
		// remainder, pool busy share, rule fires, nodes out.
		phases  map[string]float64
		other   float64
		busy    float64
		rules   int
		nodes   int
		outside time.Duration
	}
	// measure runs n loads. In a traced run the odd loads record phase
	// spans, so traced and untraced loads share conditions and their
	// throughput difference is the tracing overhead.
	measure := func(n int, trace bool) (*window, error) {
		w := &window{phases: map[string]float64{}}
		for i := 0; i < n; i++ {
			// Every load starts from a collected Go heap, as a fresh slc
			// process would, so collector timing does not leak between ops.
			runtime.GC()
			var rec *obs.Recorder
			if trace && i%2 == 1 {
				rec = obs.NewRecorder()
			}
			sys, from, to, err := load(rec)
			if err != nil {
				rep.fail("load", err)
				continue
			}
			ok, cyc, err := probeSystem(rep, sys, cp.probes)
			if err != nil {
				return nil, err
			}
			rep.done(ok)
			if !ok {
				continue
			}
			w.cycles += cyc
			wall := to - from
			if rec == nil {
				w.plain = append(w.plain, ms(wall))
				continue
			}
			w.traced = append(w.traced, ms(wall))
			spans := rec.Spans()
			a := attribute(spans, from, to)
			named := time.Duration(0)
			for ph, d := range a.phase {
				if m, ok := phaseMetrics[ph]; ok {
					w.phases[m] += ms(d)
					named += d
				}
			}
			w.other += ms(wall - named)
			w.busy += ratio(float64(a.poolBusy), float64(wall)*float64(runtime.GOMAXPROCS(0)))
			w.outside += a.outside
			w.rules += len(rec.Rules())
			for _, sp := range spans {
				if sp.Phase == "optimize" {
					w.nodes += sp.Nodes
				}
			}
		}
		return w, nil
	}

	n := cfg.ops(opsPerSecond["compile"], 4)
	w, err := measure(n, cfg.trace)
	if err != nil {
		return err
	}
	if !cfg.trace {
		rep.set("setup_s", "s", setupS)
		rate, p50, _ := sliced(sequential(w.plain))
		rep.set("ops_per_s", "1/s", rate)
		rep.set("p50_ms", "ms", p50)
		rep.set("sim_cycles", "count", float64(w.cycles))
		rep.set("code_instrs", "count", float64(instrs))
		return nil
	}

	if w.outside > 0 {
		return fmt.Errorf("compile: %v of phase spans fell outside their op windows", w.outside)
	}
	ops := float64(len(w.traced))
	wall := mean(w.traced)
	parts := map[string]float64{"core.other_ms": w.other / ops}
	for _, m := range phaseMetrics {
		parts[m] = w.phases[m] / ops
		rep.set(m, "ms", parts[m])
	}
	rep.set("core.other_ms", "ms", parts["core.other_ms"])
	rep.set("core.worker_busy_frac", "ratio", w.busy/ops)
	rep.set("op.wall_ms", "ms", wall)
	rep.set("opt.rule_fires", "count", ratio(float64(w.rules), ops))
	rep.set("opt.nodes_out", "count", ratio(float64(w.nodes), ops))
	nodes, err := convertNodes(cp.src)
	if err != nil {
		return err
	}
	rep.set("convert.nodes", "count", float64(nodes))
	rep.set("codegen.static_movs", "count", float64(movs))
	setOverhead(rep, ratio(float64(len(w.plain)), sum(w.plain)), ratio(ops, sum(w.traced)))
	return checkSum("compile", wall, parts, "core.other_ms")
}
