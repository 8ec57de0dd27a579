package main

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, better string
}

// perLayer lists every per-layer metric a traced run prints, on every
// workload: a layer a workload does not reach reads 0. BENCHMARK.json's
// per_layer list mirrors this table (TestBenchmarkJSONMatches).
func perLayer() []layerMetric {
	ms := func(name string) layerMetric { return layerMetric{name, "ms", "lower"} }
	count := func(name, better string) layerMetric { return layerMetric{name, "count", better} }
	ratio := func(name, better string) layerMetric { return layerMetric{name, "ratio", better} }
	out := []layerMetric{
		// Compiler phases (obs.Recorder spans), wall-share self time per op.
		ms("sexp.read_ms"), ms("convert.convert_ms"), ms("opt.optimize_ms"), ms("opt.cse_ms"),
		ms("analysis.ms"), ms("binding.ms"), ms("rep.ms"), ms("pdl.ms"), ms("codegen.emit_ms"),
		ms("core.other_ms"), ratio("core.worker_busy_frac", "higher"),
		count("opt.rule_fires", "lower"), count("convert.nodes", "lower"),
		count("opt.nodes_out", "lower"), count("codegen.static_movs", "lower"),
	}
	for _, k := range runKernelSet(1) {
		out = append(out, layerMetric{"s1." + k.name + ".ns_per_call", "ns", "lower"},
			count("s1."+k.name+".cycles_per_call", "lower"))
	}
	out = append(out,
		// Host engine.
		layerMetric{"s1.steps_per_s", "1/s", "higher"}, ms("s1.self_ms"),
		count("s1.tier.promotions", "higher"), count("s1.tier.refusions", "lower"),
		count("s1.tier.lowered_instrs", "higher"), count("s1.tier.cache_fills", "lower"),
		count("s1.heap_allocs", "lower"), count("s1.flonum_allocs", "lower"),
		ratio("s1.arena_recycle_rate", "higher"),
		// Collector.
		ms("gc.pause_ms"), ratio("gc.self_frac", "lower"),
		count("gc.minor_count", "lower"), count("gc.full_count", "lower"),
		count("gc.words_promoted", "lower"),
		layerMetric{"gc.minor_pause_p50_us", "us", "lower"},
		layerMetric{"gc.full_pause_p50_us", "us", "lower"},
		// Scheduler.
		ms("sched.wait_ms"), count("sched.preempts_per_req", "lower"),
		count("sched.parks_per_req", "lower"), ratio("sched.hot_cycles_share", "lower"),
		// Snapshots and the durable compile cache.
		count("snapshot.restores_per_req", "higher"), count("snapshot.restore_failures", "lower"),
		ratio("compilecache.hit_rate", "higher"), count("compilecache.stores", "lower"),
		// The slcd request path.
		ms("daemon.client_ms"), ms("daemon.handler_ms"), ms("daemon.transport_ms"),
		ms("daemon.compile_ms"), ms("daemon.unattributed_ms"), ms("daemon.p99_ms"),
		ms("daemon.run_warm.p50_ms"), ms("daemon.run_session.p50_ms"),
		// The traced op as a whole, and what tracing cost.
		ms("op.wall_ms"), ratio("trace.overhead_frac", "lower"),
	)
	return out
}

// fillLayers gives every per-layer metric the workload did not reach a
// zero, so each traced run prints the full table.
func fillLayers(rep *report) {
	for _, m := range perLayer() {
		if _, ok := rep.metrics[m.name]; !ok {
			rep.set(m.name, m.unit, 0)
		}
	}
}
