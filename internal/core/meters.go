package core

import (
	"fmt"
	"io"
)

// This file is the single shared meter printer: the CLI's -stats flag and
// the REPL's :stats command both call WriteMeters, so the two surfaces
// can never drift apart and the output order is fixed here once.

// WriteMeters prints the machine meters in a fixed, deterministic order.
// When interpreted is true the counters of the reference interpreter
// Interpret built, if any, are appended.
func (s *System) WriteMeters(w io.Writer, interpreted bool) {
	st := s.Stats()
	fmt.Fprintln(w, ";; --- machine meters ---")
	fmt.Fprintf(w, ";; cycles:            %d\n", st.Cycles)
	fmt.Fprintf(w, ";; instructions:      %d\n", st.Instrs)
	fmt.Fprintf(w, ";; calls / tail:      %d / %d\n", st.Calls, st.TailCalls)
	fmt.Fprintf(w, ";; marshaled prims:   %d\n", st.MarshaledPrims)
	fmt.Fprintf(w, ";; heap words:        %d (%d conses, %d flonums, %d envs)\n",
		st.HeapWords, st.ConsAllocs, st.FlonumAllocs, st.EnvAllocs)
	fmt.Fprintf(w, ";; max stack depth:   %d\n", st.MaxStack)
	fmt.Fprintf(w, ";; certifications:    %d (%d copies)\n", st.Certifies, st.CertifyCopies)
	fmt.Fprintf(w, ";; special lookups:   %d (%d probe steps)\n",
		st.SpecialLookups, st.SpecialSearchSteps)
	if st.CompileCacheHits+st.CompileCacheMisses > 0 {
		fmt.Fprintf(w, ";; compile cache:     %d hits / %d misses\n",
			st.CompileCacheHits, st.CompileCacheMisses)
	}
	if gc := s.Machine.GCMeters; gc.Collections > 0 {
		fmt.Fprintf(w, ";; gc:                %d collections, %d words reclaimed\n",
			gc.Collections, gc.WordsReclaimed)
	}
	if fills := s.Machine.CacheFills(); fills > 0 {
		fmt.Fprintf(w, ";; call cache fills:  %d\n", fills)
	}
	if interpreted && s.oracle != nil {
		is := s.oracle.in.Stats
		fmt.Fprintf(w, ";; interpreter:       %d calls, %d builtins, %d conses\n",
			is.Calls, is.BuiltinCalls, is.Conses)
	}
}

// ResetMeters clears the simulator meters and, when profiling is
// enabled, the accumulated profile (the shadow call stack survives so a
// reset mid-run keeps attributing correctly).
func (s *System) ResetMeters() {
	s.Machine.ResetStats()
	if p := s.Machine.Profile(); p != nil {
		p.Reset()
	}
}

// EnableProfile turns on the machine's exact runtime profiler
// (per-opcode histograms, function-level cycle attribution, GC pauses).
// Idempotent.
func (s *System) EnableProfile() { s.Machine.EnableProfile() }

// WriteProfile prints the runtime profile report (opcode histogram,
// per-function cycles, GC pauses, stack high-water marks).
func (s *System) WriteProfile(w io.Writer) { s.Machine.WriteProfile(w) }

// WriteCollapsed writes the profile in collapsed-stack ("folded") form,
// one "fn;fn;fn cycles" line per distinct stack, ready for flamegraph
// tools.
func (s *System) WriteCollapsed(w io.Writer) { s.Machine.WriteCollapsed(w) }

// MetricsSnapshot returns the machine meters plus the compile-cache hit
// rate as a flat name→value map, in the shape WriteProm expects for the
// -debug-addr /metrics endpoint.
func (s *System) MetricsSnapshot() map[string]float64 {
	st := s.Stats()
	m := map[string]float64{
		"slc_machine_cycles_total":          float64(st.Cycles),
		"slc_machine_instructions_total":    float64(st.Instrs),
		"slc_machine_calls_total":           float64(st.Calls),
		"slc_machine_tail_calls_total":      float64(st.TailCalls),
		"slc_machine_heap_words_total":      float64(st.HeapWords),
		"slc_machine_max_stack_depth":       float64(st.MaxStack),
		"slc_machine_special_lookups_total": float64(st.SpecialLookups),
		"slc_machine_marshaled_prims_total": float64(st.MarshaledPrims),
		"slc_gc_collections_total":          float64(s.Machine.GCMeters.Collections),
		"slc_gc_words_reclaimed_total":      float64(s.Machine.GCMeters.WordsReclaimed),
		"slc_compile_cache_hits_total":      float64(st.CompileCacheHits),
		"slc_compile_cache_misses_total":    float64(st.CompileCacheMisses),
	}
	if probes := st.CompileCacheHits + st.CompileCacheMisses; probes > 0 {
		m["slc_compile_cache_hit_rate"] = float64(st.CompileCacheHits) / float64(probes)
	}
	m["slc_tier_call_cache_fills_total"] = float64(s.Machine.CacheFills())
	return m
}
