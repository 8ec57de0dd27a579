package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// smallRun runs a workload at a small, fixed op count.
func smallRun(t *testing.T, workload string, seed int64, trace bool) map[string]metric {
	t.Helper()
	cfg := config{seed: seed, seconds: 1, trace: trace, scale: 0.05, workDir: t.TempDir()}
	rep, err := runWorkload(workloads[workload], cfg)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if rep.failedOps != 0 || rep.attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed: %v", workload, seed, rep.failedOps, rep.attempted, rep.failures)
	}
	return rep.metrics
}

// exact reports whether a metric is a count the simulator or compiler
// produces deterministically.
func exact(name string) bool {
	switch name {
	case "sim_cycles", "code_instrs", "opt.rule_fires", "codegen.static_movs",
		"convert.nodes", "opt.nodes_out":
		return true
	}
	return strings.HasSuffix(name, ".cycles_per_call")
}

// TestDeterministicCounts: two runs at one seed give identical exact
// counts on every workload, traced and untraced.
func TestDeterministicCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, wl := range []string{"compile", "run", "serve", "serve-contended"} {
		for _, trace := range []bool{false, true} {
			a := smallRun(t, wl, 7, trace)
			b := smallRun(t, wl, 7, trace)
			n := 0
			for name, m := range a {
				if !exact(name) {
					continue
				}
				n++
				if b[name] != m {
					t.Errorf("%s trace=%v: %s = %v then %v", wl, trace, name, m.Value, b[name].Value)
				}
			}
			if n == 0 {
				t.Errorf("%s trace=%v: no exact counts reported", wl, trace)
			}
		}
	}
}

// TestSeedReachesCorpus: the seed changes the generated compile corpus
// and serve programs, and the same seed reproduces them.
func TestSeedReachesCorpus(t *testing.T) {
	a, _ := genCorpus(1, corpusGroups)
	b, _ := genCorpus(2, corpusGroups)
	c, _ := genCorpus(1, corpusGroups)
	if a == b {
		t.Error("seeds 1 and 2 generated the same compile corpus")
	}
	if a != c {
		t.Error("seed 1 generated two different compile corpora")
	}
	p1, _, _ := poolProgram(1, 0)
	p2, _, _ := poolProgram(2, 0)
	if p1 == p2 {
		t.Error("seeds 1 and 2 generated the same serve program")
	}
	m1 := smallRun(t, "compile", 1, false)
	m2 := smallRun(t, "compile", 2, false)
	if m1["sim_cycles"] == m2["sim_cycles"] {
		t.Error("seeds 1 and 2 gave the compile corpus identical probe cycles")
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json names exactly the metrics the
// benchmark prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []row `json:"end_to_end"`
		PerLayer  []row `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v; the benchmark implements %d workloads", names, len(workloads))
	}
	want := map[string]string{}
	for _, m := range perLayer() {
		want[m.name] = m.unit
	}
	got := map[string]string{}
	for _, r := range spec.PerLayer {
		got[r.Name] = r.Unit
	}
	diff(t, "per_layer", got, want)
	e2e := smallRun(t, "run", 1, false)
	want = map[string]string{}
	for k, m := range e2e {
		want[k] = m.Unit
	}
	got = map[string]string{}
	for _, r := range spec.EndToEnd {
		got[r.Name] = r.Unit
	}
	diff(t, "end_to_end", got, want)
}

func diff(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	var bad []string
	for k, u := range want {
		if got[k] != u {
			bad = append(bad, k+" ("+u+" printed, "+got[k]+" listed)")
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, k+" listed but not printed")
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Errorf("BENCHMARK.json %s disagrees with the benchmark: %s", what, strings.Join(bad, "; "))
	}
}
