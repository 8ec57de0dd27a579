package core

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// obsCorpus generates n defuns with optimizable bodies plus one
// top-level call, so every pipeline phase and the rule-provenance path
// all fire.
func obsCorpus(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `(defun obs-f%d (x y)
  (let ((t1 (+ x y)))
    (if nil 0 (+ (* t1 t1) (* 2 3) %d))))
`, i, i)
	}
	b.WriteString("(obs-f0 1 2)\n")
	return b.String()
}

// spanSet flattens a recorder's spans to sorted "unit/phase" strings,
// dropping the worker id and timing — the shape that must be identical
// between sequential and parallel compiles.
func spanSet(r *obs.Recorder) []string {
	var out []string
	for _, s := range r.Spans() {
		out = append(out, s.Unit+"/"+s.Phase)
	}
	sort.Strings(out)
	return out
}

// The acceptance criterion: compiling the same program under -jobs 4
// must record exactly the same per-defun span multiset as -jobs 1 —
// only worker ids and timings may differ.
func TestSpanSetParallelEqualsSequential(t *testing.T) {
	src := obsCorpus(12)
	recs := map[int]*obs.Recorder{}
	for _, jobs := range []int{1, 4} {
		r := obs.NewRecorder()
		sys := NewSystem(Options{Jobs: jobs, Obs: r})
		if err := sys.LoadString(src); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		recs[jobs] = r
	}
	seq, par := spanSet(recs[1]), spanSet(recs[4])
	if len(seq) == 0 {
		t.Fatalf("sequential run recorded no spans")
	}
	if strings.Join(seq, "\n") != strings.Join(par, "\n") {
		t.Fatalf("span sets differ:\njobs=1 (%d spans):\n%s\njobs=4 (%d spans):\n%s",
			len(seq), strings.Join(seq, "\n"), len(par), strings.Join(par, "\n"))
	}
	// Both runs fired the same rules in the same (source) order.
	ruleLog := func(r *obs.Recorder) string {
		var b strings.Builder
		for _, ev := range r.Rules() {
			fmt.Fprintf(&b, "%s %s %s=>%s\n", ev.Unit, ev.Rule, ev.Before, ev.After)
		}
		return b.String()
	}
	if ruleLog(recs[1]) != ruleLog(recs[4]) {
		t.Fatalf("rule event logs differ between jobs=1 and jobs=4")
	}
}

// The full trace of a parallel compile must pass the golden checker.
func TestParallelTraceWellFormed(t *testing.T) {
	r := obs.NewRecorder()
	sys := NewSystem(Options{Jobs: 4, Obs: r})
	if err := sys.LoadString(obsCorpus(16)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("parallel trace not well-formed: %v", err)
	}
	if sum.Spans == 0 {
		t.Fatalf("trace has no spans")
	}
}

// The meters-delta test: re-loading an already-seen defun with the
// cache on must record a cache probe but skip the middle end entirely —
// no optimize/analysis/emit spans for the hit.
func TestCacheHitSkipsMiddleEndSpans(t *testing.T) {
	r := obs.NewRecorder()
	sys := NewSystem(withDisk(t, Options{Obs: r}))
	src := "(defun obs-hit (x) (+ x 1))\n"
	if err := sys.LoadString(src); err != nil {
		t.Fatal(err)
	}
	if n := r.CountSpans("obs-hit", "optimize"); n != 1 {
		t.Fatalf("first load: %d optimize spans, want 1", n)
	}
	before := map[string]int{
		"cache-probe": r.CountSpans("obs-hit", "cache-probe"),
		"optimize":    r.CountSpans("obs-hit", "optimize"),
		"analysis":    r.CountSpans("obs-hit", "analysis"),
		"emit":        r.CountSpans("obs-hit", "emit"),
	}
	if err := sys.LoadString(src); err != nil {
		t.Fatal(err)
	}
	if got := r.CountSpans("obs-hit", "cache-probe"); got != before["cache-probe"]+1 {
		t.Fatalf("second load did not record a cache probe")
	}
	for _, phase := range []string{"optimize", "analysis", "emit"} {
		if got := r.CountSpans("obs-hit", phase); got != before[phase] {
			t.Fatalf("cache hit still ran %s (spans %d -> %d)", phase, before[phase], got)
		}
	}
	if sys.Stats().CompileCacheHits != 1 {
		t.Fatalf("expected exactly one cache hit, got %d", sys.Stats().CompileCacheHits)
	}
}

// The transcript satellite: with the per-unit buffering, an optimizer
// transcript produced under -jobs 4 must be byte-identical to the
// sequential one.
func TestTranscriptParallelByteIdentical(t *testing.T) {
	src := obsCorpus(12)
	out := map[int]string{}
	for _, jobs := range []int{1, 4} {
		var log bytes.Buffer
		sys := NewSystem(Options{Jobs: jobs, OptimizerLog: &log})
		if err := sys.LoadString(src); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		out[jobs] = log.String()
	}
	if out[1] == "" {
		t.Fatalf("sequential transcript is empty")
	}
	if out[1] != out[4] {
		t.Fatalf("transcripts differ:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s",
			out[1], out[4])
	}
}

// Race coverage: many batches compiled in sequence on a jobs=4 system
// with a live recorder; the -race CI run makes this meaningful.
func TestConcurrentSpanRecordingRace(t *testing.T) {
	r := obs.NewRecorder()
	sys := NewSystem(Options{Jobs: 4, Obs: r})
	for batch := 0; batch < 4; batch++ {
		var b strings.Builder
		for i := 0; i < 8; i++ {
			fmt.Fprintf(&b, "(defun race-%d-%d (x) (* (+ x %d) (+ x %d)))\n",
				batch, i, batch, i)
		}
		if err := sys.LoadString(b.String()); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.CountSpans("", "optimize"); got < 32 {
		t.Fatalf("expected >=32 optimize spans, got %d", got)
	}
}

// Loading with a nil recorder must work and record nothing — the
// disabled fast path used by every pre-existing caller.
func TestNilObsPath(t *testing.T) {
	sys := NewSystem(Options{Jobs: 4})
	if err := sys.LoadString(obsCorpus(4)); err != nil {
		t.Fatal(err)
	}
	if sys.Obs != nil {
		t.Fatalf("system invented a recorder")
	}
}
