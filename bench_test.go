// Package repro's host-time benchmarks: the experiments' wall-clock
// figures (E1 conversion, E8's interpreter and native Go baselines, E10
// phase costs), the Gabriel kernels, the compile pipeline and the flight
// recorder. The experiments' exact simulated counts are not benchmarks:
// TestExperiments (experiments_test.go) checks them in plain go test.
// Run with:
//
//	go test -run xxx -bench . -benchmem
package repro

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/compilecache"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/sexp"
)

func mustSys(b *testing.B, src string, opts *codegen.Options, consts map[string]sexp.Value) *core.System {
	b.Helper()
	sys := core.NewSystem(core.Options{Codegen: opts, Constants: consts})
	if err := sys.LoadString(src); err != nil {
		b.Fatal(err)
	}
	return sys
}

func mustCall(b *testing.B, sys *core.System, fn string, args ...sexp.Value) sexp.Value {
	b.Helper()
	v, err := sys.Call(fn, args...)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// mustInterp loads src, with consts, into a fresh reference interpreter.
func mustInterp(b *testing.B, src string, consts map[string]sexp.Value) *interp.Interp {
	b.Helper()
	forms, err := sexp.ReadAll(src)
	if err != nil {
		b.Fatal(err)
	}
	cv := convert.New()
	if consts != nil {
		cv.Constants = map[*sexp.Symbol]sexp.Value{}
		for name, v := range consts {
			cv.Constants[sexp.Intern(name)] = v
		}
	}
	p, err := cv.ConvertTopLevel(forms)
	if err != nil {
		b.Fatal(err)
	}
	in := interp.New()
	if _, err := in.LoadProgram(p); err != nil {
		b.Fatal(err)
	}
	return in
}

// --- Host-time figures of the experiments; their exact counts are rows
// of experiments_test.go, checked by TestExperiments ---

// BenchmarkE1_Conversion times converting quadratic (§4.1, Table 2).
func BenchmarkE1_Conversion(b *testing.B) {
	forms, err := sexp.ReadAll(experimentRow("E1/quadratic").src)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := convert.New().ConvertTopLevel(forms); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8_NumericQuality times the E8 dot product on the simulator
// against its baselines: the reference interpreter over the same source
// and constants, and a native Go loop (the Algol-family stand-in). Its
// simulated cycles are the E8/compiled row of TestExperiments.
func BenchmarkE8_NumericQuality(b *testing.B) {
	row := experimentRow("E8/compiled")
	consts := difftest.MatrixConsts(row.consts)
	args, err := sexp.ReadAll(row.args)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("compiled", func(b *testing.B) {
		sys := mustSys(b, row.src, nil, consts)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustCall(b, sys, row.fn, args...)
		}
	})
	b.Run("interpreted", func(b *testing.B) {
		in := mustInterp(b, row.src, consts)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := in.CallNamed(sexp.Intern(row.fn), args...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("native-go", func(b *testing.B) {
		a := consts["aarr"].(*sexp.FloatArray).Data
		c := consts["barr"].(*sexp.FloatArray).Data
		var acc float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			acc = 0
			for k := 0; k < row.consts; k++ {
				acc += a[k] * c[k]
			}
		}
		_ = acc
	})
}

// BenchmarkE10_PhaseCosts times compiling the quadratic and testfn rows
// with all phases, without the optimizer, and without the machine
// phases (Table 1).
func BenchmarkE10_PhaseCosts(b *testing.B) {
	src := experimentRow("E1/quadratic").src + experimentRow("E7/testfn").src
	noOpt := codegen.DefaultOptions()
	noOpt.Optimize = false
	configs := []struct {
		name string
		opts codegen.Options
	}{
		{"all", codegen.DefaultOptions()},
		{"no-optimize", noOpt},
		{"no-machine-phases", codegen.Options{Optimize: true}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := cfg.opts
				sys := core.NewSystem(core.Options{Codegen: &o})
				if err := sys.LoadString(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Gabriel-style benchmarks: TAK and FIB, compiled vs interpreted ---

const takSrc = `
(defun tak (x y z)
  (if (not (< y x))
      z
      (tak (tak (- x 1) y z)
           (tak (- y 1) z x)
           (tak (- z 1) x y))))
(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))`

func BenchmarkGabrielTak(b *testing.B) {
	benchGabriel(b, "tak", sexp.Fixnum(12), sexp.Fixnum(8), sexp.Fixnum(4))
}

func BenchmarkGabrielFib(b *testing.B) { benchGabriel(b, "fib", sexp.Fixnum(15)) }

// benchGabriel times one takSrc call compiled, reporting its simulated
// cycles, and interpreted.
func benchGabriel(b *testing.B, fn string, args ...sexp.Value) {
	b.Run("compiled", func(b *testing.B) {
		sys := mustSys(b, takSrc, nil, nil)
		sys.ResetStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustCall(b, sys, fn, args...)
		}
		b.ReportMetric(float64(sys.Stats().Cycles)/float64(b.N), "cycles/op")
	})
	b.Run("interpreted", func(b *testing.B) {
		in := mustInterp(b, takSrc, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := in.CallNamed(sexp.Intern(fn), args...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Compile pipeline: throughput and cache (parallel middle end) ---

// genCompileCorpus builds n distinct defuns by cycling body templates and
// varying embedded constants, so every function is a separate compilation
// unit with real optimizer work (lets to substitute, boolean forms to
// short-circuit, loops, float chains).
func genCompileCorpus(n int) string {
	templates := []string{
		`(defun gen-%d (x y)
  (let ((a (+ x %d)) (b (* y %d)))
    (if (and (> a 0) (or (< b %d) (> x y)))
        (+ (* a a) (* b b))
        (- (* a b) %d))))`,
		`(defun gen-%d (x)
  (let ((d (- (* x x) (* 4.0 x %d.0))))
    (cond ((< d 0) '())
          ((= d 0) (list (/ (- x) 2.0)))
          (t (let ((sd (sqrt d))) (list (+ x sd) (- x %d.0) (* sd %d.0)))))))`,
		`(defun gen-%d (n)
  (prog (i s)
    (setq i 0 s %d)
   loop
    (if (> i n) (return s) nil)
    (setq s (+ s (* i %d)) i (+ i 1))
    (go loop)))`,
		`(defun gen-%d (x)
  (let ((a (+$f x %d.0)) (b (*$f x x)))
    (sqrt$f (+$f (*$f a a) (+$f (*$f b b) %d.0)))))`,
		`(defun gen-%d (k)
  (caseq k ((1 2 3) (+ k %d)) (10 (* k %d)) (t (- k %d))))`,
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		t := templates[i%len(templates)]
		switch strings.Count(t, "%d") - 1 {
		case 2:
			fmt.Fprintf(&sb, t, i, i+1, i+2)
		case 3:
			fmt.Fprintf(&sb, t, i, i+1, i+2, i+3)
		default:
			fmt.Fprintf(&sb, t, i, i+1, i+2, i+3, i+4)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// BenchmarkCompileThroughput compiles N distinct defuns cold, comparing
// the sequential middle end (Jobs=1) against the worker pool (Jobs=0 =
// GOMAXPROCS). Both modes produce byte-identical machine images (see
// core's TestParallelListingsMatchSequential); only wall clock differs.
func BenchmarkCompileThroughput(b *testing.B) {
	const nForms = 64
	src := genCompileCorpus(nForms)
	for _, mode := range []struct {
		name   string
		jobs   int
		traced bool
	}{{"sequential", 1, false}, {"parallel", 0, false}, {"parallel-traced", 0, true}} {
		b.Run(mode.name, func(b *testing.B) {
			if mode.jobs == 0 && runtime.GOMAXPROCS(0) == 1 {
				// With one scheduler thread the worker pool degenerates to
				// sequential compilation plus channel overhead; the number
				// would not measure parallel speedup, so don't record one.
				b.Skip("GOMAXPROCS=1: parallel mode cannot demonstrate speedup")
			}
			for i := 0; i < b.N; i++ {
				o := core.Options{Jobs: mode.jobs}
				if mode.traced {
					o.Obs = obs.NewRecorder()
				}
				sys := core.NewSystem(o)
				if err := sys.LoadString(src); err != nil {
					b.Fatal(err)
				}
				if mode.traced && sys.Obs.CountSpans("", "optimize") != nForms {
					b.Fatal("traced run lost spans")
				}
			}
			b.ReportMetric(float64(nForms)*float64(b.N)/b.Elapsed().Seconds(), "forms/sec")
		})
	}
}

// BenchmarkCompileCached loads one generated source three ways. cold
// compiles it into a fresh system with no cache. warm-disk is what
// `slc -cache-dir` does on a directory an earlier load filled: each
// iteration opens a fresh Disk handle (so nothing is served from a
// process-wide layer) and loads into a fresh system, which reads,
// verifies and replays every entry file. cached reloads the source into
// one system with a cache: each timed reload rebinds the definitions to
// the bodies the system already installed, touching no disk.
func BenchmarkCompileCached(b *testing.B) {
	const nForms = 64
	src := genCompileCorpus(nForms)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys := core.NewSystem(core.Options{Jobs: 1})
			if err := sys.LoadString(src); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(nForms)*float64(b.N)/b.Elapsed().Seconds(), "forms/sec")
	})
	b.Run("warm-disk", func(b *testing.B) {
		dir := b.TempDir()
		load := func() *core.System {
			d, err := compilecache.OpenDisk(dir, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			sys := core.NewSystem(core.Options{Jobs: 1, DiskCache: d})
			if err := sys.LoadString(src); err != nil {
				b.Fatal(err)
			}
			return sys
		}
		load()
		b.ResetTimer()
		var sys *core.System
		for i := 0; i < b.N; i++ {
			sys = load()
		}
		b.StopTimer()
		if st := sys.Stats(); st.CompileCacheMisses != 0 {
			b.Fatalf("warm load missed %d of %d entries", st.CompileCacheMisses, st.CompileCacheHits+st.CompileCacheMisses)
		}
		b.ReportMetric(float64(nForms)*float64(b.N)/b.Elapsed().Seconds(), "forms/sec")
	})
	b.Run("cached", func(b *testing.B) {
		d, err := compilecache.OpenDisk(b.TempDir(), nil)
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		sys := core.NewSystem(core.Options{Jobs: 1, DiskCache: d})
		if err := sys.LoadString(src); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sys.LoadString(src); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := sys.Stats()
		total := st.CompileCacheHits + st.CompileCacheMisses
		b.ReportMetric(float64(st.CompileCacheHits)/float64(total), "hit-rate")
		b.ReportMetric(float64(nForms)*float64(b.N)/b.Elapsed().Seconds(), "forms/sec")
	})
}

// --- Observability: flight-recorder overhead (DESIGN.md §13) ---

// BenchmarkObsOverhead measures the cost of the always-on flight
// recorder on a GC- and tier-active kernel: each run conses garbage
// under a small heap budget so every collection and promotion lands an
// event in the ring. The acceptance budget is ≤3% over the recorder-off
// baseline; in practice the cost is a nil-check plus an atomic store on
// events that are orders of magnitude rarer than instructions.
func BenchmarkObsOverhead(b *testing.B) {
	const churnSrc = `
(defun churn (n)
  (prog (i)
    (setq i 0)
   loop
    (cons i i)
    (setq i (+ i 1))
    (if (< i n) (go loop))
    (return i)))`
	run := func(b *testing.B, flight *obs.Flight) {
		sys := core.NewSystem(core.Options{
			MaxHeapWords: 4096, Flight: flight,
		})
		if err := sys.LoadString(churnSrc); err != nil {
			b.Fatal(err)
		}
		sys.ResetStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustCall(b, sys, "churn", sexp.Fixnum(10000))
		}
		b.ReportMetric(float64(sys.Stats().Cycles)/float64(b.N), "cycles/op")
		if flight != nil {
			b.ReportMetric(float64(flight.Len())/float64(b.N), "events/op")
		}
	}
	b.Run("recorder-off", func(b *testing.B) { run(b, nil) })
	b.Run("recorder-on", func(b *testing.B) {
		run(b, obs.NewFlight(obs.DefaultFlightSize))
	})
}
