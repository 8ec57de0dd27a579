// Package repro's benchmark harness regenerates every experiment in
// EXPERIMENTS.md (the per-experiment index is in DESIGN.md §4). Each
// benchmark reports the simulator meters the corresponding paper claim is
// about: cycles, static MOV counts, heap (flonum) allocations, stack
// depth, deep-binding search steps. Run with:
//
//	go test -bench=. -benchmem
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
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/sexp"
	"repro/internal/tree"
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

// --- E1: preliminary conversion of quadratic (§4.1, Table 2) ---

const quadraticSrc = `
(defun quadratic (a b c)
  (let ((d (- (* b b) (* 4.0 a c))))
    (cond ((< d 0) '())
          ((= d 0) (list (/ (- b) (* 2.0 a))))
          (t (let ((2a (* 2.0 a)) (sd (sqrt d)))
               (list (/ (+ (- b) sd) 2a)
                     (/ (- (- b) sd) 2a)))))))`

func BenchmarkE1_Conversion(b *testing.B) {
	forms, err := sexp.ReadAll(quadraticSrc)
	if err != nil {
		b.Fatal(err)
	}
	var nodes int
	for i := 0; i < b.N; i++ {
		c := convert.New()
		p, err := c.ConvertTopLevel(forms)
		if err != nil {
			b.Fatal(err)
		}
		nodes = tree.CountNodes(p.Defs[0].Lambda)
	}
	b.ReportMetric(float64(nodes), "tree-nodes")
}

// --- E2: boolean short-circuiting (§5) ---

func BenchmarkE2_ShortCircuit(b *testing.B) {
	src := `(defun choose (a b c) (if (and a (or b c)) 'one 'two))`
	sys := mustSys(b, src, nil, nil)
	sys.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustCall(b, sys, "choose", sexp.T, sexp.Nil, sexp.T)
	}
	b.ReportMetric(float64(sys.Stats().Cycles)/float64(b.N), "cycles/op")
	b.ReportMetric(float64(sys.Stats().EnvAllocs), "closures-built")
}

// --- E3: tail recursion runs in constant stack (§2) ---

func BenchmarkE3_TailRecursion(b *testing.B) {
	src := `
(defun exptl (x n a)
  (cond ((zerop n) a)
        ((oddp n) (exptl (* x x) (floor n 2) (* a x)))
        (t (exptl (* x x) (floor n 2) a))))
(defun expt-rec (x n)
  (if (zerop n) 1 (* x (expt-rec x (- n 1)))))`
	sys := mustSys(b, src, nil, nil)
	b.Run("tail-exptl", func(b *testing.B) {
		sys.ResetStats()
		for i := 0; i < b.N; i++ {
			mustCall(b, sys, "exptl", sexp.Fixnum(2), sexp.Fixnum(1000), sexp.Fixnum(1))
		}
		b.ReportMetric(float64(sys.Stats().MaxStack), "max-stack-words")
		b.ReportMetric(float64(sys.Stats().Cycles)/float64(b.N), "cycles/op")
	})
	b.Run("nontail-baseline", func(b *testing.B) {
		sys.ResetStats()
		for i := 0; i < b.N; i++ {
			mustCall(b, sys, "expt-rec", sexp.Fixnum(2), sexp.Fixnum(1000))
		}
		b.ReportMetric(float64(sys.Stats().MaxStack), "max-stack-words")
		b.ReportMetric(float64(sys.Stats().Cycles)/float64(b.N), "cycles/op")
	})
}

// --- E4: the RT-register dance (§6.1) ---

const kernelSrc = `
(defun kernel ()
  (let ((n 16))
    (let ((i 0))
      (prog ()
       iloop
        (if (>=& i n) (return nil) nil)
        (let ((j 0))
          (prog ()
           jloop
            (if (>=& j n) (return nil) nil)
            (let ((k 0))
              (prog ()
               kloop
                (if (>=& k n) (return nil) nil)
                (aset$f zarr
                        (+$f (+$f (*$f (aref$f aarr i j) (aref$f barr j k))
                                  (aref$f carr i k))
                             econst)
                        i k)
                (setq k (+& k 1))
                (go kloop)))
            (setq j (+& j 1))
            (go jloop)))
        (setq i (+& i 1))
        (go iloop)))))`

func matrixConsts(n int) map[string]sexp.Value {
	mk := func() *sexp.FloatArray {
		fa := sexp.NewFloatArray([]int{n, n})
		for i := range fa.Data {
			fa.Data[i] = float64(i%7) * 0.25
		}
		return fa
	}
	return map[string]sexp.Value{
		"aarr": mk(), "barr": mk(), "carr": mk(),
		"zarr":   sexp.NewFloatArray([]int{n, n}),
		"econst": sexp.Flonum(1.5),
	}
}

func BenchmarkE4_RTRegisters(b *testing.B) {
	run := func(b *testing.B, opts *codegen.Options) {
		sys := mustSys(b, kernelSrc, opts, matrixConsts(16))
		movs, err := sys.StaticMOVs("kernel")
		if err != nil {
			b.Fatal(err)
		}
		sys.ResetStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustCall(b, sys, "kernel")
		}
		b.ReportMetric(float64(movs), "static-MOVs")
		b.ReportMetric(float64(sys.Stats().Cycles)/float64(b.N), "cycles/op")
	}
	b.Run("tnbind", func(b *testing.B) { run(b, nil) })
	b.Run("naive-alloc", func(b *testing.B) {
		o := codegen.DefaultOptions()
		o.UseTN = false
		run(b, &o)
	})
}

// --- E5: representation analysis (§6.2) ---

func BenchmarkE5_Representation(b *testing.B) {
	src := `
(defun dot (n)
  (let ((acc 0.0) (i 0))
    (prog ()
     loop
      (if (>=& i n) (return nil) nil)
      (setq acc (+$f acc (*$f (aref$f aarr 0 i) (aref$f barr 0 i))))
      (setq i (+& i 1))
      (go loop))
    acc))`
	run := func(b *testing.B, opts *codegen.Options) {
		sys := mustSys(b, src, opts, matrixConsts(16))
		sys.ResetStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustCall(b, sys, "dot", sexp.Fixnum(16))
		}
		n := float64(b.N)
		b.ReportMetric(float64(sys.Stats().Cycles)/n, "cycles/op")
		b.ReportMetric(float64(sys.Stats().FlonumAllocs)/n, "flonum-allocs/op")
	}
	b.Run("rep-analysis", func(b *testing.B) { run(b, nil) })
	b.Run("pointers-only", func(b *testing.B) {
		o := codegen.DefaultOptions()
		o.RepAnalysis = false
		o.PdlNumbers = false
		run(b, &o)
	})
}

// --- E6: pdl numbers (§6.3) ---

func BenchmarkE6_PdlNumbers(b *testing.B) {
	src := `
(defun observe (a b) nil)
(defun poly (x)
  (let ((d (+$f x 1.0)) (e (*$f x x)))
    (observe d e)
    (max$f d e)))`
	run := func(b *testing.B, opts *codegen.Options) {
		sys := mustSys(b, src, opts, nil)
		arg := sexp.Flonum(2.5)
		sys.ResetStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustCall(b, sys, "poly", arg)
		}
		n := float64(b.N)
		b.ReportMetric(float64(sys.Stats().FlonumAllocs)/n, "flonum-allocs/op")
		b.ReportMetric(float64(sys.Stats().Cycles)/n, "cycles/op")
		b.ReportMetric(float64(sys.Stats().Certifies)/n, "certifies/op")
	}
	b.Run("pdl-numbers", func(b *testing.B) { run(b, nil) })
	b.Run("heap-only", func(b *testing.B) {
		o := codegen.DefaultOptions()
		o.PdlNumbers = false
		run(b, &o)
	})
}

// --- E7: the whole §7 example ---

func BenchmarkE7_Testfn(b *testing.B) {
	src := `
(defun frotz (a b c) nil)
(defun testfn (a &optional (b 3.0) (c a))
  (let ((d (+$f a b c)) (e (*$f a b c)))
    (let ((q (sin$f e)))
      (frotz d e (max$f d e))
      q)))`
	sys := mustSys(b, src, nil, nil)
	arg := sexp.Flonum(0.5)
	sys.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustCall(b, sys, "testfn", arg)
	}
	n := float64(b.N)
	b.ReportMetric(float64(sys.Stats().Cycles)/n, "cycles/op")
	b.ReportMetric(float64(sys.Stats().FlonumAllocs)/n, "flonum-allocs/op")
}

// --- E8: numeric code quality — compiled vs interpreted vs native ---

func BenchmarkE8_NumericQuality(b *testing.B) {
	const n = 64
	src := `
(defun dot (n)
  (let ((acc 0.0) (i 0))
    (prog ()
     loop
      (if (>=& i n) (return nil) nil)
      (setq acc (+$f acc (*$f (aref$f aarr 0 i) (aref$f barr 0 i))))
      (setq i (+& i 1))
      (go loop))
    acc))`
	consts := matrixConsts(n)
	b.Run("compiled", func(b *testing.B) {
		sys := mustSys(b, src, nil, consts)
		sys.ResetStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustCall(b, sys, "dot", sexp.Fixnum(n))
		}
		b.ReportMetric(float64(sys.Stats().Cycles)/float64(b.N)/n, "cycles/element")
	})
	b.Run("interpreted", func(b *testing.B) {
		// The interpreter works on host arrays via generic aref$f.
		isrc := `
(defun idot (a c n)
  (let ((acc 0.0) (i 0))
    (prog ()
     loop
      (if (>=& i n) (return nil) nil)
      (setq acc (+$f acc (*$f (aref$f a 0 i) (aref$f c 0 i))))
      (setq i (+& i 1))
      (go loop))
    acc))`
		forms, _ := sexp.ReadAll(isrc)
		cv := convert.New()
		p, err := cv.ConvertTopLevel(forms)
		if err != nil {
			b.Fatal(err)
		}
		in := interp.New()
		if _, err := in.LoadProgram(p); err != nil {
			b.Fatal(err)
		}
		a := consts["aarr"]
		c := consts["barr"]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := in.CallNamed(sexp.Intern("idot"), a, c, sexp.Fixnum(n)); err != nil {
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
			for k := 0; k < n; k++ {
				acc += a[k] * c[k]
			}
		}
		_ = acc
	})
}

// --- E9: deep-binding lookup caching (§4.4) ---

func BenchmarkE9_DeepBinding(b *testing.B) {
	// Read a special repeatedly under k live unrelated bindings.
	mkSrc := func(k int) string {
		src := "(defvar *target* 7)\n"
		// Build k nested binders.
		open, close := "", ""
		for i := 0; i < k; i++ {
			open += fmt.Sprintf("(let ((*pad%d* %d)) ", i, i)
			close += ")"
		}
		src += `
(defun reader (n)
  (let ((acc 0) (i 0))
    (prog ()
     loop
      (if (>= i n) (return acc) nil)
      (setq acc (+ acc *target*))
      (setq i (+ i 1))
      (go loop))))
(defun run (n) ` + open + `(reader n)` + close + ")"
		return src
	}
	for _, k := range []int{4, 64, 512} {
		src := mkSrc(k)
		b.Run(fmt.Sprintf("cached/depth-%d", k), func(b *testing.B) {
			sys := mustSys(b, src, nil, nil)
			sys.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCall(b, sys, "run", sexp.Fixnum(100))
			}
			b.ReportMetric(float64(sys.Stats().SpecialSearchSteps)/float64(b.N), "probe-steps/op")
			b.ReportMetric(float64(sys.Stats().Cycles)/float64(b.N), "cycles/op")
		})
		b.Run(fmt.Sprintf("uncached/depth-%d", k), func(b *testing.B) {
			o := codegen.DefaultOptions()
			o.SpecialCaching = false
			sys := mustSys(b, src, &o, nil)
			sys.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustCall(b, sys, "run", sexp.Fixnum(100))
			}
			b.ReportMetric(float64(sys.Stats().SpecialSearchSteps)/float64(b.N), "probe-steps/op")
			b.ReportMetric(float64(sys.Stats().Cycles)/float64(b.N), "cycles/op")
		})
	}
}

// --- E10: phase structure / compile-time costs (Table 1) ---

func BenchmarkE10_PhaseCosts(b *testing.B) {
	src := quadraticSrc + `
(defun frotz (a b c) nil)
(defun testfn (a &optional (b 3.0) (c a))
  (let ((d (+$f a b c)) (e (*$f a b c)))
    (let ((q (sin$f e)))
      (frotz d e (max$f d e))
      q)))`
	configs := []struct {
		name string
		mk   func() codegen.Options
	}{
		{"all", codegen.DefaultOptions},
		{"no-optimize", func() codegen.Options {
			o := codegen.DefaultOptions()
			o.Optimize = false
			return o
		}},
		{"no-machine-phases", func() codegen.Options {
			return codegen.Options{Optimize: true}
		}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := cfg.mk()
				sys := core.NewSystem(core.Options{Codegen: &o})
				if err := sys.LoadString(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E11: beta-conversion engine throughput (§5) ---

func BenchmarkE11_BetaConversion(b *testing.B) {
	src := `(lambda (a b c d)
	  (let ((x (+ a 1)))
	    (let ((y x))
	      (let ((f (lambda (q) (+ q y))))
	        (if (and a (or b (and c d))) (f x) (f y))))))`
	form := mustRead(src)
	applied := 0
	for i := 0; i < b.N; i++ {
		c := convert.New()
		n, err := c.ConvertForm(form)
		if err != nil {
			b.Fatal(err)
		}
		o := opt.New(opt.DefaultOptions())
		o.Optimize(n)
		applied = 0
		for _, v := range o.Applied {
			applied += v
		}
	}
	b.ReportMetric(float64(applied), "transformations")
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
	b.Run("compiled", func(b *testing.B) {
		sys := mustSys(b, takSrc, nil, nil)
		sys.ResetStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustCall(b, sys, "tak", sexp.Fixnum(12), sexp.Fixnum(8), sexp.Fixnum(4))
		}
		b.ReportMetric(float64(sys.Stats().Cycles)/float64(b.N), "cycles/op")
	})
	b.Run("interpreted", func(b *testing.B) {
		forms, _ := sexp.ReadAll(takSrc)
		c := convert.New()
		p, _ := c.ConvertTopLevel(forms)
		in := interp.New()
		if _, err := in.LoadProgram(p); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := in.CallNamed(sexp.Intern("tak"),
				sexp.Fixnum(12), sexp.Fixnum(8), sexp.Fixnum(4)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGabrielFib(b *testing.B) {
	b.Run("compiled", func(b *testing.B) {
		sys := mustSys(b, takSrc, nil, nil)
		sys.ResetStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustCall(b, sys, "fib", sexp.Fixnum(15))
		}
		b.ReportMetric(float64(sys.Stats().Cycles)/float64(b.N), "cycles/op")
	})
	b.Run("interpreted", func(b *testing.B) {
		forms, _ := sexp.ReadAll(takSrc)
		c := convert.New()
		p, _ := c.ConvertTopLevel(forms)
		in := interp.New()
		if _, err := in.LoadProgram(p); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := in.CallNamed(sexp.Intern("fib"), sexp.Fixnum(15)); err != nil {
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

// BenchmarkCompileCached reloads the same source into one system with a
// compile cache (a DiskCache on a temporary directory): the warm-up load
// compiles and stores every definition, and each timed reload rebinds
// them to the bodies the system already installed, skipping the middle
// end and code generation entirely without touching the disk.
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
			MaxHeapWords: 4096, HotThreshold: -1, Flight: flight,
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

// mustRead parses one form, panicking on error — a test-table
// convenience; the production reader paths all return errors.
func mustRead(src string) sexp.Value {
	v, err := sexp.ReadOne(src)
	if err != nil {
		panic(err)
	}
	return v
}
