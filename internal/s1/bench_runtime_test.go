// Runtime benchmark suite for the S-1 simulator (the execution-side
// companion of the compile benchmarks in the repo root): the paper's four
// kernels — tail-recursive exptl, quadratic, the §7 testfn, and the
// Table-4 matrix-subscript kernel — plus a cons-heavy GC workload and a
// polymorphic-call kernel. Each kernel runs compiled on the simulator in
// two engine configurations — tiered (default: hot-function block
// lowering) and -notier (plain pre-decoded dispatch) — reporting
// simulated steps/sec (instructions retired per wall-clock second — the
// interpreter-overhead metric BENCH_runtime.json tracks) and cycles/op.
// Every configuration gets the same warm-up past the default promotion
// threshold, so the timed region measures each engine's steady state.
//
// The external test package lets the suite drive the full compiler
// (core imports s1, so an in-package benchmark could not).
//
//	go test -bench BenchmarkRuntime -benchtime=1x ./internal/s1/
package s1_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/s1"
	"repro/internal/sexp"
)

// The paper kernels. exptl/quadratic/testfn are the sources used by the
// E3/E1/E7 experiments; matrix-subscript is the §6.1 triple loop whose
// inner statement is the Table-4 open-coded subscript code (the same
// kernel examples/matrix-subscript runs standalone).

const exptlSrc = `
(defun exptl (x n a)
  (cond ((zerop n) a)
        ((oddp n) (exptl (* x x) (floor n 2) (* a x)))
        (t (exptl (* x x) (floor n 2) a))))
(defun exptl-driver (k)
  (prog (i)
    (setq i 0)
   loop
    (if (>=& i k) (return nil) nil)
    (exptl 2 60 1)
    (setq i (+& i 1))
    (go loop)))`

const quadraticSrc = `
(defun quadratic (a b c)
  (let ((d (- (* b b) (* 4.0 a c))))
    (cond ((< d 0) '())
          ((= d 0) (list (/ (- b) (* 2.0 a))))
          (t (let ((2a (* 2.0 a)) (sd (sqrt d)))
               (list (/ (+ (- b) sd) 2a)
                     (/ (- (- b) sd) 2a)))))))
(defun quadratic-driver (k)
  (prog (i)
    (setq i 0)
   loop
    (if (>=& i k) (return nil) nil)
    (quadratic 1.0 -3.0 2.0)
    (quadratic 1.0 2.0 1.0)
    (quadratic 1.0 0.0 1.0)
    (quadratic 2.0 -7.0 3.0)
    (setq i (+& i 1))
    (go loop)))`

const testfnSrc = `
(defun frotz (a b c) nil)
(defun testfn (a &optional (b 3.0) (c a))
  (let ((d (+$f a b c)) (e (*$f a b c)))
    (let ((q (sin$f e)))
      (frotz d e (max$f d e))
      q)))
(defun testfn-driver (k)
  (prog (i)
    (setq i 0)
   loop
    (if (>=& i k) (return nil) nil)
    (testfn 0.5)
    (setq i (+& i 1))
    (go loop)))`

const matrixSubscriptSrc = `
(defun matrix-subscript ()
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

// gc-cons models a server-shaped heap: *keep*, built once at load, is
// the long-lived resident structure (a prelude, interned data); each
// churn call then allocates only short-lived garbage on top of it. A
// full collection must re-mark the whole resident set every time it
// runs; a minor collection marks and sweeps only the young garbage, so
// the kernel measures exactly the cost asymmetry generational GC buys.
const gcConsSrc = `
(defun build (n)
  (prog (acc i)
    (setq acc nil i 0)
   loop
    (if (>=& i n) (return acc) nil)
    (setq acc (cons i acc))
    (setq i (+& i 1))
    (go loop)))
(defun churn (k n)
  (prog (i last)
    (setq i 0)
   loop
    (if (>=& i k) (return last) nil)
    (setq last (build n))
    (setq i (+& i 1))
    (go loop)))
(setq *keep* (build 20000))`

// poly-call stresses the tier's call inline caches: mono-step's call to
// step1 is compiled before step1 exists, so it late-binds through the
// symbol's function cell (a symbol-keyed cache site that rebinding must
// invalidate — see polyRebindSrc); poly-step's funcall dispatches
// whatever function value arrives in a register, and the driver
// alternates inc and dbl there, so the register-keyed cache site sees a
// genuinely polymorphic callee.
const polyCallSrc = `
(defun inc (x) (+& x 1))
(defun dbl (x) (+& x x))
(defun poly-step (f x) (funcall f x))
(defun mono-step (x) (step1 x))
(defun poly-driver (k)
  (prog (i acc)
    (setq i 0)
    (setq acc 1)
   loop
    (if (>=& i k) (return acc) nil)
    (setq acc (mono-step acc))
    (setq acc (poly-step (if (oddp i) (function inc) (function dbl)) acc))
    (setq i (+& i 1))
    (go loop)))
(defun step1 (x) (if (>=& x 4097) 1 (inc x)))`

// polyRebindSrc redefines step1 (same body, new function index) after
// warm-up: the symbol's function cell moves, so mono-step's warmed
// symbol-keyed inline cache goes stale and the timed region pays the
// invalidate-and-refill path.
const polyRebindSrc = `
(defun step1 (x) (if (>=& x 4097) 1 (inc x)))`

func matrixSubscriptConsts(n int) map[string]sexp.Value {
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

// runtimeKernel describes one benchmark program: source, entry call, and
// optional system tweaks (constants, GC threshold).
type runtimeKernel struct {
	name   string
	src    string
	fn     string
	args   []sexp.Value
	consts map[string]sexp.Value
	gcAt   int64
	// rebind, when non-empty, is loaded after benchmark warm-up to move
	// a function's symbol cell under warmed call inline caches.
	rebind string
}

// runtimeKernels returns the suite. Allocation-heavy kernels get a GC
// threshold so they run in free-list steady state — without one the heap
// grows monotonically and the benchmark measures slice-growth copying
// instead of dispatch and allocator cost.
func runtimeKernels() []runtimeKernel {
	return []runtimeKernel{
		{name: "exptl", src: exptlSrc, fn: "exptl-driver",
			args: []sexp.Value{sexp.Fixnum(50)}},
		{name: "quadratic", src: quadraticSrc, fn: "quadratic-driver",
			args: []sexp.Value{sexp.Fixnum(50)}, gcAt: 8192},
		{name: "testfn", src: testfnSrc, fn: "testfn-driver",
			args: []sexp.Value{sexp.Fixnum(100)}, gcAt: 8192},
		{name: "matrix-subscript", src: matrixSubscriptSrc, fn: "matrix-subscript",
			consts: matrixSubscriptConsts(16), gcAt: 16384},
		{name: "gc-cons", src: gcConsSrc, fn: "churn",
			args: []sexp.Value{sexp.Fixnum(20), sexp.Fixnum(100)}, gcAt: 4096},
		{name: "poly-call", src: polyCallSrc, fn: "poly-driver",
			args: []sexp.Value{sexp.Fixnum(400)}, gcAt: 8192,
			rebind: polyRebindSrc},
	}
}

func benchKernel(b *testing.B, k runtimeKernel, opts core.Options) {
	b.Helper()
	opts.Constants = k.consts
	sys := core.NewSystem(opts)
	if k.gcAt > 0 {
		sys.Machine.SetGCThreshold(k.gcAt)
	}
	if err := sys.LoadString(k.src); err != nil {
		b.Fatal(err)
	}
	// Identical warm-up in every configuration: past the default
	// promotion threshold, so a tiered machine enters the timed region
	// with its hot functions already re-optimized, and the other
	// configurations have done the same work.
	for i := 0; i < s1.DefaultHotThreshold+1; i++ {
		if _, err := sys.Call(k.fn, k.args...); err != nil {
			b.Fatal(err)
		}
	}
	if k.rebind != "" {
		if err := sys.LoadString(k.rebind); err != nil {
			b.Fatal(err)
		}
	}
	sys.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Call(k.fn, k.args...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := sys.Stats()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(st.Instrs)/secs, "steps/sec")
	}
	b.ReportMetric(float64(st.Cycles)/float64(b.N), "cycles/op")
	if k.gcAt > 0 {
		b.ReportMetric(float64(sys.Machine.GCMeters.Collections), "collections")
		b.ReportMetric(float64(sys.Machine.GCMeters.MinorCollections), "minors")
	}
}

// BenchmarkRuntime is the suite behind BENCH_runtime.json: the four paper
// kernels plus the GC and polymorphic-call workloads, in the tiered and
// -notier (plain-dispatch) configurations.
func BenchmarkRuntime(b *testing.B) {
	for _, k := range runtimeKernels() {
		k := k
		b.Run(k.name+"/tiered", func(b *testing.B) {
			benchKernel(b, k, core.Options{})
		})
		b.Run(k.name+"/notier", func(b *testing.B) {
			benchKernel(b, k, core.Options{NoTier: true})
		})
	}
}
