package main

import (
	"fmt"
	"math/rand"

	"repro/internal/sexp"
)

// kernel is one program of the run workload: its source, the driver the
// round calls, the driver's arguments, and the machine's GC threshold.
type kernel struct {
	name string
	src  string
	fn   string
	args []string
	// consts builds the kernel's compile-time constants (nil = none);
	// each system gets its own copy because the kernel writes into them.
	consts func() map[string]sexp.Value
	// gcAt is the kernel's automatic-collection threshold in heap words
	// (the allocation-heavy kernels run in free-list steady state, as in
	// the repository's runtime benchmarks); 0 leaves the machine default.
	gcAt int64
}

// The paper kernels (exptl, quadratic, testfn, matrix-subscript) are the
// sources of the E1/E3/E7 experiments and the §6.1 triple loop; tak, fib
// and deriv are Gabriel-style programs; poly-call exercises call inline
// caches; gc-cons keeps a 20k-cons resident set under short-lived
// garbage. Each driver loops k times and returns its last result, so the
// round checks a real value. testfn nests its three-operand float sums
// because the interpreter's +$f and *$f take two operands.
const exptlSrc = `
(defun exptl (x n a)
  (cond ((zerop n) a)
        ((oddp n) (exptl (* x x) (floor n 2) (* a x)))
        (t (exptl (* x x) (floor n 2) a))))
(defun exptl-driver (k x)
  (prog (i r)
    (setq i 0)
   loop
    (if (>=& i k) (return r) nil)
    (setq r (exptl x 40 1))
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
(defun quadratic-driver (k a b c)
  (prog (i r)
    (setq i 0)
   loop
    (if (>=& i k) (return r) nil)
    (quadratic 1.0 2.0 1.0)
    (quadratic 1.0 0.0 1.0)
    (setq r (quadratic a b c))
    (setq i (+& i 1))
    (go loop)))`

const testfnSrc = `
(defun frotz (a b c) nil)
(defun testfn (a &optional (b 3.0) (c a))
  (let ((d (+$f (+$f a b) c)) (e (*$f (*$f a b) c)))
    (let ((q (sin$f e)))
      (frotz d e (max$f d e))
      q)))
(defun testfn-driver (k x)
  (prog (i r)
    (setq i 0)
   loop
    (if (>=& i k) (return r) nil)
    (setq r (testfn x))
    (setq i (+& i 1))
    (go loop)))`

const matrixSrc = `
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
        (go iloop)))))
(defun matrix-driver (k)
  (prog (i)
    (setq i 0)
   loop
    (if (>=& i k) (return (+$f (aref$f zarr 3 5) (aref$f zarr 15 15))) nil)
    (matrix-subscript)
    (setq i (+& i 1))
    (go loop)))`

const takSrc = `
(defun tak (x y z)
  (if (not (< y x))
      z
      (tak (tak (- x 1) y z)
           (tak (- y 1) z x)
           (tak (- z 1) x y))))
(defun tak-driver (k)
  (prog (i r)
    (setq i 0)
   loop
    (if (>=& i k) (return r) nil)
    (setq r (tak 12 8 4))
    (setq i (+& i 1))
    (go loop)))`

const fibSrc = `
(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(defun fib-driver (k n)
  (prog (i r)
    (setq i 0)
   loop
    (if (>=& i k) (return r) nil)
    (setq r (fib n))
    (setq i (+& i 1))
    (go loop)))`

const derivSrc = `
(defun deriv-list (l)
  (if (null l) nil (cons (deriv (car l)) (deriv-list (cdr l)))))
(defun deriv-times (a l)
  (if (null l) nil
      (cons (list '/ (deriv (car l)) (car l)) (deriv-times a (cdr l)))))
(defun deriv (a)
  (cond ((atom a) (if (eq a 'x) 1 0))
        ((eq (car a) '+) (cons '+ (deriv-list (cdr a))))
        ((eq (car a) '-) (cons '- (deriv-list (cdr a))))
        ((eq (car a) '*) (list '* a (cons '+ (deriv-times a (cdr a)))))
        ((eq (car a) '/)
         (list '- (list '/ (deriv (cadr a)) (caddr a))
               (list '/ (cadr a) (list '* (caddr a) (caddr a) (deriv (caddr a))))))
        (t 'error)))
(defun deriv-driver (k e)
  (prog (i r)
    (setq i 0)
   loop
    (if (>=& i k) (return r) nil)
    (setq r (deriv e))
    (setq i (+& i 1))
    (go loop)))`

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
    (if (>=& i k) (return (length last)) nil)
    (setq last (build n))
    (setq i (+& i 1))
    (go loop)))
(setq *keep* (build 20000))`

// matrixConsts returns fresh compile-time arrays for matrix-subscript,
// filled from the seed.
func matrixConsts(seed int64) map[string]sexp.Value {
	r := rand.New(rand.NewSource(seed))
	mk := func() *sexp.FloatArray {
		fa := sexp.NewFloatArray([]int{16, 16})
		for i := range fa.Data {
			fa.Data[i] = float64(r.Intn(8)) * 0.25
		}
		return fa
	}
	return map[string]sexp.Value{
		"aarr": mk(), "barr": mk(), "carr": mk(),
		"zarr":   sexp.NewFloatArray([]int{16, 16}),
		"econst": sexp.Flonum(1.5),
	}
}

// runKernelSet returns the run workload's kernels. The seed picks input
// values that keep every kernel on the same control path, so the
// simulated work of a round is the same for every seed. The driver
// counts size the kernels to similar shares of a round of about 30 ms:
// long enough that a round spans many of the shared host's fast and
// slow phases, which keeps the round-latency median from jumping
// between them.
func runKernelSet(seed int64) []kernel {
	r := rand.New(rand.NewSource(seed))
	// quadratic: a > 0 and b*b > 4ac + 1 keep the two-root branch.
	qa := 1 + r.Intn(3)
	qb := -(4*qa + 2 + r.Intn(20))
	qc := 1 + r.Intn(2)
	coef := r.Intn(90) + 2
	mseed := r.Int63()
	return []kernel{
		{name: "exptl", src: exptlSrc, fn: "exptl-driver",
			args: []string{"500", fmt.Sprint(2 + r.Intn(2))}, gcAt: 8192},
		{name: "quadratic", src: quadraticSrc, fn: "quadratic-driver",
			args: []string{"600", fmt.Sprintf("%d.0", qa), fmt.Sprintf("%d.0", qb), fmt.Sprintf("%d.0", qc)},
			gcAt: 8192},
		{name: "testfn", src: testfnSrc, fn: "testfn-driver",
			args: []string{"3000", fmt.Sprintf("%d.125", r.Intn(4))}, gcAt: 8192},
		{name: "matrix-subscript", src: matrixSrc, fn: "matrix-driver",
			args: []string{"10"}, consts: func() map[string]sexp.Value { return matrixConsts(mseed) },
			gcAt: 16384},
		{name: "tak", src: takSrc, fn: "tak-driver", args: []string{"10"}},
		{name: "fib", src: fibSrc, fn: "fib-driver", args: []string{"10", "15"}},
		{name: "deriv", src: derivSrc, fn: "deriv-driver",
			args: []string{"120", fmt.Sprintf("(+ (* %d x x) (* a x x) (* b x) (/ x %d) %d)",
				coef, coef+1, coef+2)}, gcAt: 8192},
		{name: "poly-call", src: polyCallSrc, fn: "poly-driver",
			args: []string{"3000"}, gcAt: 8192},
		{name: "gc-cons", src: gcConsSrc, fn: "churn",
			args: []string{"180", "100"}, gcAt: 4096},
	}
}
