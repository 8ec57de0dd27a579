package difftest

import "repro/internal/sexp"

// The hand-written programs: each pins shapes a past bug took, and
// TestDifferential runs each in every configuration.

// handwritten builds a program from its source and calls (parseCall).
func handwritten(name, src string, calls ...string) *Prog {
	p := &Prog{Name: name, Src: src, Small: true}
	for _, c := range calls {
		p.Calls = append(p.Calls, parseCall(c))
	}
	return p
}

// ListIdentity calls the fallback primitives whose results share
// structure with their arguments, then tests that identity or mutates
// through it. (append copies all but its last argument in both engines,
// but its result's tail is a marshaled copy in compiled code; DESIGN.md
// §10 lists it as a known difference.)
func ListIdentity() *Prog {
	return handwritten("list-identity", `
(defun id-cadr (x) (eq (cadr x) (cadr x)))
(defun id-eql (x) (eql (cadr x) (cadr x)))
(defun id-member (x) (eq (member '(2) x) (cdr x)))
(defun id-memq (x) (eq (memq (cadr x) x) (cdr x)))
(defun id-assoc (x) (eq (assoc 'b x) (cadr x)))
(defun id-assq (x) (eq (assq 'b x) (cadr x)))
(defun id-nthcdr (x) (eq (nthcdr 1 x) (cdr x)))
(defun id-nth (x) (eq (nth 1 x) (cadr x)))
(defun id-last (x) (eq (last x) (cddr x)))
(defun id-list* (x) (eq (cdr (list* 1 x)) x))
(defun id-list*1 (x) (eq (list* x) x))
(defun mut-caddr (x) (rplaca (caddr x) 99) x)
(defun mut-member (x) (rplaca (member 2 x) 20) x)
(defun mut-last (x) (rplacd (last x) (list 4)) x)
(defun mut-assq (x) (rplacd (assq 'a x) 10) x)`,
		"id-cadr (1 (2) 3)", "id-eql (1 (2) 3)", "id-member (1 (2) 3)", "id-memq (1 (2) 3)",
		"id-assoc ((a . 1) (b . 2))", "id-assq ((a . 1) (b . 2))", "id-nthcdr (1 2 3)",
		"id-nth ((1) (2) (3))", "id-last (1 2 3)", "id-list* (2 3)", "id-list*1 (2 3)",
		"mut-caddr ((1) 2 (3))", "mut-member (1 2 3)", "mut-last (1 2 3)", "mut-assq ((a . 1) (b . 2))")
}

// SymbolCells reads and writes special variables through the
// symbol-value, set and boundp primitives, and spreads arguments with
// apply: compiled code must answer from the machine's own value cells
// and dynamic bindings, and spread (apply f a … lst) on the machine.
func SymbolCells() *Prog {
	return handwritten("symbol-cells", `
(defvar *x* 5)
(defun add3 (a b c) (+ a b c))
(defun sv () (symbol-value '*x*))
(defun bp () (list (boundp '*x*) (boundp '*nope*)))
(defun st () (progn (set '*x* 7) *x*))
(defun dyn () (let ((*x* 9)) (list (symbol-value '*x*) (progn (set '*x* 10) *x*) (boundp '*x*))))
(defun after-dyn () (list (dyn) *x* (symbol-value '*x*)))
(defun sv-unbound () (symbol-value '*nope*))
(defun ap-fn (x) (apply #'add3 1 x '(3)))
(defun ap-prim (x) (apply #'+ 1 2 x))
(defun ap-list (x) (apply #'list 'a 'b x))
(defun ap-lambda () (apply (lambda (a b c) (list c b a)) 1 2 '(3)))
(defun ap-flo (x) (apply #'list (*$f x 2.0) (+$f x 1.0) nil))`,
		"sv", "bp", "st", "sv", "after-dyn", "sv-unbound",
		"ap-fn 2", "ap-prim (3 4)", "ap-list (c)", "ap-lambda", "ap-flo 1.5")
}

// ShadowedPrim redefines the fallback primitive reverse and calls it
// through the primitive's inline gateway while values sit in registers:
// the code generator treats the gateway as a system routine, which
// preserves the general registers, and the definition's own code
// allocates from the same ones, so a value live across the gateway's
// call must keep its register.
func ShadowedPrim() *Prog {
	return handwritten("shadowed-prim", `
(defun reverse (x)
  (let ((a (car x)) (b (cadr x)))
    (list (+ a b) (* a b) (- a b) (+ a 1) (+ b 1))))
(defun keep (x)
  (let ((y (* (car x) 3)) (z (+ (cadr x) 7)))
    (list y z (reverse x) y z)))
(defun keep-loop (x n acc)
  (if (= n 0) acc (keep-loop x (- n 1) (+ acc n (car (reverse x))))))
(defun keep-flo (x f)
  (let ((g (*$f f 2.0)))
    (reverse x)
    (+$f g 1.0)))`,
		"keep (2 5)", "keep-loop (2 5) 50 0", "keep-flo (2 5) 1.5", "keep (4 6)")
}

// PdlEscape stores pdl numbers (§6.3: flonums stack-allocated in the
// caller's frame) into new heap objects — a cons, a list, an &rest list,
// a list* — or a special variable, or returns them, each outliving the
// frame, so each number must be copied into the heap first. q and tl
// pass theirs by tail calls, which rebuild the frame over the caller's
// pdl slots; identity and (list* x) return their argument itself.
func PdlEscape() *Prog {
	return handwritten("pdl-escape", `
(defun c (f) (let ((g (*$f f 2.0))) (cons g (+$f g 1.0))))
(defun a (f) (let ((g (*$f f 2.0))) (list g (+$f g 1.0))))
(defun r (&rest xs) xs)
(defun q (f) (let ((g (*$f f 2.0))) (r g (+$f g 1.0))))
(defun qq (f) (let ((g (*$f f 2.0))) (car (r g (+$f g 1.0)))))
(defun opt (a &optional (b 0.0)) (list a b))
(defun tl (f) (let ((g (*$f f 2.0))) (opt g)))
(defun ls (f) (let ((g (*$f f 2.0))) (list* g)))
(defun ls2 (f) (let ((g (*$f f 2.0))) (list* g (+$f g 1.0) nil)))
(defun lsk (f) (let ((k (list 0))) (rplaca k (ls f)) (ls (+$f f 1.0)) k))
(defun lsr (f) (let ((g (*$f f 2.0)) (k (list 0))) (rplaca k (list* g)) k))
(defvar *esc* nil)
(defun sp (f) (let ((g (*$f f 2.0))) (setq *esc* (list* g)) nil))
(defun si (f) (let ((g (*$f f 2.0))) (setq *esc* (identity g)) nil))
(defun clob (a b c d e) (list a b c d e))
(defun spk (f)
  (sp f) (clob 1 2 3 4 5)
  (let ((x *esc*)) (si f) (clob 6 7 8 9 10) (list x *esc*)))`,
		"c 1.5", "a 1.5", "q 1.5", "qq 1.5", "tl 1.5", "c -0.25",
		"ls 1.5", "ls2 1.5", "lsk 1.5", "lsr 1.5", "spk 1.5")
}

// Corpus is one small program per core language feature: arithmetic
// across representations, recursion, conditionals, let, do, &optional,
// caseq, catch/throw, bignum and ratio expt, flonum transcendental
// functions, a closure passed to a function, and apply.
func Corpus() []*Prog {
	return []*Prog{
		handwritten("corpus-cons", "(defun f (x y) (cons (+ x y) (list x y)))", "f 1 2", "f 1.5 -2"),
		handwritten("corpus-recursion", "(defun f (n) (if (zerop n) '() (cons n (f (- n 1)))))", "f 7"),
		handwritten("corpus-and-or", "(defun f (a b c) (if (and a (or b c)) (list a) (list b c)))",
			"f t nil t", "f nil t t", "f t nil nil"),
		handwritten("corpus-let", "(defun f (x) (let ((a (* x 2)) (b (+ x 1))) (- a b)))", "f 10", "f -3"),
		handwritten("corpus-do", "(defun f (l) (do ((p l (cdr p)) (n 0 (+ n 1))) ((null p) n)))", "f (a b c d)", "f nil"),
		handwritten("corpus-optional", "(defun f (x &optional (y (* x 10))) (+ x y))", "f 5", "f 5 1"),
		handwritten("corpus-caseq", "(defun f (x) (caseq x (1 'one) ((2 3) 'few) (t 'many)))", "f 1", "f 3", "f 9"),
		handwritten("corpus-catch", "(defun f (x) (catch 'k (if x (throw 'k 'thrown) 'normal)))", "f t", "f nil"),
		handwritten("corpus-expt", "(defun f (x) (expt x 7))", "f 3", "f 1/2"),
		handwritten("corpus-sin", "(defun f (s) (let ((q (sin$f s))) (+$f q q)))", "f 0.5", "f -2.25"),
		handwritten("corpus-closure", "(defun g (h) (funcall h 10))\n(defun f (n) (g (lambda (x) (+ x n))))", "f 32"),
		handwritten("corpus-apply", "(defun f (x) (apply #'+ (list x 2 3)))", "f 1"),
	}
}

// KitchenSink combines closures, specials, catch/throw, prog loops,
// optionals, rest args, macros and flonum arithmetic in one program.
func KitchenSink() *Prog {
	return handwritten("kitchen-sink", `
(defvar *trace* nil)
(defmacro note (x) `+"`"+`(setq *trace* (cons ,x *trace*)))
(defun make-acc (init)
  (lambda (dx) (setq init (+ init dx)) init))
(defun walk (l f)
  (prog (out)
   loop
    (if (null l) (return (reverse out)) nil)
    (setq out (cons (funcall f (car l)) out))
    (setq l (cdr l))
    (go loop)))
(defun risky (x limit)
  (catch 'overflow
    (let ((acc (make-acc 0)))
      (walk x (lambda (v)
                (note v)
                (let ((s (funcall acc v)))
                  (if (> s limit) (throw 'overflow 'too-big) s)))))))
(defun poly2 (x &optional (a 1.0) (b 0.0))
  (+$f (*$f a (*$f x x)) (+$f (*$f b x) 1.0)))
(defun driver (&rest xs)
  (list (risky xs 9)
        (risky xs 1000)
        *trace*
        (poly2 2.0)
        (poly2 2.0 3.0 0.5)))`, "driver 1 2 3 4")
}

// Survivors keeps a closure, a special's list and boxed literals alive
// across collections: churn2 conses garbage under a low threshold while
// its closure and *acc* must survive, and qd and q1 box flonum literals
// and arguments that live only on the host side until the body is
// installed or the argument pushed.
func Survivors() *Prog {
	p := handwritten("survivors", `
(defvar *acc* nil)
(defun note (x) (setq *acc* (cons x *acc*)))
(defun mk (n) (lambda () n))
(defun churn2 (n)
  (let ((f (mk n)) (i 0))
    (prog ()
     loop
      (if (>= i n) (return (list (funcall f) (length *acc*))) nil)
      (cons i i)
      (note i)
      (setq i (+ i 1))
      (go loop))))
(defun q1 (a b c) (- (* b b) (* 4.0 a c)))
(defun q4 (a c) (* 4.0 a c))
(defun qd () (list (q1 1.0 -3.0 2.0) (q4 1.0 2.0) (caseq 2.5 (1.5 'a) (2.5 'b) (t 'c))))`,
		"churn2 100", "qd", "q1 1.0 -3.0 2.0")
	p.GCThreshold = 128
	return p
}

// PrimArgs nests fallback primitives whose arguments are other fallback
// primitives' results, called directly and through #' stubs.
func PrimArgs() *Prog {
	return handwritten("prim-args", `
(defun nest (a b)
  (append (reverse (append a b)) (list (length (append b a)) (apply (function append) (list a b)))))
(defun via-stub (f a b) (funcall f (funcall f a b) (reverse b)))
(defun stubbed (a b) (via-stub (function append) a b))`,
		"nest (1 2) (3)", "stubbed (1 2) (3)")
}

// The paper's worked examples, shared by the experiment table and the
// runtime kernels: the §4.1 quadratic, the §7 testfn, the Table-4
// matrix-subscript triple loop over the constant arrays aarr, barr,
// carr and zarr, and the §6.3 poly whose pointer-form floats stay pdl
// numbers.
const (
	QuadraticSrc = `
(defun quadratic (a b c)
  (let ((d (- (* b b) (* 4.0 a c))))
    (cond ((< d 0) '())
          ((= d 0) (list (/ (- b) (* 2.0 a))))
          (t (let ((2a (* 2.0 a)) (sd (sqrt d)))
               (list (/ (+ (- b) sd) 2a)
                     (/ (- (- b) sd) 2a)))))))`
	TestfnSrc = `
(defun frotz (a b c) nil)
(defun testfn (a &optional (b 3.0) (c a))
  (let ((d (+$f a b c)) (e (*$f a b c)))
    (let ((q (sin$f e)))
      (frotz d e (max$f d e))
      q)))`
	MatrixSubscriptSrc = `
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
	PolySrc = `
(defun observe (a b) nil)
(defun poly (x)
  (let ((d (+$f x 1.0)) (e (*$f x x)))
    (observe d e)
    (max$f d e)))`
)

// MatrixConsts returns the n×n static arrays aarr, barr, carr and zarr
// and the constant econst MatrixSubscriptSrc reads, or nil when n is 0.
func MatrixConsts(n int) map[string]sexp.Value {
	if n == 0 {
		return nil
	}
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

// Ablations are the programs of the phase ablations (E5, E6, E10 and
// CSE), which a test compiles with and without a phase: a flonum chain
// that boxes only its result under representation analysis; floats in
// pointer form that flow only to safe operations and so stay on the
// stack as pdl numbers; a float loop; and repeated subexpressions.
func Ablations() []*Prog {
	return []*Prog{
		handwritten("rep-chain", "(defun chain (x) (+$f (*$f x x) (+$f x 1.0)))", "chain 2.0"),
		handwritten("pdl-poly", PolySrc, "poly 2.0"),
		handwritten("float-loop", `
(defun work (n)
  (let ((acc 0.0))
    (dotimes (i n acc)
      (setq acc (+$f acc (sqrt$f (float (* i i))))))))`, "work 10"),
		handwritten("cse", `
(defun g (x) (* x x))
(defun f (a b)
  (+ (* (+ a b) (+ a b)) (* (+ a b) (+ a b))))`, "f 3 4"),
	}
}

// TailLoops are self tail recursions that must run in constant stack
// however far they go: the §2 exptl, bignums included (E3), and a
// 50,000-trip countdown. Handwritten leaves it out: that loop parked at
// every safepoint would cost TestDifferential a second, and the loops
// family draws tail loops in every configuration.
func TailLoops() *Prog {
	return handwritten("tail-loops", `
(defun exptl (x n a)
  (cond ((zerop n) a)
        ((oddp n) (exptl (* x x) (floor n 2) (* a x)))
        (t (exptl (* x x) (floor n 2) a))))
(defun countdown (n acc) (if (zerop n) acc (countdown (- n 1) (+ acc 1))))`,
		"!exptl 2 10 1", "!exptl 2 60 1", "!exptl 2 400 1", "!countdown 50000 0")
}

// Handwritten returns every hand-written program.
func Handwritten() []*Prog {
	return append([]*Prog{ListIdentity(), SymbolCells(), ShadowedPrim(), PdlEscape(), KitchenSink(), Survivors(), PrimArgs()}, append(Corpus(), Ablations()...)...)
}
