package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/sexp"
)

// corpusSrc exercises every feature with a distinct code shape: specials
// (defvar'd and proclaimed parameters), closures (escaping and
// counter-mutating), prog loops, do loops, caseq, catch/throw, optional
// and rest arguments, float arrays and the numeric tower. Every listing
// produced from it must be identical whether the middle end ran
// sequentially or on the worker pool.
const corpusSrc = `
(defvar *depth* 0)
(proclaim '(special dyn))
(defun sq (x) (* x x))
(defun fsum (a b c) (+$f a (+$f b c)))
(defun sign (x) (cond ((< x 0) 'neg) ((> x 0) 'pos) (t 'zero)))
(defun boolop (a b c) (if (and a (or b c)) 'one 'two))
(defun len (l) (if (null l) 0 (+ 1 (len (cdr l)))))
(defun exptl (x n a)
  (cond ((zerop n) a)
        ((oddp n) (exptl (* x x) (floor n 2) (* a x)))
        (t (exptl (* x x) (floor n 2) a))))
(defun quadratic (a b c)
  (let ((d (- (* b b) (* 4.0 a c))))
    (cond ((< d 0) '())
          ((= d 0) (list (/ (- b) (* 2.0 a))))
          (t (let ((2a (* 2.0 a)) (sd (sqrt d)))
               (list (/ (+ (- b) sd) 2a)
                     (/ (- (- b) sd) 2a)))))))
(defun tf (a &optional (b 3.0) (c a)) (list a b c))
(defun restf (a &rest r) (cons a r))
(defun make-adder (n) (lambda (x) (+ x n)))
(defun adder-test (k x) (funcall (make-adder k) x))
(defun make-counter ()
  (let ((n 0))
    (lambda () (setq n (+ n 1)) n)))
(defun probe () *depth*)
(defun with-depth (d) (let ((*depth* d)) (probe)))
(defun dynread () dyn)
(defun dynbind (dyn) (dynread))
(defun sumto (n)
  (prog (i s)
    (setq i 0 s 0)
   loop
    (if (> i n) (return s) nil)
    (setq s (+ s i) i (+ i 1))
    (go loop)))
(defun powsum (n)
  (do ((i 0 (+ i 1)) (acc 0 (+ acc (* i i))))
      ((> i n) acc)))
(defun kind (k) (caseq k ((1 2 3) 'small) (10 'ten) ((a b) 'letter) (t 'big)))
(defun thrower (x) (throw 'escape (* x 2)))
(defun catcher (x) (catch 'escape (thrower x) 'not-reached))
(defun fill-sq (a n)
  (dotimes (i n a)
    (aset$f a (float (* i i)) i)))
(defun tak (x y z)
  (if (not (< y x))
      z
      (tak (tak (- x 1) y z)
           (tak (- y 1) z x)
           (tak (- z 1) x y))))
(defun kernel (x)
  (let ((a (+$f x 1.0)) (b (*$f x x)))
    (sqrt$f (+$f (*$f a a) (*$f b b)))))
`

// defNames returns the compiled definition names of sys in ascending
// function-index order (= install order).
func defNames(sys *System) []string {
	names := make([]string, 0, len(sys.Defs))
	for n := range sys.Defs {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return sys.Defs[names[i]] < sys.Defs[names[j]]
	})
	return names
}

// TestParallelListingsMatchSequential is the determinism contract of the
// parallel pipeline: with emission serialized in source order, the whole
// machine image must evolve exactly as under Jobs=1, so every listing is
// byte-identical and every function lands at the same index.
func TestParallelListingsMatchSequential(t *testing.T) {
	seq := NewSystem(Options{Jobs: 1})
	if err := seq.LoadString(corpusSrc); err != nil {
		t.Fatalf("sequential load: %v", err)
	}
	par := NewSystem(Options{Jobs: 8})
	if err := par.LoadString(corpusSrc); err != nil {
		t.Fatalf("parallel load: %v", err)
	}
	if len(seq.Defs) != len(par.Defs) {
		t.Fatalf("def count differs: %d vs %d", len(seq.Defs), len(par.Defs))
	}
	for name, idx := range seq.Defs {
		pidx, ok := par.Defs[name]
		if !ok {
			t.Fatalf("parallel load missing %s", name)
		}
		if idx != pidx {
			t.Errorf("%s: function index %d (sequential) vs %d (parallel)", name, idx, pidx)
		}
		sl, err := seq.Listing(name)
		if err != nil {
			t.Fatalf("sequential listing %s: %v", name, err)
		}
		pl, err := par.Listing(name)
		if err != nil {
			t.Fatalf("parallel listing %s: %v", name, err)
		}
		if sl != pl {
			t.Errorf("%s: listings differ\n--- sequential ---\n%s\n--- parallel ---\n%s", name, sl, pl)
		}
	}
	// The whole code image, not just per-function windows.
	if len(seq.Machine.Code) != len(par.Machine.Code) {
		t.Fatalf("code image length differs: %d vs %d",
			len(seq.Machine.Code), len(par.Machine.Code))
	}
	for i := range seq.Machine.Code {
		if seq.Machine.Code[i] != par.Machine.Code[i] {
			t.Fatalf("code image differs at instruction %d", i)
		}
	}
	// And the compiled code still runs.
	checkCall(t, par, "tak", "7", sexp.Fixnum(14), sexp.Fixnum(7), sexp.Fixnum(0))
	checkCall(t, par, "catcher", "14", sexp.Fixnum(7))
	checkCall(t, par, "with-depth", "42", sexp.Fixnum(42))
	checkCall(t, par, "adder-test", "42", sexp.Fixnum(40), sexp.Fixnum(2))
}

// TestParallelInstallsInSourceOrder asserts the deterministic install
// order: regardless of which worker finishes first, definitions enter the
// machine in source order.
func TestParallelInstallsInSourceOrder(t *testing.T) {
	sys := NewSystem(Options{Jobs: runtime.GOMAXPROCS(0)})
	if err := sys.LoadString(`
(defun order-a (x) (* x 2))
(defun order-b (x) (+ (order-a x) 1))
(defun order-c (x) (sumloop x 0))
(defun sumloop (n acc) (if (zerop n) acc (sumloop (- n 1) (+ acc n))))
(defun order-e (x) (list (order-a x) (order-b x)))`); err != nil {
		t.Fatal(err)
	}
	want := []string{"order-a", "order-b", "order-c", "sumloop", "order-e"}
	got := defNames(sys)
	if len(got) != len(want) {
		t.Fatalf("defs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("install order %v, want %v", got, want)
		}
	}
}

// TestConcurrentCompilation is the -race regression for shared package
// state (the sharded symbol intern table, tree var IDs, the compile-time
// apply interpreter): many systems compile the full corpus at once.
func TestConcurrentCompilation(t *testing.T) {
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sys := NewSystem(Options{})
			if err := sys.LoadString(corpusSrc); err != nil {
				errs[g] = err
				return
			}
			if _, err := sys.Call("tak", sexp.Fixnum(8), sexp.Fixnum(4), sexp.Fixnum(0)); err != nil {
				errs[g] = err
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestCompileCacheHits checks the content-addressed cache: re-loading the
// same program hits for every definition, skips recompilation (no new
// code is emitted for the bodies), and the functions keep working.
func TestCompileCacheHits(t *testing.T) {
	sys := NewSystem(withDisk(t, Options{Jobs: 1}))
	if err := sys.LoadString(corpusSrc); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.CompileCacheHits != 0 {
		t.Errorf("cold load: %d hits, want 0", st.CompileCacheHits)
	}
	// A disk-backed system's first load also keys its top-level forms,
	// so the cold misses are the defuns plus those.
	nDefs, misses := int64(len(sys.Defs)), st.CompileCacheMisses
	if nDefs == 0 || misses < nDefs {
		t.Fatalf("cold load recorded %d misses for %d defuns", misses, nDefs)
	}
	funcs := len(sys.Machine.Funcs)

	if err := sys.LoadString(corpusSrc); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if st.CompileCacheHits != nDefs {
		t.Errorf("reload: %d hits, want %d", st.CompileCacheHits, nDefs)
	}
	if st.CompileCacheMisses != misses {
		t.Errorf("reload: %d misses, want %d (no new ones)", st.CompileCacheMisses, misses)
	}
	rate := float64(st.CompileCacheHits) / float64(st.CompileCacheHits+st.CompileCacheMisses)
	if rate < 0.45 { // 100% of the reload = 50% of both loads combined
		t.Errorf("hit rate = %.2f", rate)
	}
	// Only top-level forms (the defvar wrapper) recompile on reload —
	// every defun body is reused, so a third load grows the function
	// table by exactly as much as the second did.
	growth2 := len(sys.Machine.Funcs) - funcs
	funcs = len(sys.Machine.Funcs)
	if err := sys.LoadString(corpusSrc); err != nil {
		t.Fatalf("third load: %v", err)
	}
	growth3 := len(sys.Machine.Funcs) - funcs
	if growth3 != growth2 {
		t.Errorf("steady-state reload growth: %d then %d functions", growth2, growth3)
	}
	if growth2 > 2 {
		t.Errorf("reload installed %d functions; only top-level wrappers should recompile", growth2)
	}
	checkCall(t, sys, "sq", "49", sexp.Fixnum(7))
	checkCall(t, sys, "catcher", "14", sexp.Fixnum(7))
	checkCall(t, sys, "sumto", "5050", sexp.Fixnum(100))
}

// TestCompileCacheMacroEpoch: redefining a macro must invalidate cached
// compilations, since the printed source does not expose expansions.
func TestCompileCacheMacroEpoch(t *testing.T) {
	sys := NewSystem(withDisk(t, Options{}))
	if err := sys.LoadString("(defmacro k () 1)\n(defun f () (k))"); err != nil {
		t.Fatal(err)
	}
	checkCall(t, sys, "f", "1")
	if err := sys.LoadString("(defmacro k () 2)\n(defun f () (k))"); err != nil {
		t.Fatal(err)
	}
	checkCall(t, sys, "f", "2")
	if sys.Stats().CompileCacheHits != 0 {
		t.Errorf("macro redefinition must miss: %d hits", sys.Stats().CompileCacheHits)
	}
	// Same macros, same source: now it hits and keeps the new expansion.
	if err := sys.LoadString("(defun f () (k))"); err != nil {
		t.Fatal(err)
	}
	checkCall(t, sys, "f", "2")
	if sys.Stats().CompileCacheHits != 1 {
		t.Errorf("re-load after epoch settles should hit: %d", sys.Stats().CompileCacheHits)
	}
}

// TestCacheRedefinition: a changed body is a different content address
// and must recompile; flipping back to a previously seen body may reuse
// its still-resident code.
func TestCacheRedefinition(t *testing.T) {
	sys := NewSystem(withDisk(t, Options{}))
	if err := sys.LoadString("(defun f (x) (+ x 1))"); err != nil {
		t.Fatal(err)
	}
	checkCall(t, sys, "f", "11", sexp.Fixnum(10))
	if err := sys.LoadString("(defun f (x) (+ x 2))"); err != nil {
		t.Fatal(err)
	}
	checkCall(t, sys, "f", "12", sexp.Fixnum(10))
	if err := sys.LoadString("(defun f (x) (+ x 1))"); err != nil {
		t.Fatal(err)
	}
	checkCall(t, sys, "f", "11", sexp.Fixnum(10))
	if sys.Stats().CompileCacheHits != 1 {
		t.Errorf("hits = %d, want 1 (the flip back)", sys.Stats().CompileCacheHits)
	}
}

// TestParallelListingsMatchExamples re-runs the determinism contract over
// every Lisp program shipped in examples/: each example binary embeds
// its source as a raw string constant, read here from its main.go.
func TestParallelListingsMatchExamples(t *testing.T) {
	mk := func() *sexp.FloatArray {
		fa := sexp.NewFloatArray([]int{16, 16})
		for i := range fa.Data {
			fa.Data[i] = float64(i%7) * 0.25
		}
		return fa
	}
	consts := map[string]sexp.Value{ // the numeric and matrix-subscript arrays
		"aarr": mk(), "barr": mk(), "carr": mk(),
		"zarr":   sexp.NewFloatArray([]int{16, 16}),
		"econst": sexp.Flonum(1.5),
	}
	mains, _ := filepath.Glob("../../examples/*/main.go")
	if len(mains) == 0 {
		t.Fatal("no examples found")
	}
	for _, path := range mains {
		t.Run(filepath.Base(filepath.Dir(path)), func(t *testing.T) {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			var src string
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && src == "" && strings.HasPrefix(lit.Value, "`") && strings.Contains(lit.Value, "(defun") {
					src = strings.Trim(lit.Value, "`")
				}
				return src == ""
			})
			if src == "" {
				t.Fatal("no Lisp source")
			}
			seq := NewSystem(Options{Jobs: 1, Constants: consts})
			if err := seq.LoadString(src); err != nil {
				t.Fatalf("sequential load: %v", err)
			}
			par := NewSystem(Options{Jobs: 8, Constants: consts})
			if err := par.LoadString(src); err != nil {
				t.Fatalf("parallel load: %v", err)
			}
			for name, idx := range seq.Defs {
				if par.Defs[name] != idx {
					t.Errorf("%s: index %d vs %d", name, idx, par.Defs[name])
				}
				sl, err := seq.Listing(name)
				if err != nil {
					t.Fatal(err)
				}
				pl, err := par.Listing(name)
				if err != nil {
					t.Fatal(err)
				}
				if sl != pl {
					t.Errorf("%s: listings differ", name)
				}
			}
		})
	}
}

// TestParallelFoldingLeavesBuiltinsUnchanged loads a constant-folding
// heavy corpus on the worker pool. Every worker's optimizer folds by
// applying the one process-wide builtin table, so under -race this shows
// the folding only reads it; afterwards every entry must be the same
// builtin with the same fields.
func TestParallelFoldingLeavesBuiltinsUnchanged(t *testing.T) {
	type entry struct {
		b    *interp.Builtin
		val  interp.Builtin
		code uintptr
	}
	snapshot := func() map[*sexp.Symbol]entry {
		out := map[*sexp.Symbol]entry{}
		for name, fn := range interp.New().Funcs {
			if b, ok := fn.(*interp.Builtin); ok {
				out[name] = entry{b, *b, reflect.ValueOf(b.Fn).Pointer()}
			}
		}
		return out
	}
	before := snapshot()

	var src strings.Builder
	const n = 48
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, `(defun fold-%d (x)
  (list (+ x (* %d 3) (- 100 %d) (max 1 %d 7) (1+ (abs -%d)))
        (car '(%d 2)) (length '(1 2 3 4)) (sqrt 16.0) (expt 2 %d)
        (if (< %d 20) (gcd 12 %d) (mod %d 7)) (equal '(a b) '(a b))))
`, i, i, i, i, i, i, i%20, i, i+1, i)
	}
	sys := NewSystem(Options{Jobs: 4})
	if err := sys.LoadString(src.String()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 7 {
		name := fmt.Sprintf("fold-%d", i)
		cv, cerr := sys.Call(name, sexp.Fixnum(5))
		iv, ierr := sys.Interpret(name, sexp.Fixnum(5))
		if cerr != nil || ierr != nil || !sexp.Equal(cv, iv) {
			t.Fatalf("%s: compiled %v (%v), interpreted %v (%v)", name, cv, cerr, iv, ierr)
		}
	}

	after := snapshot()
	if len(after) != len(before) {
		t.Fatalf("builtin table has %d entries, had %d", len(after), len(before))
	}
	for name, was := range before {
		now, ok := after[name]
		if !ok || now.b != was.b || now.code != was.code ||
			now.val.Name != was.val.Name || now.val.MinArgs != was.val.MinArgs ||
			now.val.MaxArgs != was.val.MaxArgs || now.val.Pure != was.val.Pure {
			t.Errorf("builtin %s changed: %+v -> %+v", name.Name, was, now)
		}
	}
}
