// Package difftest is the differential harness: one generator of total
// Lisp programs (Program) and one runner (Run) that loads a program in
// any execution configuration — GC mode, snapshot round-trip, forced
// scheduler yields, profiling — and checks every call against the
// reference interpreter and against the reference configuration's
// machine meters. Only tests import it.
package difftest

import (
	"fmt"
	"math/rand/v2"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/sexp"
)

// Prog is one program: top-level forms loaded as one source, then calls
// made in order.
type Prog struct {
	Name string
	Seed uint64
	// Src holds the defvars, defuns and at most one defmacro.
	Src   string
	Calls []Call
	// Families names the shape families the program was drawn from.
	Families []string
	// Constants are compile-time constants (core.Options.Constants).
	Constants map[string]sexp.Value
	// GCThreshold, when positive, is set on the machine before the load.
	GCThreshold int64
	// Small programs are cheap enough to run with a full collection
	// before every allocation.
	Small bool
}

// Call is one call of a program: a function and its argument forms,
// read afresh for every engine (a call may mutate its arguments).
type Call struct {
	Fn, Args string
	// Tail marks a self tail loop, whose MaxStack must stay bounded.
	Tail bool
}

// Families lists every shape family Program draws from.
var Families = []string{"arith", "identity", "specials", "closures",
	"catch", "loops", "rest", "macro", "alloc", "boxes"}

// Program returns the total program seed draws: three to five shape
// families, each contributing its definitions and calls, with the
// calls interleaved so a snapshot after call k splits families. The
// only difference between compiled and interpreted code it steers
// around is append's copied tail (DESIGN.md §10).
func Program(seed uint64) *Prog {
	g := &gen{r: rand.New(rand.NewPCG(seed, 0x5eed)), p: &Prog{Name: fmt.Sprintf("seed-%d", seed), Seed: seed, Small: true}}
	picked := map[int]bool{}
	for n := 3 + g.r.IntN(3); len(picked) < n; {
		picked[g.r.IntN(len(Families))] = true
	}
	var forms []string
	for i, name := range Families {
		if !picked[i] {
			continue
		}
		fam, prefix := families[name], fmt.Sprintf("%c%d", name[0], i)
		g.p.Families = append(g.p.Families, name)
		forms = append(forms, g.fill(fam.forms, prefix))
		for _, c := range strings.Split(g.fill(fam.calls, prefix), ";") {
			g.p.Calls = append(g.p.Calls, parseCall(c))
		}
		if fam.heavy {
			g.p.GCThreshold, g.p.Small = int64(1024<<g.r.IntN(3)), false
		}
	}
	g.p.Src = strings.Join(forms, "\n")
	g.r.Shuffle(len(g.p.Calls), func(i, j int) { g.p.Calls[i], g.p.Calls[j] = g.p.Calls[j], g.p.Calls[i] })
	return g.p
}

// parseCall reads a call written "fn arg...", its arguments values, or
// "!fn arg..." for a self tail loop.
func parseCall(c string) Call {
	fn, args, _ := strings.Cut(strings.TrimSpace(c), " ")
	return Call{Fn: strings.TrimPrefix(fn, "!"), Args: args, Tail: strings.HasPrefix(fn, "!")}
}

type gen struct {
	r *rand.Rand
	p *Prog
}

// A family is Lisp source and a ";"-separated call list (parseCall),
// both templates: @ stands for a name prefix unique in the program, and
// each hole is filled by fill.
// heavy families allocate enough to get a low GC threshold and to be
// kept from forced full collection.
type family struct {
	forms, calls string
	heavy        bool
}

var families = map[string]family{
	// Fixnum and flonum arithmetic whose $f results escape into heap
	// objects, a special or the return value, some through tail calls.
	"arith": {forms: `(defvar *@-esc* nil)
(defun @-rest (&rest xs) xs)
(defun @-opt (a &optional (b 0.0)) (list a b))
(defun @-i0 (a b) {fix a b 4})
(defun @-i1 (a b) {fix a b 4})
(defun @-f0 (x y) (let ((g {flo x y 4}) (h {flo x y g 2})) {escape}))
(defun @-f1 (x y) (let ((g {flo x y 4}) (h {flo x y g 2})) {escape}))`,
		calls: "@-i0 {int -5 6} {int -5 6}; @-i1 {int -5 6} {int -5 6}; @-f0 {lit} {lit}; @-f1 {lit} {lit}"},
	// eq/eql on what list primitives return and rplaca/rplacd through
	// it (ListIdentity's probes), and mutation of structure a defvar
	// built at load time.
	"identity": {forms: `(defvar *@-s* (list (list 1 2) (cons 'a 1) (cons 'b (list 3)) 4))
(defun @-bump () (rplaca (car *@-s*) (+ (caar *@-s*) 1)) (eq (assq 'b (cdr *@-s*)) (caddr *@-s*)))
(defun @-grow (v) (rplacd (last *@-s*) (list v)) (list (eq (nthcdr 3 *@-s*) (cdddr *@-s*)) (car (last *@-s*))))
(defun @-get () *@-s*)
{probe 0}
{probe 1}
{probe 2}`,
		calls: "@-bump; @-grow {int 0 9}; @-get"},
	// Specials rebound dynamically, read through a callee and through
	// symbol-value, written with set, tested with boundp, and rebound
	// inside a catch by a call that fails.
	"specials": {forms: `(defvar *@-d* {int 0 9})
(defun @-read () *@-d*)
(defun @-bind (v) (let ((*@-d* v)) (list (@-read) (symbol-value '*@-d*) (progn (set '*@-d* (+ v 1)) *@-d*) (boundp '*@-d*))))
(defun @-set (v) (set '*@-d* v) (list *@-d* (@-read)))
(defun @-bound () (list (boundp '*@-d*) (boundp '*@-nope*)))
(defun @-sv () (symbol-value '*@-d*))
(defun @-err (v) (let ((*@-d* v)) (catch '@-e (car v))))
(defun @-throw () (throw '@-e *@-d*))`,
		calls: "@-bind {int 0 20}; @-sv; @-set {int 0 20}; @-bound; @-err {int 0 20}; @-bind {int 0 20}; @-throw"},
	// Closures that capture and setq outer variables, called through
	// funcall, passed to another function, and applied in place.
	"closures": {forms: `(defun @-app (f x) (funcall f x))
(defun @-acc (n) (let ((c {int 0 5})) (let ((f (lambda (k) (setq c (+ c k)) c))) (funcall f n) (@-app f 2) (list c (funcall f 1)))))
(defun @-local (n) (let ((c 0)) ((lambda (k) (setq c (* k 2))) n) (+ c {fix n 2})))
(defun @-mk (n) (let ((c n)) (list (lambda () (setq c (+ c 1))) (lambda () c))))
(defun @-pair (n) (let ((p (@-mk n))) (funcall (car p)) (funcall (car p)) (funcall (cadr p))))`,
		calls: "@-acc {int 0 10}; @-local {int 0 10}; @-pair {int 0 10}"},
	// catch/throw out of a loop, directly and from a callee that has a
	// special rebound.
	"catch": {forms: `(defvar *@-c* 'outer)
(defun @-thrower (i) (let ((*@-c* i)) (if (= i {int 1 13}) (throw '@-tag (list 'thrown *@-c*)) i)))
(defun @-loop (n) (list (catch '@-tag (prog (i acc) (setq i 0 acc 0) l (if (>= i n) (return acc)) (setq acc (+ acc (@-thrower i))) (setq i (+ i 1)) (go l))) *@-c*))
(defun @-plain (x) (catch 'k (if x (throw 'k (list 'thrown x)) 'normal)))`,
		calls: "@-loop {int 0 26}; @-plain {pick t|nil|3}"},
	// prog and do loops, and self tail recursion with bounded trips.
	"loops": {forms: `(defun @-tail (i acc) (if (zerop i) acc (@-tail (- i 1) {pick (+ acc 1)|(+ acc i)|(* acc 1)|(- acc -2)|(max acc i)})))
(defun @-do (n) (do ((i 0 (+ i 1)) (acc {int 0 5} (+ acc {fix i 2}))) ((>= i n) acc)))
(defun @-prog (n) (prog (i s) (setq i 0 s nil) l (if (>=& i n) (return s)) (setq s (cons (*& i i) s)) (setq i (+& i 1)) (go l)))
(defun @-ftail (i f) (if (<= i 0) f (@-ftail (- i 1) (+$f f 0.5))))`,
		calls: "!@-tail {int 500 2500} 0; !@-ftail {int 100 500} {lit}; @-do {int 0 30}; @-prog {int 0 12}"},
	// &optional, &rest and apply.
	"rest": {forms: `(defun @-or (a &optional (b (* a 10))) (list a b))
(defun @-ar (a &rest r) (list a r))
(defun @-sum (&rest xs) (if xs (+ (car xs) (apply #'@-sum (cdr xs))) 0))
(defun @-ap (x) (list (apply #'@-ar 1 x) (apply #'+ 1 2 x) (apply #'list 'a x) (apply (lambda (a b c) (list c b a)) 1 2 '(3))))`,
		calls: "@-or {pick 1|1 2}; @-ar {pick 1|1 2|1 2 3 4}; @-sum {pick |1|1 2 3|4 5 6 7 8}; @-ap {pick (2)|(2 3)|(4 5 6)}"},
	// A defmacro that later definitions use.
	"macro": {forms: "(defmacro @-m (x y) `(let ((@-t ,x)) (+ @-t (* {int 1 5} ,y) @-t)))\n" +
		"(defun @-use (a b) (@-m (+ a 1) (@-m b a)))",
		calls: "@-use {int 0 10} {int 0 10}"},
	// Allocation-heavy loops over a resident defvar, under a low GC
	// threshold, so generational collections run during the calls.
	"alloc": {heavy: true, forms: `(defun @-build (n) (prog (acc i) (setq acc nil i 0) l (if (>=& i n) (return acc)) (setq acc (cons i acc)) (setq i (+& i 1)) (go l)))
(defvar *@-keep* (@-build {int 200 800}))
(defun @-churn (k n) (prog (i last) (setq i 0) l (if (>=& i k) (return (list (length last) (car *@-keep*) (car last)))) (setq last (@-build n)) (setq i (+& i 1)) (go l)))
(defun @-floats (n) (let ((acc nil)) (dotimes (i n) (setq acc (cons (*$f 1.5 (float i)) acc))) (length acc)))`,
		calls: "@-churn {int 5 20} {int 50 150}; @-floats {int 50 250}"},
	// Boxed objects made and dropped: fixnum-overflowing products, /
	// ratios and string literals, some kept in specials and replaced,
	// so collections free boxes and later ones refill their slots while
	// others stay live.
	"boxes": {forms: `(defvar *@-big* (* 4000000000 {int 3000000000 4000000000}))
(defvar *@-str* "{pick alpha|beta|gamma}")
(defun @-pow (x n) (prog (acc i) (setq acc 1 i 0) l (if (>=& i n) (return acc)) (setq acc (* acc x)) (setq i (+& i 1)) (go l)))
(defun @-churn (k) (prog (i r) (setq i 0 r 0) l (if (>=& i k) (return (list (rem r 1000003) *@-str* (rem *@-big* 1009)))) (setq r (+ r (@-pow {int 3 9} {int 30 90}))) (setq i (+& i 1)) (go l)))
(defun @-ratio (a b) (list (/ a b) (+ (/ a b) (/ 1 3)) (* (/ a b) b) (/ (@-pow a 25) b)))
(defun @-keep (n) (setq *@-big* (* *@-big* n)) (setq *@-str* "{pick delta|epsilon}") (list (rem *@-big* 1000003) *@-str*))`,
		calls: "@-churn {int 5 30}; @-ratio {int 1 50} {int 2 9}; @-keep {int 2 99}; @-churn {int 5 30}; @-keep {int 2 99}"},
}

// escapes are the ways a flonum g (and h) leave a function: into a
// cons, a list, a list*, an &rest list, a special, through a tail call
// or as the value.
const escapes = "(cons g h)|(list g h)|(list* g h nil)|(list* g)|(@-rest g h)|(car (@-rest g h))|(@-opt g)|(@-opt h g)|" +
	"(identity g)|g|(progn (setq *@-esc* (list* g)) (@-opt h))|(progn (setq *@-esc* (identity h)) (list *@-esc* g))"

var hole = regexp.MustCompile(`\{(\w+) ?([^{}]*)\}`)

// fill draws every hole of template t, then names it with prefix:
// {int a b} is an integer in [a, b), {lit} a flonum literal, {pick
// x|y} one of the choices, {escape} one of the escapes, {fix v… d} and
// {flo v… d} an expression over the variables v… of depth d, and
// {probe i} a probe of ListIdentity renamed @-pi, whose call it adds.
func (g *gen) fill(t, prefix string) string {
	t = hole.ReplaceAllStringFunc(t, func(h string) string {
		m := hole.FindStringSubmatch(h)
		args := strings.Fields(m[2])
		switch m[1] {
		case "int":
			lo, _ := strconv.Atoi(args[0])
			hi, _ := strconv.Atoi(args[1])
			return fmt.Sprint(lo + g.r.IntN(hi-lo))
		case "lit":
			return fmt.Sprintf("%.2f", float64(g.r.IntN(80)-20)/8)
		case "pick", "escape":
			xs := strings.Split(m[2], "|")
			if m[1] == "escape" {
				xs = strings.Split(escapes, "|")
			}
			return xs[g.r.IntN(len(xs))]
		case "fix", "flo":
			depth, _ := strconv.Atoi(args[len(args)-1])
			if m[1] == "fix" {
				return g.fixExpr(args[:len(args)-1], depth)
			}
			return g.floExpr(args[:len(args)-1], depth)
		default: // probe
			hw := ListIdentity()
			j := g.r.IntN(len(hw.Calls))
			fn := "@-p" + args[0]
			g.p.Calls = append(g.p.Calls, Call{Fn: strings.ReplaceAll(fn, "@", prefix), Args: hw.Calls[j].Args})
			def := strings.Split(strings.TrimSpace(hw.Src), "\n")[j]
			return strings.Replace(def, hw.Calls[j].Fn, fn, 1)
		}
	})
	return strings.ReplaceAll(t, "@", prefix)
}

// Expression grammars: each entry is a form template whose %s holes
// take subexpressions, or "let", which binds a new variable the body
// may use, or "setq", which binds a new variable to 0, setqs it and
// evaluates a body that may read it.
var (
	fixForms = []string{"(+ %s %s)", "(- %s %s)", "(* %s %s)", "(if (< %s %s) %s %s)",
		"(if (and (> %s 0) (< %s 5)) %s %s)", "let", "(car (cons %s %s))", "(cdr (cons %s %s))",
		"(+& %s %s)", "(max %s %s)", "(progn %s %s)", "setq"}
	floForms = []string{"(+$f %s %s)", "(-$f %s %s)", "(*$f %s %s)", "(max$f %s %s)",
		"(if (<$f %s %s) %s %s)", "(abs$f %s)", "let"}
)

// fixExpr draws a division-free fixnum expression over vars.
func (g *gen) fixExpr(vars []string, depth int) string {
	return g.expr(vars, depth, fixForms, func() string { return fmt.Sprint(g.r.IntN(21) - 10) })
}

// floExpr draws a division-free flonum expression over vars, all
// flonum-valued, in the type-specific $f operators.
func (g *gen) floExpr(vars []string, depth int) string {
	return g.expr(vars, depth, floForms, func() string { return fmt.Sprintf("%d.%d", g.r.IntN(8), g.r.IntN(10)) })
}

func (g *gen) expr(vars []string, depth int, forms []string, lit func() string) string {
	if depth <= 0 || g.r.IntN(4) == 0 {
		if g.r.IntN(2) == 0 {
			return vars[g.r.IntN(len(vars))]
		}
		return lit()
	}
	f := forms[g.r.IntN(len(forms))]
	switch f {
	case "let":
		v := fmt.Sprintf("v%d", g.r.IntN(1000))
		return fmt.Sprintf("(let ((%s %s)) %s)", v, g.expr(vars, depth-1, forms, lit),
			g.expr(append(vars[:len(vars):len(vars)], v), depth-1, forms, lit))
	case "setq":
		w := fmt.Sprintf("w%d", g.r.IntN(1000))
		return fmt.Sprintf("(let ((%s 0)) (setq %s %s) %s)", w, w, g.expr(vars, depth-1, forms, lit),
			g.expr(append(vars[:len(vars):len(vars)], w), depth-1, forms, lit))
	}
	sub := make([]any, strings.Count(f, "%s"))
	for i := range sub {
		sub[i] = g.expr(vars, depth-1, forms, lit)
	}
	return fmt.Sprintf(f, sub...)
}
