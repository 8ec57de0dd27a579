package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/convert"
	"repro/internal/interp"
	"repro/internal/sexp"
	"repro/internal/tree"
)

// probe is one checked call: a function of a generated program, its
// printed arguments, and the value the interpreter computed for it.
type probe struct {
	fn   string
	args []string
	want string
}

// template renders one generated defun group. c draws seeded constants
// that never change the code's shape; args returns the probe arguments.
type template struct {
	kind string
	src  func(name string, c func(lo, hi int) int) string
	args func(c func(lo, hi int) int) []string
}

// corpusTemplates covers the compiler's feature mix: fixnum arithmetic
// with let/if/boolean forms, the flonum quadratic, prog loops, caseq,
// closures, special (deep-bound) variables and pdl-allocated floats.
var corpusTemplates = []template{
	{"arith", func(n string, c func(int, int) int) string {
		return fmt.Sprintf(`(defun %s (x y)
  (let ((a (+ x %d)) (b (* y %d)))
    (if (and (> a 0) (or (< b %d) (> x y)))
        (+ (* a a) (* b b))
        (- (* a b) %d))))`, n, c(1, 99), c(2, 9), c(10, 300), c(1, 99))
	}, func(c func(int, int) int) []string {
		return []string{fmt.Sprint(c(-40, 40)), fmt.Sprint(c(-40, 40))}
	}},
	{"quadratic", func(n string, c func(int, int) int) string {
		return fmt.Sprintf(`(defun %s (a b)
  (let ((d (- (* b b) (* 4.0 a %d.0))))
    (cond ((< d 0) '())
          ((= d 0) (list (/ (- b) (* 2.0 a))))
          (t (let ((2a (* 2.0 a)) (sd (sqrt d)))
               (list (/ (+ (- b) sd) 2a)
                     (/ (- (- b) sd) 2a)))))))`, n, c(1, 9))
	}, func(c func(int, int) int) []string {
		// |b| >= 14 keeps b*b above 4*a*c: always the two-root branch.
		return []string{fmt.Sprintf("%d.0", c(1, 5)), fmt.Sprintf("%d.5", (2*c(0, 1)-1)*c(14, 60))}
	}},
	{"loop", func(n string, c func(int, int) int) string {
		return fmt.Sprintf(`(defun %s (n)
  (prog (i s)
    (setq i 0 s %d)
   loop
    (if (> i n) (return s) nil)
    (setq s (+ s (* i %d)) i (+ i 1))
    (go loop)))`, n, c(0, 999), c(1, 99))
	}, func(c func(int, int) int) []string { return []string{"24"} }},
	{"caseq", func(n string, c func(int, int) int) string {
		return fmt.Sprintf(`(defun %s (k)
  (caseq k ((1 2 3) (+ k %d)) (10 (* k %d)) (t (- k %d))))`, n, c(1, 99), c(2, 9), c(1, 99))
	}, func(c func(int, int) int) []string {
		return []string{[]string{"2", "10", "7"}[c(0, 2)]}
	}},
	{"closure", func(n string, c func(int, int) int) string {
		return fmt.Sprintf(`(defun %s (x)
  (let ((f (function (lambda (y) (+ y x %d)))))
    (funcall f (funcall f %d))))`, n, c(1, 99), c(1, 99))
	}, func(c func(int, int) int) []string { return []string{fmt.Sprint(c(-50, 50))} }},
	{"special", func(n string, c func(int, int) int) string {
		return fmt.Sprintf(`(defun %[1]s-read (y) (+ (* y *bench-scale*) %[2]d))
(defun %[1]s (x)
  (let ((*bench-scale* (+ x %[3]d)))
    (%[1]s-read %[4]d)))`, n, c(1, 99), c(1, 9), c(1, 99))
	}, func(c func(int, int) int) []string { return []string{fmt.Sprint(c(-20, 20))} }},
	{"pdl", func(n string, c func(int, int) int) string {
		return fmt.Sprintf(`(defun %s (x)
  (let ((a (+$f x %d.0)) (b (*$f x x)))
    (sqrt$f (+$f (*$f a a) (+$f (*$f b b) %d.0)))))`, n, c(1, 99), c(1, 99))
	}, func(c func(int, int) int) []string { return []string{fmt.Sprintf("%d.25", c(0, 40))} }},
}

// corpusPrelude declares the special the "special" template rebinds.
const corpusPrelude = "(defvar *bench-scale* 3)\n"

// genCorpus builds n seeded defun groups. Every template appears equally
// often, in a seeded order, so the corpus shape — and the work a load
// does — is the same for every seed while its text is not.
func genCorpus(seed int64, n int) (string, []probe) {
	r := rand.New(rand.NewSource(seed))
	order := make([]int, n)
	for i := range order {
		order[i] = i % len(corpusTemplates)
	}
	r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return genGroups(r, order)
}

// genGroups renders one defun group per template index in order, with
// constants and probe arguments drawn from r.
func genGroups(r *rand.Rand, order []int) (string, []probe) {
	c := func(lo, hi int) int { return lo + r.Intn(hi-lo+1) }
	var sb strings.Builder
	sb.WriteString(corpusPrelude)
	probes := make([]probe, len(order))
	for i, t := range order {
		tp := corpusTemplates[t]
		name := fmt.Sprintf("%s-%d", tp.kind, i)
		sb.WriteString(tp.src(name, c))
		sb.WriteString("\n")
		probes[i] = probe{fn: name, args: tp.args(c)}
	}
	return sb.String(), probes
}

// newOracle loads src into a fresh interpreter.
func newOracle(src string, consts map[string]sexp.Value) (*interp.Interp, error) {
	forms, err := sexp.ReadAll(src)
	if err != nil {
		return nil, err
	}
	conv := convert.New()
	if len(consts) > 0 {
		conv.Constants = map[*sexp.Symbol]sexp.Value{}
		for k, v := range consts {
			conv.Constants[sexp.Intern(k)] = v
		}
	}
	prog, err := conv.ConvertTopLevel(forms)
	if err != nil {
		return nil, err
	}
	in := interp.New()
	if _, err := in.LoadProgram(prog); err != nil {
		return nil, err
	}
	return in, nil
}

// expect calls fn on the interpreter and returns the printed value.
func expect(in *interp.Interp, fn string, args []string) (string, error) {
	vals, err := readArgs(args)
	if err != nil {
		return "", err
	}
	v, err := in.CallNamed(sexp.Intern(fn), vals...)
	if err != nil {
		return "", fmt.Errorf("oracle %s: %w", fn, err)
	}
	return sexp.Print(v), nil
}

// oracle evaluates probes on the interpreter over src and fills in their
// expected values.
func oracle(src string, consts map[string]sexp.Value, probes []probe) error {
	in, err := newOracle(src, consts)
	if err != nil {
		return err
	}
	for i := range probes {
		if probes[i].want, err = expect(in, probes[i].fn, probes[i].args); err != nil {
			return err
		}
	}
	return nil
}

func readArgs(src []string) ([]sexp.Value, error) {
	args := make([]sexp.Value, len(src))
	for i, a := range src {
		v, err := sexp.ReadOne(a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return args, nil
}

// convertNodes counts the tree nodes conversion produces for src's
// defuns (the optimizer's input size).
func convertNodes(src string) (int, error) {
	forms, err := sexp.ReadAll(src)
	if err != nil {
		return 0, err
	}
	prog, err := convert.New().ConvertTopLevel(forms)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, d := range prog.Defs {
		n += tree.CountNodes(d.Lambda)
	}
	return n, nil
}
