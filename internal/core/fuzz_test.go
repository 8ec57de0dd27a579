package core

import (
	"testing"
	"time"

	"repro/internal/convert"
	"repro/internal/opt"
	"repro/internal/sexp"
	"repro/internal/tree"
)

// FuzzCompilePipeline drives arbitrary text through the front and middle
// end: read (with resynchronization), per-form conversion, the optimizer
// fixpoint under a watchdog, back-translation of the optimized tree, and
// a re-read of the printed result. None of it may panic — errors are the
// contract, crashes are bugs. Execution is deliberately excluded: the
// pipeline is the attack surface reachable from source text.
func FuzzCompilePipeline(f *testing.F) {
	seeds := []string{
		"(defun f (x) (+ x 1))",
		"(defun g (x) (car . x)) (defun h (y) (* y y))",
		"(defvar *v* 3) (proclaim '(special dyn))",
		"(defun w (x) (do ((i 0 (+ i 1))) ((> i x) i)))",
		"(defun q (a &optional (b 3.0) &rest r) (list a b r))",
		"(defun p (x) (prog (i) loop (if (> i x) (return i) nil) (go loop)))",
		"(defun c (x) (cond ((< x 0) 'neg) (t (or x 1))))",
		"((lambda (x) x) 5)",
		"(defun b (x) `(a ,x ,@x))",
		"(defun broken (x (",
		"(quote",
		")))(((",
		"(defun s (x) \"str\" #\\a 1/2 3.5e2 |odd sym|)",
		"(setq . 5)",
		"(defmacro m (x) x)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		forms, _ := sexp.ReadAllRecover(src)
		conv := convert.New()
		prog := convert.NewProgram()
		for _, fm := range forms {
			conv.ScanProclaim(fm.Val)
		}
		for _, fm := range forms {
			// Errors are fine; only panics fail the fuzz target.
			_ = conv.TopForm(prog, fm.Val)
		}
		conv.FinishProgram(prog)
		oo := opt.DefaultOptions()
		oo.Watchdog = 200 * time.Millisecond
		lams := make([]*tree.Lambda, 0, len(prog.Defs)+len(prog.TopForms))
		for _, d := range prog.Defs {
			lams = append(lams, d.Lambda)
		}
		for _, tf := range prog.TopForms {
			lams = append(lams, convert.WrapToplevel(tf))
		}
		for _, lam := range lams {
			n := opt.New(oo).Optimize(lam)
			// Back-translate and re-read: the printed tree must never
			// crash the reader.
			back := tree.Show(n)
			_, _ = sexp.ReadAll(back)
		}
	})
}
