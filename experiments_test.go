package repro

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/opt"
	"repro/internal/sexp"
	"repro/internal/tree"
)

// experimentsGolden holds the exact simulated counts of every experiment
// row; EXPERIMENTS.md quotes them through its inline markers.
const experimentsGolden = "testdata/experiments.golden"

// An experiment is one measured configuration of one of the paper's
// worked examples (DESIGN.md §4). A row with a call loads src into a
// fresh system under opts, resets the meters and calls fn once; a row
// without one converts src's last defun and runs the source optimizer
// over it.
type experiment struct {
	name   string                 // "E<id>/<variant>", the golden line's key
	src    string                 // the program, or the form to convert
	opts   func(*codegen.Options) // change to codegen.DefaultOptions, or nil
	consts int                    // side of the difftest.MatrixConsts arrays, or 0 for none
	fn     string
	args   string // the call's arguments, read as Lisp
}

const dotSrc = `
(defun dot (n)
  (let ((acc 0.0) (i 0))
    (prog ()
     loop
      (if (>=& i n) (return nil) nil)
      (setq acc (+$f acc (*$f (aref$f aarr 0 i) (aref$f barr 0 i))))
      (setq i (+& i 1))
      (go loop))
    acc))`

const exptSrc = `
(defun exptl (x n a)
  (cond ((zerop n) a)
        ((oddp n) (exptl (* x x) (floor n 2) (* a x)))
        (t (exptl (* x x) (floor n 2) a))))
(defun expt-rec (x n)
  (if (zerop n) 1 (* x (expt-rec x (- n 1)))))`

// deepBindingSrc reads a special n times under k unrelated bindings.
func deepBindingSrc(k int) string {
	var open, close strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&open, "(let ((*pad%d* %d)) ", i, i)
		close.WriteString(")")
	}
	return `(defvar *target* 7)
(defun reader (n)
  (let ((acc 0) (i 0))
    (prog ()
     loop
      (if (>= i n) (return acc) nil)
      (setq acc (+ acc *target*))
      (setq i (+ i 1))
      (go loop))))
(defun run (n) ` + open.String() + `(reader n)` + close.String() + ")"
}

// The options changes of the ablation rows.
var (
	noTN      = func(o *codegen.Options) { o.UseTN = false }
	noRep     = func(o *codegen.Options) { o.RepAnalysis = false }
	noPdl     = func(o *codegen.Options) { o.PdlNumbers = false }
	noRepPdl  = func(o *codegen.Options) { o.RepAnalysis, o.PdlNumbers = false, false }
	noCaching = func(o *codegen.Options) { o.SpecialCaching = false }
)

func experiments() []experiment {
	rows := []experiment{
		{name: "E1/quadratic", src: difftest.QuadraticSrc},
		{name: "E2/choose", src: `(defun choose (a b c) (if (and a (or b c)) 'one 'two))`,
			fn: "choose", args: "t nil t"},
		{name: "E3/tail-exptl", src: exptSrc, fn: "exptl", args: "2 1000 1"},
		{name: "E3/nontail-expt-rec", src: exptSrc, fn: "expt-rec", args: "2 1000"},
		{name: "E4/tnbind", src: difftest.MatrixSubscriptSrc, consts: 16, fn: "matrix-subscript"},
		{name: "E4/naive-alloc", src: difftest.MatrixSubscriptSrc, opts: noTN, consts: 16, fn: "matrix-subscript"},
		{name: "E5/rep-analysis", src: dotSrc, consts: 16, fn: "dot", args: "16"},
		{name: "E5/pointers-only", src: dotSrc, opts: noRepPdl, consts: 16, fn: "dot", args: "16"},
		{name: "E5/matrix-no-rep", src: difftest.MatrixSubscriptSrc, opts: noRep, consts: 16, fn: "matrix-subscript"},
		{name: "E6/pdl-numbers", src: difftest.PolySrc, fn: "poly", args: "2.5"},
		{name: "E6/heap-only", src: difftest.PolySrc, opts: noPdl, fn: "poly", args: "2.5"},
		{name: "E7/testfn", src: difftest.TestfnSrc, fn: "testfn", args: "0.5"},
		{name: "E8/compiled", src: dotSrc, consts: 64, fn: "dot", args: "64"},
	}
	for _, k := range []int{4, 64, 512} {
		src := deepBindingSrc(k)
		rows = append(rows,
			experiment{name: fmt.Sprintf("E9/cached-%d", k), src: src, fn: "run", args: "100"},
			experiment{name: fmt.Sprintf("E9/uncached-%d", k), src: src, opts: noCaching, fn: "run", args: "100"})
	}
	return append(rows, experiment{name: "E11/beta", src: `(defun beta (a b c d)
	  (let ((x (+ a 1)))
	    (let ((y x))
	      (let ((f (lambda (q) (+ q y))))
	        (if (and a (or b (and c d))) (f x) (f y))))))`})
}

// experimentRow returns the row the host-time benchmarks read.
func experimentRow(name string) experiment {
	for _, e := range experiments() {
		if e.name == name {
			return e
		}
	}
	panic("no experiment row " + name)
}

// measure returns the row's golden line.
func (e experiment) measure() (string, error) {
	if e.fn == "" {
		forms, err := sexp.ReadAll(e.src)
		if err != nil {
			return "", err
		}
		p, err := convert.New().ConvertTopLevel(forms)
		if err != nil {
			return "", err
		}
		l := p.Defs[len(p.Defs)-1].Lambda
		nodes := tree.CountNodes(l)
		o := opt.New(opt.DefaultOptions())
		o.Optimize(l)
		applied := 0
		for _, n := range o.Applied {
			applied += n
		}
		return fmt.Sprintf("%s nodes=%d transformations=%d", e.name, nodes, applied), nil
	}
	o := codegen.DefaultOptions()
	if e.opts != nil {
		e.opts(&o)
	}
	args, err := sexp.ReadAll(e.args)
	if err != nil {
		return "", err
	}
	sys := core.NewSystem(core.Options{Codegen: &o, Constants: difftest.MatrixConsts(e.consts)})
	if err := sys.LoadString(e.src); err != nil {
		return "", err
	}
	movs, err := sys.StaticMOVs(e.fn)
	if err != nil {
		return "", err
	}
	sys.ResetStats()
	if _, err := sys.Call(e.fn, args...); err != nil {
		return "", err
	}
	st := sys.Stats()
	return fmt.Sprintf("%s cycles=%d flonums=%d certifies=%d maxstack=%d movs=%d probes=%d closures=%d",
		e.name, st.Cycles, st.FlonumAllocs, st.Certifies, st.MaxStack, movs, st.SpecialSearchSteps, st.EnvAllocs), nil
}

// readExperimentsGolden returns the golden file's data lines.
func readExperimentsGolden(t *testing.T) []string {
	raw, err := os.ReadFile(experimentsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestExperiments measures every experiment row once and checks its
// exact counts against the golden file. After an intended change, replace
// the file's data lines with the "got" block of the failure message.
func TestExperiments(t *testing.T) {
	var got []string
	for _, e := range experiments() {
		line, err := e.measure()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		got = append(got, line)
	}
	if g, w := strings.Join(got, "\n"), strings.Join(readExperimentsGolden(t), "\n"); g != w {
		t.Errorf("experiment counts differ from %s:\n--- got ---\n%s\n--- want ---\n%s", experimentsGolden, g, w)
	}
}

// docFigure is one rendered number in EXPERIMENTS.md:
// <!--ROW METRIC-->VALUE<!--/--> or, per unit, <!--ROW METRIC/N-->.
var docFigure = regexp.MustCompile(`<!--(\S+) (\w+)(?:/(\d+))?-->([^<]*)<!--/-->`)

// TestExperimentsDoc checks that every figure EXPERIMENTS.md quotes is
// the golden file's count, rendered with thousands separators (or, for a
// per-unit figure, to one decimal).
func TestExperimentsDoc(t *testing.T) {
	golden := map[string]int64{}
	for _, line := range readExperimentsGolden(t) {
		fields := strings.Fields(line)
		for _, f := range fields[1:] {
			k, v, _ := strings.Cut(f, "=")
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %q: %v", experimentsGolden, line, err)
			}
			golden[fields[0]+" "+k] = n
		}
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	figures := docFigure.FindAllStringSubmatch(string(doc), -1)
	if len(figures) == 0 {
		t.Fatal("EXPERIMENTS.md quotes no golden figure")
	}
	for _, m := range figures {
		n, ok := golden[m[1]+" "+m[2]]
		if !ok {
			t.Errorf("EXPERIMENTS.md: %s names no golden count", m[0])
			continue
		}
		want := groupThousands(n)
		if m[3] != "" {
			per, _ := strconv.Atoi(m[3])
			want = strconv.FormatFloat(float64(n)/float64(per), 'f', 1, 64)
		}
		if m[4] != want {
			t.Errorf("EXPERIMENTS.md: %s should read %s", m[0], want)
		}
	}
}

// groupThousands renders n with comma thousands separators.
func groupThousands(n int64) string {
	s := strconv.FormatInt(n, 10)
	for i := len(s) - 3; i > 0 && s[i-1] != '-'; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}
