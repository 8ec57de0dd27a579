package s1_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/compilecache"
	"repro/internal/core"
	"repro/internal/sexp"
)

// sharedBodySrc is compiled once and replayed from the durable cache:
// a loop that conses, calls a fallback primitive and a closure.
const sharedBodySrc = `
(defun spin (n)
  (prog (i acc)
    (setq i 0 acc nil)
   loop
    (if (>= i n) (return (length (append acc acc))) nil)
    (setq acc (cons i acc) i (+ i 1))
    (go loop)))
(defun make-adder (k) (lambda (x) (+ x k)))
(defun churn (n) (+ (spin n) (funcall (make-adder n) 1)))
`

// TestSharedDecodedBody: two machines that replay the same cached
// bodies share one decoded stream, and run it concurrently — forced hot
// (the tier rewrites each machine's own dispatch stream) and with no
// tier — with the results and meters of a machine that compiled them.
func TestSharedDecodedBody(t *testing.T) {
	for _, mode := range []string{"forcehot", "notier"} {
		t.Run(mode, func(t *testing.T) {
			d, err := compilecache.OpenDisk(t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			opts := core.Options{DiskCache: d}
			if mode == "forcehot" {
				opts.HotThreshold = -1
			} else {
				opts.NoTier = true
			}
			load := func() *core.System {
				sys := core.NewSystem(opts)
				if err := sys.LoadString(sharedBodySrc); err != nil {
					t.Fatal(err)
				}
				return sys
			}
			compiled := load() // compiles and stores
			first := load()    // reads the entries and decodes their bodies
			a, b := load(), load()
			f := a.Machine.Funcs[a.Defs["spin"]]
			if !a.Machine.DecodedSharedWith(b.Machine, f.Entry, f.End) {
				t.Fatal("two replays of spin do not share its decoded stream")
			}
			if compiled.Machine.DecodedSharedWith(first.Machine, f.Entry, f.End) {
				t.Fatal("a compiled body shares a replayed body's stream")
			}
			run := func(sys *core.System) (string, error) {
				var out string
				for i := 0; i < 20; i++ {
					v, err := sys.Call("churn", sexp.Fixnum(int64(50+i)))
					if err != nil {
						return "", err
					}
					out += sexp.Print(v) + " "
				}
				return fmt.Sprintf("%s%+v", out, *sys.Stats()), nil
			}
			for _, sys := range []*core.System{compiled, a, b} {
				sys.ResetStats()
			}
			want, err := run(compiled)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, sys := range []*core.System{a, b} {
				wg.Add(1)
				go func(sys *core.System) {
					defer wg.Done()
					if got, err := run(sys); err != nil || got != want {
						t.Errorf("replayed run: %s %v\nwant %s", got, err, want)
					}
				}(sys)
			}
			wg.Wait()
		})
	}
}

// TestPrimArgsNested: fallback primitives whose arguments are other
// fallback primitives' results, called directly and through primitive
// stub functions, under a collection before every allocation. Each call
// takes its arguments from the machine's scratch stack and gives them
// back.
func TestPrimArgsNested(t *testing.T) {
	const src = `
(defun nest (a b)
  (append (reverse (append a b)) (list (length (append b a)) (apply (function append) (list a b)))))
(defun via-stub (f a b) (funcall f (funcall f a b) (reverse b)))
(defun stubbed (a b) (via-stub (function append) a b))
`
	calls := []string{"nest", "stubbed"}
	args := []sexp.Value{sexp.List(sexp.Fixnum(1), sexp.Fixnum(2)), sexp.List(sexp.Fixnum(3))}
	var want []string
	for _, stress := range []bool{false, true} {
		sys := core.NewSystem(core.Options{GCStress: stress})
		if err := sys.LoadString(src); err != nil {
			t.Fatal(err)
		}
		for i, fn := range calls {
			v, err := sys.Call(fn, args...)
			if err != nil {
				t.Fatalf("%s (gc-stress %t): %v", fn, stress, err)
			}
			iv, err := sys.Interpret(fn, args...)
			if err != nil {
				t.Fatal(err)
			}
			if sexp.Print(v) != sexp.Print(iv) {
				t.Errorf("%s (gc-stress %t): compiled %s, interpreted %s", fn, stress, sexp.Print(v), sexp.Print(iv))
			}
			if !stress {
				want = append(want, sexp.Print(v))
			} else if sexp.Print(v) != want[i] {
				t.Errorf("%s: %s under gc-stress, %s without", fn, sexp.Print(v), want[i])
			}
			if n := sys.Machine.PrimArgsDepth(); n != 0 {
				t.Errorf("%s left %d argument slots in use", fn, n)
			}
		}
	}
}
