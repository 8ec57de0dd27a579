package s1_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/compilecache"
	"repro/internal/core"
	"repro/internal/difftest"
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

// TestSharedDecodedBody: machines that replay the same cached bodies
// install copies of one kept decoded (lowered) stream. Two replays run
// concurrently, filling their call sites' inline caches and, after
// poly-call's mid-run rebind of step1, invalidating and refilling them,
// with the results and meters of a machine that compiled the bodies.
// The kept stream must come out as it was lowered: a later replay
// installs streams whose caches are all empty.
func TestSharedDecodedBody(t *testing.T) {
	d, err := compilecache.OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	load := func() *core.System {
		sys := core.NewSystem(core.Options{DiskCache: d})
		if err := sys.LoadString(sharedBodySrc + polyCallSrc); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	pristine := func(sys *core.System) error {
		return sys.Machine.CheckLoweredPristine(0, len(sys.Machine.Code))
	}
	compiled := load() // compiles and stores
	load()             // reads the entries, lowers their bodies and keeps the streams
	a, b := load(), load()
	for _, sys := range []*core.System{a, b} {
		if err := pristine(sys); err != nil {
			t.Fatal(err)
		}
	}
	run := func(sys *core.System) (string, error) {
		var out string
		call := func(fn string, arg int64) error {
			v, err := sys.Call(fn, sexp.Fixnum(arg))
			out += sexp.Print(v) + " "
			return err
		}
		fills := sys.Machine.CacheFills()
		for i := 0; i < 10; i++ {
			if err := call("churn", int64(50+i)); err != nil {
				return "", err
			}
			if err := call("poly-driver", 100); err != nil {
				return "", err
			}
		}
		if err := sys.LoadString(polyRebindSrc); err != nil {
			return "", err
		}
		for i := 0; i < 10; i++ {
			if err := call("poly-driver", 100); err != nil {
				return "", err
			}
		}
		st := *sys.Stats()
		st.CompileCacheHits, st.CompileCacheMisses = 0, 0
		return fmt.Sprintf("%s%+v fills=%d", out, st, sys.Machine.CacheFills()-fills), nil
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
	if pristine(a) == nil {
		t.Fatal("the replayed runs filled no inline cache; the test proves nothing")
	}
	if err := pristine(load()); err != nil {
		t.Errorf("a replay after the runs: %v", err)
	}
}

// TestPrimArgsNested: fallback primitives whose arguments are other
// fallback primitives' results, called directly and through primitive
// stub functions, under a collection before every allocation. Each call
// takes its arguments from the machine's scratch stack and gives them
// back.
func TestPrimArgsNested(t *testing.T) {
	if _, err := difftest.Run(difftest.PrimArgs(), difftest.Config{GC: difftest.Full}, nil); err != nil {
		t.Fatal(err)
	}
}
