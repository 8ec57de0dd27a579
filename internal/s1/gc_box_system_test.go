package s1_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sexp"
)

// TestGCBoxTableBounded: exptl boxes a bignum per call (x⁶⁴ overflows a
// fixnum) and drops it. Under a GC threshold the collector frees those
// boxes and Box refills their slots, so the table stops growing: it is
// no longer after 10,000 driver calls than after 1,000.
func TestGCBoxTableBounded(t *testing.T) {
	sys := core.NewSystem(core.Options{})
	sys.Machine.SetGCThreshold(8192)
	if err := sys.LoadString(exptlSrc); err != nil {
		t.Fatal(err)
	}
	var after1k int
	for i := 1; i <= 10_000; i++ {
		if _, err := sys.Call("exptl-driver", sexp.Fixnum(10)); err != nil {
			t.Fatal(err)
		}
		if i == 1_000 {
			after1k = len(sys.Machine.Boxes)
		}
	}
	if n := len(sys.Machine.Boxes); n > after1k {
		t.Errorf("box table has %d slots after 10,000 calls, %d after 1,000", n, after1k)
	}
	if err := sys.Machine.CheckHeapInvariants(); err != nil {
		t.Error(err)
	}
}

// growSrc multiplies a bignum by 3 n times, keeping only the latest.
const growSrc = `(defun grow (n acc) (prog (i) (setq i 0) loop (if (>=& i n) (return (rem acc 1000003)) nil) (setq acc (* acc 3) i (+& i 1)) (go loop)))`

// TestGCBoxHeapLimit: -max-heap counts boxed objects. 3⁴⁰⁰⁰⁰ takes about
// a thousand words, so grow runs to the end under a 4,096-word budget,
// collecting its dead bignums, and exhausts a 500-word one.
func TestGCBoxHeapLimit(t *testing.T) {
	for _, tc := range []struct {
		limit int64
		want  string
	}{{4096, "976204"}, {500, "heap exhausted"}} {
		sys := core.NewSystem(core.Options{MaxHeapWords: tc.limit})
		if err := sys.LoadString(growSrc); err != nil {
			t.Fatal(err)
		}
		var got string
		if v, err := sys.Call("grow", sexp.Fixnum(40_000), sexp.Fixnum(1)); err != nil {
			got = err.Error()
		} else {
			got = sexp.Print(v)
		}
		if !strings.Contains(got, tc.want) {
			t.Errorf("-max-heap %d: (grow 40000 1) = %s, want %s", tc.limit, got, tc.want)
		}
		if live := sys.Machine.LiveHeapWords(); live > tc.limit {
			t.Errorf("-max-heap %d: %d words live", tc.limit, live)
		}
	}
}
