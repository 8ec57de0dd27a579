// Matrix-subscript: the paper's §6.1 kernel — Z[I,K] := A[I,J]*B[J,K] +
// C[I,K] + e swept over a whole matrix — whose inner statement compiles
// to the Table 4 open-coded subscript code: subscript arithmetic
// accumulated in the RT registers, array elements reached through
// indexed operands, no MOV instructions in the statement body. The
// program prints the inner-statement listing, runs the kernel on the
// simulator, verifies one element against a host-side computation, and
// reports the machine meters.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/sexp"
)

const kernel = `
(defun matrix-subscript ()
  (let ((n 8))
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

const n = 8

func arrays() map[string]sexp.Value {
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

func main() {
	consts := arrays()
	sys := core.NewSystem(core.Options{Constants: consts})
	if err := sys.LoadString(kernel); err != nil {
		log.Fatal(err)
	}

	// The Table-4 shape: show the inner statement, first subscript MULT
	// through the element store.
	lst, err := sys.Listing("matrix-subscript")
	if err != nil {
		log.Fatal(err)
	}
	lines := strings.Split(lst, "\n")
	first, last := -1, -1
	for i, l := range lines {
		if strings.Contains(l, "MULT RT") && first < 0 {
			first = i
		}
		if strings.Contains(l, "store element") && last < 0 {
			last = i
		}
	}
	fmt.Println("=== inner statement (Table 4 shape) ===")
	if first >= 0 && last >= first {
		fmt.Println(strings.Join(lines[first:last+1], "\n"))
	}

	if _, err := sys.Call("matrix-subscript"); err != nil {
		log.Fatal(err)
	}

	// Verify Z[1,2] against the host: the loop overwrites Z[i,k] once
	// per j, so the surviving value uses j = n-1.
	z, err := sys.ReadConstArray(consts["zarr"].(*sexp.FloatArray))
	if err != nil {
		log.Fatal(err)
	}
	a := consts["aarr"].(*sexp.FloatArray)
	i, k, j := 1, 2, n-1
	want := a.Data[i*n+j]*a.Data[j*n+k] + a.Data[i*n+k] + 1.5
	fmt.Printf("\n=== result ===\nZ[1,2] = %g (host computes %g)\n", z.Data[i*n+k], want)
	if z.Data[i*n+k] != want {
		log.Fatal("simulator and host disagree")
	}

	st := sys.Stats()
	fmt.Printf("\n%d instructions, %d cycles, %d MOVs\n", st.Instrs, st.Cycles, st.Movs)
}
