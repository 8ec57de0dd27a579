package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/compilecache"
)

// multiProcSrc is the corpus both processes compile; it exercises
// closures, loops and constants so the durable entries are non-trivial.
const multiProcSrc = `
(defun mp-add (x y) (+ x y))
(defun mp-sq (x) (* x x))
(defun mp-exptl (b n a) (if (= n 0) a (mp-exptl b (- n 1) (* a b))))
(defun mp-make-adder (k) (function (lambda (x) (+ x k))))
(defun mp-adder-test (k x) (funcall (mp-make-adder k) x))
(defun mp-sum (n)
  (prog (i s)
    (setq i 0 s 0)
   loop
    (if (> i n) (return s) nil)
    (setq s (+ s i) i (+ i 1))
    (go loop)))
(defun mp-consts (x) (list x '(a b c) "tag" 3.5))
(defun mp-rest (x &rest r) (cons x r))
`

// buildSLC compiles the driver binary once per test into a temp dir.
func buildSLC(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "slc")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestMultiProcessCacheConsistency is the cross-process acceptance test
// for the durable cache: two slc processes compiling the same corpus
// into the same -cache-dir simultaneously must produce byte-identical
// images (same -image-hash as a cache-less compile), and the cache
// directory must come out consistent — every entry verifiable, nothing
// quarantined by a subsequent recovery pass.
func TestMultiProcessCacheConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes")
	}
	bin := buildSLC(t)
	srcFile := filepath.Join(t.TempDir(), "corpus.lisp")
	if err := os.WriteFile(srcFile, []byte(multiProcSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(t.TempDir(), "cache")

	// Reference fingerprint from a compile with no cache at all.
	ref, err := exec.Command(bin, "-image-hash", srcFile).Output()
	if err != nil {
		t.Fatalf("reference compile: %v", err)
	}
	want := strings.TrimSpace(string(ref))
	if want == "" {
		t.Fatal("empty reference fingerprint")
	}

	// Rounds of concurrent pairs: round 0 races two cold writers, later
	// rounds race readers against writers of the same keys.
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		outs := make([]string, 2)
		errs := make([]error, 2)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out, err := exec.Command(bin, "-cache-dir", cacheDir, "-image-hash", srcFile).Output()
				outs[i], errs[i] = strings.TrimSpace(string(out)), err
			}(i)
		}
		wg.Wait()
		for i := 0; i < 2; i++ {
			if errs[i] != nil {
				t.Fatalf("round %d process %d: %v", round, i, errs[i])
			}
			if outs[i] != want {
				t.Errorf("round %d process %d: image %s differs from cache-less compile %s",
					round, i, outs[i], want)
			}
		}
	}

	// The directory must be consistent: recovery finds nothing to
	// quarantine and every surviving entry verifies.
	d, err := compilecache.OpenDisk(cacheDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st := d.Stats()
	if st.Quarantined != 0 {
		t.Errorf("recovery quarantined %d entries after concurrent access", st.Quarantined)
	}

	// A warm run over the consistent cache must replay, not recompile.
	out, err := exec.Command(bin, "-cache-dir", cacheDir, "-image-hash", "-run", "mp-exptl", srcFile, "2", "10", "1").Output()
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 2 || lines[0] != want || lines[1] != "1024" {
		t.Errorf("warm run output = %q (want fingerprint %s then 1024)", out, want)
	}
}

// TestMacroExpanderBudgets runs macro expanders that never finish: one
// that loops ends at -max-steps with the step-limit error, and a REPL
// whose expander recurses without bound reports the machine's stack
// overflow and goes on to evaluate the next form.
func TestMacroExpanderBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes")
	}
	bin := buildSLC(t)
	dir := t.TempDir()
	loop := filepath.Join(dir, "loop.lisp")
	if err := os.WriteFile(loop, []byte("(defmacro m () (prog () l (go l))) (defun g () (m))\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-max-steps", "100000", loop).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "step limit exceeded") || !strings.Contains(string(out), "[expand]") {
		t.Errorf("looping expander: err %v, output:\n%s", err, out)
	}

	rec := filepath.Join(dir, "rec.lisp")
	if err := os.WriteFile(rec, []byte("(defun f (x) (+ 1 (f x)))\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-repl", rec)
	cmd.Stdin = strings.NewReader("(defmacro m () (f 1)) (defun g () (m))\n(+ 40 2)\n:quit\n")
	out, err = cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "stack overflow") || !strings.Contains(string(out), "slc> 42") {
		t.Errorf("recursing expander in the REPL: err %v, output:\n%s", err, out)
	}
}
