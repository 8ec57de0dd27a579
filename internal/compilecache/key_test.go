package compilecache_test

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/compilecache"
)

// TestKeyBytesPinned pins the content address of two units. An entry's
// file name is its key, so any change to the hashed bytes orphans every
// existing cache directory: every warm load would miss and store again.
// Change these values only together with the entry format.
func TestKeyBytesPinned(t *testing.T) {
	noTN := codegen.DefaultOptions()
	noTN.CSE, noTN.UseTN = false, false
	cases := []struct {
		src      string
		opts     codegen.Options
		epoch    int
		specials string
		want     string
	}{
		{"(defun f (x) (+ x 1))", codegen.DefaultOptions(), 3, "y,z",
			"5f558fc4669483da2bc179ce22e636a570d1d199014db7633a30ef30a05c2f18"},
		{"(defun g () y)", noTN, 0, "",
			"f4f1c11fa00ed16e1dcde00d48554c60293a6359e68c07d0d1151808ee858480"},
	}
	for _, c := range cases {
		if got := compilecache.Key(c.src, c.opts, c.epoch, c.specials); got != c.want {
			t.Errorf("Key(%q, epoch %d, specials %q) = %s, want %s", c.src, c.epoch, c.specials, got, c.want)
		}
	}
}
