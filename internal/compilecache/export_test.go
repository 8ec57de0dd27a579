package compilecache

import (
	"slices"

	"repro/internal/sexp"
)

// CloneEntry deep-copies e, its bodies and read constants included, so
// a test can check that replays leave a shared entry exactly as they
// found it. A body's kept lowered stream is the one shared field: it is
// published once, by the first install.
func CloneEntry(e *DiskEntry) (*DiskEntry, error) {
	c := *e
	c.Binds = slices.Clone(e.Binds)
	c.Capture.Syms = slices.Clone(e.Capture.Syms)
	c.Capture.Consts = slices.Clone(e.Capture.Consts)
	c.Capture.Funcs = slices.Clone(e.Capture.Funcs)
	for i := range c.Capture.Funcs {
		c.Capture.Funcs[i].Code = slices.Clone(e.Capture.Funcs[i].Code)
	}
	if e.consts != nil {
		c.consts = make([]sexp.Value, len(e.consts))
		for i, v := range e.consts {
			cv, err := sexp.ReadOne(sexp.Print(v))
			if err != nil {
				return nil, err
			}
			c.consts[i] = cv
		}
	}
	return &c, nil
}

// ConstsRead reports whether e carries its constants read, as a
// verified file read leaves it.
func (e *DiskEntry) ConstsRead() bool { return len(e.consts) == len(e.Capture.Consts) }
