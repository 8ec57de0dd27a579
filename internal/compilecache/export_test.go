package compilecache

import (
	"bytes"
	"encoding/gob"
	"slices"

	"repro/internal/s1"
	"repro/internal/sexp"
)

// CloneEntry deep-copies e, its assembled bodies and read constants
// included, so a test can check that replays leave a shared entry
// exactly as they found it.
func CloneEntry(e *DiskEntry) (*DiskEntry, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return nil, err
	}
	var c DiskEntry
	if err := gob.NewDecoder(&buf).Decode(&c); err != nil {
		return nil, err
	}
	if e.bodies != nil {
		c.bodies = make([]s1.Body, len(e.bodies))
		for i, b := range e.bodies {
			b.Code = slices.Clone(b.Code)
			c.bodies[i] = b
		}
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

// Assembled reports whether e carries its bodies assembled.
func (e *DiskEntry) Assembled() bool { return e.bodies != nil }
