package s1

import (
	"bytes"
	"fmt"
	"unsafe"
)

// CheckStackInvariant verifies the dirty-mark invariant: every stack
// word at or above stackDirty is zero. A stack write that bypasses the
// mark fails it, and would otherwise leak that word to the segment's
// next tenant. The scan covers the whole 16 MB segment, so it is a test
// oracle for the differential suites only, deliberately kept out of
// CheckHeapInvariants (which runs on every LoadImage). It lives in a
// test file so package s1_test tests in this directory can call it
// while the program never carries it.
func (m *Machine) CheckStackInvariant() error {
	if m.stack == nil {
		return nil
	}
	if len(m.stack) != StackLimit-StackBase {
		return fmt.Errorf("s1: stack segment has %d words, want %d", len(m.stack), StackLimit-StackBase)
	}
	// Fast path: one vectorized byte count over the region, which also
	// keeps the -race legs from instrumenting a million word reads per
	// check. Only a nonzero byte (possibly struct padding) falls through
	// to the exact word comparison.
	rest := m.stack[m.stackDirty:]
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(rest))), len(rest)*int(unsafe.Sizeof(Word{})))
	if bytes.Count(raw, []byte{0}) == len(raw) {
		return nil
	}
	for i := m.stackDirty; i < uint64(len(m.stack)); i++ {
		if m.stack[i] != (Word{}) {
			return fmt.Errorf("s1: stack word %#x = %s at or above the dirty mark %#x",
				StackBase+i, m.stack[i], StackBase+m.stackDirty)
		}
	}
	return nil
}

// CheckDispatchIsBase verifies that every dispatch entry is the base
// decoded entry for its PC — the same closure, not an equivalent one —
// so no lowered block is left installed.
func (m *Machine) CheckDispatchIsBase() error {
	if len(m.dec) != len(m.decBase) {
		return fmt.Errorf("s1: dispatch stream has %d entries, base stream %d", len(m.dec), len(m.decBase))
	}
	closure := func(f dexec) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&f)) }
	for pc := range m.dec {
		if d, b := m.dec[pc], m.decBase[pc]; d.n != b.n || closure(d.run) != closure(b.run) {
			return fmt.Errorf("s1: dispatch entry %d is not the base entry (n=%d, base n=%d)", pc, d.n, b.n)
		}
	}
	return nil
}
