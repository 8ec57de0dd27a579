package s1

import (
	"fmt"
	"slices"
	"unsafe"
)

// CheckStackRegs verifies that SP and FP lie within [StackBase,
// StackLimit] and that the stack is a doubling of its initial size no
// larger than the segment. It lives in a test file so package s1_test
// tests in this directory can call it while the program never carries
// it.
func (m *Machine) CheckStackRegs() error {
	for _, r := range []uint8{RegSP, RegFP} {
		if a := m.regs[r].Bits; a < StackBase || a > StackLimit {
			return fmt.Errorf("s1: register %d = %#x outside the stack segment [%#x, %#x]", r, a, StackBase, StackLimit)
		}
	}
	if n := len(m.stack); n < initialStackWords || n > StackLimit-StackBase || n&(n-1) != 0 {
		return fmt.Errorf("s1: stack has %d words, want a power of two in [%d, %d]", n, initialStackWords, StackLimit-StackBase)
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

// InitialStackWords is a new or idle machine's stack size in words.
const InitialStackWords = initialStackWords

// StackLen reports how many words the machine's stack has grown to.
func (m *Machine) StackLen() int { return len(m.stack) }

// CheckZeroAboveSP verifies that every stack word from SP up to the
// stack's end reads zero, and that addresses past the end up to
// StackLimit read zero through load.
func (m *Machine) CheckZeroAboveSP() error {
	sp := m.regs[RegSP].Bits
	for i := sp - StackBase; i < uint64(len(m.stack)); i++ {
		if m.stack[i] != (Word{}) {
			return fmt.Errorf("s1: stack word %#x = %s above SP %#x", StackBase+i, m.stack[i], sp)
		}
	}
	for _, a := range []uint64{StackBase + uint64(len(m.stack)), StackLimit - 1} {
		if a < max(sp, StackBase+uint64(len(m.stack))) {
			continue
		}
		if w, err := m.load(a); err != nil || w != (Word{}) {
			return fmt.Errorf("s1: stack address %#x past the stack's end reads %s (%v)", a, w, err)
		}
	}
	return nil
}

// DecodedSharedWith reports whether m and o dispatch PCs [lo, hi) of
// their base streams through the very same closures — as two machines do
// after installing one replayed body's kept stream.
func (m *Machine) DecodedSharedWith(o *Machine, lo, hi int) bool {
	if hi > len(m.decBase) || hi > len(o.decBase) || lo >= hi {
		return false
	}
	closure := func(f dexec) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&f)) }
	for pc := lo; pc < hi; pc++ {
		if closure(m.decBase[pc].run) != closure(o.decBase[pc].run) {
			return false
		}
	}
	return true
}

// PrimArgsDepth reports how many fallback-primitive argument slots are
// in use.
func (m *Machine) PrimArgsDepth() int { return len(m.primArgs) }

// NativePrim runs name's word-level entry on args exactly as the
// primitive gateway tries it; ok=false means there is none or it
// declined.
func (m *Machine) NativePrim(name string, args []Word) (Word, bool) {
	return nativePrims[name].apply(m, args)
}

// CallPrim applies the fallback primitive name to args through the
// whole gateway: the native entry, else the marshaled hook.
func (m *Machine) CallPrim(name string, args []Word) (Word, error) {
	return m.callPrim(m.InternSym(name), args)
}

// NativePrimArity lists the primitives with a native entry, sorted, with
// each one's arity (max -1 for any count).
func NativePrimArity() (names []string, min, max map[string]int) {
	min, max = map[string]int{}, map[string]int{}
	for name, np := range nativePrims {
		names = append(names, name)
		min[name], max[name] = np.min, np.max
	}
	slices.Sort(names)
	return names, min, max
}

// PdlFlonum pushes a raw float and returns a flonum word pointing at
// that stack slot: a pdl number (§6.3).
func (m *Machine) PdlFlonum(f float64) Word {
	if !IsStackAddr(m.regs[RegSP].Bits) {
		m.regs[RegSP] = RawInt(StackBase)
	}
	addr := m.regs[RegSP].Bits
	if err := m.push(RawFloat(f)); err != nil {
		panic(err)
	}
	return Ptr(TagFlonum, addr)
}

// Rplacd stores w into cell's cdr.
func (m *Machine) Rplacd(cell, w Word) error { return m.store(cell.Bits+1, w) }
