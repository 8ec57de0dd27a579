package s1

import (
	"fmt"
	"slices"
)

// CheckLoweredPristine verifies that ops[lo:hi] is exactly the
// lowering of Code[lo:hi] with every inline cache empty: the stream of a
// machine that never ran it, and what a copied template or kept body
// stream must stay however its copies run.
func (m *Machine) CheckLoweredPristine(lo, hi int) error {
	if hi > len(m.ops) || hi > len(m.Code) || lo > hi {
		return fmt.Errorf("s1: range [%d,%d) outside a %d-op stream of %d instructions", lo, hi, len(m.ops), len(m.Code))
	}
	for pc := lo; pc < hi; pc++ {
		if got, want := m.ops[pc], lower(&m.Code[pc]); got != want {
			return fmt.Errorf("s1: op %d is %+v, its lowering %+v", pc, got, want)
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

// JumpTarget is a jump's resolved target, relative to its body's entry
// in a Body and absolute in a machine or image code vector, and ok
// reports whether in is a jump at all.
func JumpTarget(in *Instr) (target int, ok bool) { return in.target, jumpOps[in.Op] }
