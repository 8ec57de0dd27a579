package s1

import (
	"fmt"

	"repro/internal/sexp"
)

// FromValue converts a host S-expression into a machine word, allocating
// heap structure as needed. Used for literals at load time and for the
// results of fallback primitives.
//
// Multi-allocation builds (conses, vectors, arrays) register their
// partial structure on the temp-root stack: a collection can fire
// between any two allocations (always, under GC stress), and words held
// only in Go locals are invisible to the mark phase. Element values are
// also computed into locals before being stored — the recursive call can
// grow the heap, and Go evaluates the indexed destination before the
// right-hand side.
func (m *Machine) FromValue(v sexp.Value) Word {
	if m.cap != nil && m.capDepth == 0 {
		m.cap.Consts = append(m.cap.Consts, sexp.Print(v))
	}
	m.capDepth++
	defer func() { m.capDepth-- }()
	switch x := v.(type) {
	case *sexp.Symbol:
		if x == sexp.Nil {
			return NilWord
		}
		if x == sexp.T {
			return TWord
		}
		if i, ok := m.symIdx[x.Name]; ok && m.Syms[i].host == x {
			return Ptr(TagSymbol, uint64(i))
		}
		if !x.Interned() {
			return Ptr(TagSymbol, uint64(m.uninternedSym(x)))
		}
		return Ptr(TagSymbol, uint64(m.InternSym(x.Name)))
	case sexp.Fixnum:
		return FixnumWord(int64(x))
	case sexp.Flonum:
		return m.ConsFlonum(float64(x))
	case *sexp.Cons:
		car := m.FromValue(x.Car)
		depth := m.protect(car)
		cdr := m.FromValue(x.Cdr)
		m.protect(cdr)
		w := m.Cons(car, cdr)
		m.release(depth)
		return w
	case *sexp.Vector:
		a := m.Alloc(1 + len(x.Items))
		w := Ptr(TagVector, a)
		depth := m.protect(w)
		m.heap[a-HeapBase] = RawInt(int64(len(x.Items)))
		for i, it := range x.Items {
			// The recursive FromValue can trigger a minor collection that
			// promotes the temp-rooted vector to the old generation mid
			// build; a young element stored afterwards is then an old→young
			// edge, which must go through the write barrier (heapWrite) or
			// the next minor would reclaim it.
			ew := m.FromValue(it)
			m.heapWrite(a-HeapBase+1+uint64(i), ew)
		}
		m.release(depth)
		return w
	case *sexp.Array:
		a := m.Alloc(1 + len(x.Dims) + len(x.Items))
		w := Ptr(TagArray, a)
		depth := m.protect(w)
		m.heap[a-HeapBase] = RawInt(int64(len(x.Dims)))
		for i, d := range x.Dims {
			m.heap[a-HeapBase+1+uint64(i)] = RawInt(int64(d))
		}
		base := a - HeapBase + 1 + uint64(len(x.Dims))
		for i, it := range x.Items {
			// Same promotion hazard as the vector case above.
			ew := m.FromValue(it)
			m.heapWrite(base+uint64(i), ew)
		}
		m.release(depth)
		return w
	case *sexp.FloatArray:
		a := m.Alloc(1 + len(x.Dims) + len(x.Data))
		m.heap[a-HeapBase] = RawInt(int64(len(x.Dims)))
		for i, d := range x.Dims {
			m.heap[a-HeapBase+1+uint64(i)] = RawInt(int64(d))
		}
		base := a - HeapBase + 1 + uint64(len(x.Dims))
		for i, f := range x.Data {
			m.heap[base+uint64(i)] = RawFloat(f)
		}
		return Ptr(TagFArray, a)
	case *sexp.Bignum, *sexp.Ratio, sexp.String, sexp.Character:
		return m.Box(v)
	}
	return m.Box(v)
}

// ToValue converts a machine word back into a host S-expression.
// Functions and closures convert to unreadable boxed placeholders.
// Arrays convert to fresh host arrays (the fallback primitives that use
// this conversion never mutate their arguments).
func (m *Machine) ToValue(w Word) (sexp.Value, error) { return m.toValue(w, 0) }

// maxValueNesting bounds how deeply ToValue descends through cars and
// elements (a list's length is bounded separately), so a structure that
// contains itself there is an error, not an unbounded recursion. The
// reader nests host values at most 10,000 deep; compiled code can build
// deeper ones.
const maxValueNesting = 100_000

// toValue is ToValue at nesting depth nest.
func (m *Machine) toValue(w Word, nest int) (sexp.Value, error) {
	if nest > maxValueNesting {
		return nil, &RuntimeError{PC: m.pc, Msg: "structure nested too deeply (circular?)"}
	}
	switch w.Tag {
	case TagNil:
		return sexp.Nil, nil
	case TagT:
		return sexp.T, nil
	case TagFixnum:
		return sexp.Fixnum(w.Int()), nil
	case TagFlonum:
		v, err := m.load(w.Bits)
		if err != nil {
			return nil, err
		}
		return sexp.Flonum(v.Float()), nil
	case TagSymbol:
		return m.Syms[w.Bits].host, nil
	case TagBoxed:
		return m.unbox(w)
	case TagCons:
		return m.consToValue(w, 0, nest)
	case TagVector:
		n, err := m.load(w.Bits)
		if err != nil {
			return nil, err
		}
		out := &sexp.Vector{Items: make([]sexp.Value, n.Int())}
		for i := int64(0); i < n.Int(); i++ {
			it, err := m.load(w.Bits + 1 + uint64(i))
			if err != nil {
				return nil, err
			}
			if out.Items[i], err = m.toValue(it, nest+1); err != nil {
				return nil, err
			}
		}
		return out, nil
	case TagArray:
		dims, base, err := m.arrayHeader(w)
		if err != nil {
			return nil, err
		}
		n := 1
		for _, d := range dims {
			n *= d
		}
		out := sexp.NewArray(dims, sexp.Nil)
		for i := 0; i < n; i++ {
			it, err := m.load(base + uint64(i))
			if err != nil {
				return nil, err
			}
			if out.Items[i], err = m.toValue(it, nest+1); err != nil {
				return nil, err
			}
		}
		return out, nil
	case TagFArray:
		dims, base, err := m.arrayHeader(w)
		if err != nil {
			return nil, err
		}
		out := sexp.NewFloatArray(dims)
		for i := range out.Data {
			it, err := m.load(base + uint64(i))
			if err != nil {
				return nil, err
			}
			out.Data[i] = it.Float()
		}
		return out, nil
	case TagFunc:
		return sexp.String(fmt.Sprintf("#<function %s>", m.Funcs[w.Bits].Name)), nil
	case TagClosure:
		return sexp.String("#<closure>"), nil
	}
	return nil, &RuntimeError{PC: m.pc, Msg: "cannot convert word " + w.String()}
}

// consToValue converts the list at w, depth cdrs into one at nesting
// depth nest.
func (m *Machine) consToValue(w Word, depth, nest int) (sexp.Value, error) {
	if depth > 1_000_000 {
		return nil, &RuntimeError{PC: m.pc, Msg: "list too deep (circular?)"}
	}
	if w.Tag == TagNil {
		return sexp.Nil, nil
	}
	if w.Tag != TagCons {
		return m.toValue(w, nest)
	}
	car, err := m.load(w.Bits)
	if err != nil {
		return nil, err
	}
	cdr, err := m.load(w.Bits + 1)
	if err != nil {
		return nil, err
	}
	cv, err := m.toValue(car, nest+1)
	if err != nil {
		return nil, err
	}
	dv, err := m.consToValue(cdr, depth+1, nest)
	if err != nil {
		return nil, err
	}
	return sexp.NewCons(cv, dv), nil
}

// arrayHeader reads [rank, dims...] and returns dims plus the data base
// address.
func (m *Machine) arrayHeader(w Word) ([]int, uint64, error) {
	rank, err := m.load(w.Bits)
	if err != nil {
		return nil, 0, err
	}
	dims := make([]int, rank.Int())
	for i := range dims {
		d, err := m.load(w.Bits + 1 + uint64(i))
		if err != nil {
			return nil, 0, err
		}
		dims[i] = int(d.Int())
	}
	return dims, w.Bits + 1 + uint64(len(dims)), nil
}

// PrintWord renders a word as its Lisp value where possible.
func (m *Machine) PrintWord(w Word) string {
	v, err := m.ToValue(w)
	if err != nil {
		return w.String()
	}
	return sexp.Print(v)
}
