package codegen

import (
	"repro/internal/s1"
	"repro/internal/tn"
)

// lower converts abstract items to concrete machine items, replacing TN
// placeholders with their packed locations and repairing 2½-address-rule
// violations (which arise when a destination TN lost its preferred RT
// register — the repair MOV is exactly the data movement good packing
// avoids).
func (f *fc) lower() ([]s1.Item, error) {
	// Occupancy of the RT registers per tick, for safe repair scratch.
	type span struct{ start, end int }
	occupied := map[uint8][]span{}
	for _, t := range f.alloc.TNs {
		if t.Loc.Kind == tn.LocReg && (t.Loc.Reg == s1.RegRTA || t.Loc.Reg == s1.RegRTB) {
			occupied[t.Loc.Reg] = append(occupied[t.Loc.Reg], span{t.Start, t.End})
		}
	}
	rtFree := func(reg uint8, tick int) bool {
		for _, s := range occupied[reg] {
			if s.start <= tick && tick <= s.end {
				return false
			}
		}
		return true
	}

	lowerOp := func(o absOperand) (s1.Operand, error) {
		if o.tn == nil {
			return o.op, nil
		}
		switch o.tn.Loc.Kind {
		case tn.LocReg:
			return s1.R(o.tn.Loc.Reg), nil
		case tn.LocFrame:
			return s1.Mem(s1.RegFP, int64(o.tn.Loc.Slot)), nil
		}
		return s1.Operand{}, cgerrf("TN %s has no location", o.tn.Name)
	}

	// Instructions are carved from one slab instead of allocated one by
	// one; a repair's extra MOVs that overflow it start another. The slab
	// and the item list are recycled storage (lowerBufs), released when
	// compileLambda has installed the function.
	n := 0
	for _, it := range f.code {
		if it.present {
			n++
		}
	}
	lb := lowerBufs.Get().(*lowerBuf)
	f.lowered = lb
	if cap(lb.slab) < n {
		lb.slab = make([]s1.Instr, n)
	}
	lb.n = n
	slab := lb.slab[:0:n]
	items := lb.items[:0]
	if cap(items) < len(f.code) {
		items = make([]s1.Item, 0, len(f.code))
	}
	defer func() { lb.items = items }()
	put := func(ins s1.Instr) {
		if len(slab) == cap(slab) {
			slab = make([]s1.Instr, 0, 8)
		}
		slab = append(slab, ins)
		items = append(items, s1.Item{Instr: &slab[len(slab)-1]})
	}
	for _, it := range f.code {
		if !it.present {
			items = append(items, s1.LabelItem(it.label))
			continue
		}
		a, err := lowerOp(it.a)
		if err != nil {
			return nil, err
		}
		b, err := lowerOp(it.b)
		if err != nil {
			return nil, err
		}
		c, err := lowerOp(it.cc)
		if err != nil {
			return nil, err
		}
		ins := s1.Instr{Op: it.op, A: a, B: b, C: c, TagArg: it.tagArg,
			Comment: it.comment}

		if isArith(it.op) && c.Mode != s1.MNone && !a.IsRT() && !b.IsRT() {
			// For commutative operations, swapping the sources may put an
			// RT register in the legal first-source position for free.
			if c.IsRT() && commutative[it.op] {
				ins.B, ins.C = c, b
				put(ins)
				continue
			}
			// Repair: route the first source through a free RT register
			// not otherwise involved in this instruction.
			var rt uint8
			switch {
			case rtFree(s1.RegRTA, it.tick) && !usesReg(b, s1.RegRTA) && !usesReg(c, s1.RegRTA):
				rt = s1.RegRTA
			case rtFree(s1.RegRTB, it.tick) && !usesReg(b, s1.RegRTB) && !usesReg(c, s1.RegRTB):
				rt = s1.RegRTB
			default:
				// Both RT registers hold live values: save whichever one
				// the second source does not name.
				var save uint8 = s1.RegRTA
				if usesReg(c, s1.RegRTA) {
					save = s1.RegRTB
				}
				put(s1.Instr{Op: s1.OpMOV, A: s1.R(s1.RegR2), B: s1.R(save),
					Comment: "save " + s1.RegName(save)})
				put(s1.Instr{Op: s1.OpMOV, A: s1.R(save), B: b})
				put(s1.Instr{Op: ins.Op, A: a, B: s1.R(save), C: c,
					Comment: ins.Comment})
				put(s1.Instr{Op: s1.OpMOV, A: s1.R(save), B: s1.R(s1.RegR2),
					Comment: "restore " + s1.RegName(save)})
				continue
			}
			put(s1.Instr{Op: s1.OpMOV, A: s1.R(rt), B: b,
				Comment: "route through RT (packing loss)"})
			put(s1.Instr{Op: ins.Op, A: a, B: s1.R(rt), C: c,
				Comment: ins.Comment})
			continue
		}
		put(ins)
	}
	return dropSelfMoves(items), nil
}

// dropSelfMoves removes register-to-self MOVs, which appear when packing
// folds a copy's source and destination TN into one register. The run
// loop would retire them as no-ops, but eliding them here makes the copy
// free instead of a wasted dispatch and keeps filler out of the lowered
// stream. Labels are separate items resolved after lowering, so removal
// cannot retarget a jump.
func dropSelfMoves(items []s1.Item) []s1.Item {
	out := items[:0]
	for _, it := range items {
		if it.Instr != nil && it.Instr.Op == s1.OpMOV &&
			it.Instr.A.Mode == s1.MReg && it.Instr.B.Mode == s1.MReg &&
			it.Instr.A.Base == it.Instr.B.Base {
			continue
		}
		out = append(out, it)
	}
	return out
}

// commutative lists operations whose sources may be exchanged.
var commutative = map[s1.Op]bool{
	s1.OpADD: true, s1.OpMULT: true,
	s1.OpFADD: true, s1.OpFMULT: true, s1.OpFMAX: true, s1.OpFMIN: true,
}

func isArith(op s1.Op) bool {
	switch op {
	case s1.OpADD, s1.OpSUB, s1.OpMULT, s1.OpDIV, s1.OpASH,
		s1.OpFADD, s1.OpFSUB, s1.OpFMULT, s1.OpFDIV, s1.OpFMAX, s1.OpFMIN:
		return true
	}
	return false
}

func usesReg(o s1.Operand, reg uint8) bool {
	switch o.Mode {
	case s1.MReg, s1.MMem:
		return o.Base == reg
	case s1.MIdx:
		return o.Base == reg || o.Index == reg
	}
	return false
}
