package s1

import "fmt"

// AsmError reports an assembly failure.
type AsmError struct {
	Fn  string
	Idx int
	Msg string
}

func (e *AsmError) Error() string {
	return fmt.Sprintf("s1 asm: %s[%d]: %s", e.Fn, e.Idx, e.Msg)
}

// twoAndHalfAddr lists the arithmetic opcodes subject to the S-1's
// 2½-address encoding: a three-operand form must route through RTA or
// RTB ("the three operands to ADD may be in three distinct places,
// provided that one of them is one of the two registers named RTA and
// RTB").
var twoAndHalfAddr = map[Op]bool{
	OpADD: true, OpSUB: true, OpMULT: true, OpDIV: true, OpASH: true,
	OpFADD: true, OpFSUB: true, OpFMULT: true, OpFDIV: true,
	OpFMAX: true, OpFMIN: true,
}

// jumpOps lists opcodes whose last operand is a code label.
var jumpOps = [256]bool{
	OpJMP: true, OpJEQ: true, OpJNE: true, OpJLT: true, OpJLE: true,
	OpJGT: true, OpJGE: true, OpFJEQ: true, OpFJNE: true, OpFJLT: true,
	OpFJLE: true, OpFJGT: true, OpFJGE: true, OpJNIL: true, OpJNNIL: true,
	OpJTAG: true, OpJNTAG: true, OpJEQW: true, OpJNEW: true, OpCATCH: true,
}

// assemble appends the function body to code, resolving local labels and
// validating operand encodings. Returns the entry offset.
func assemble(fnName string, items []Item, code []Instr) ([]Instr, int, error) {
	entry := len(code)
	labels := map[string]int{}
	pc := len(code)
	for _, it := range items {
		if it.Label != "" {
			if _, dup := labels[it.Label]; dup {
				return nil, 0, &AsmError{Fn: fnName, Msg: "duplicate label " + it.Label}
			}
			labels[it.Label] = pc
			continue
		}
		pc++
	}
	code = reserve(code, pc-entry)
	idx := 0
	for _, it := range items {
		if it.Instr == nil {
			continue
		}
		ins := *it.Instr
		if twoAndHalfAddr[ins.Op] && ins.C.Mode != MNone {
			if !ins.A.IsRT() && !ins.B.IsRT() {
				return nil, 0, &AsmError{Fn: fnName, Idx: idx,
					Msg: fmt.Sprintf("%s: three-operand arithmetic must use RTA or RTB (got %s)", ins.Op, ins.String())}
			}
		}
		if jumpOps[ins.Op] {
			lab := lastOperand(&ins)
			if lab.Mode != MLabel {
				return nil, 0, &AsmError{Fn: fnName, Idx: idx,
					Msg: fmt.Sprintf("%s needs a label operand", ins.Op)}
			}
			t, ok := labels[lab.Label]
			if !ok {
				return nil, 0, &AsmError{Fn: fnName, Idx: idx,
					Msg: "undefined label " + lab.Label}
			}
			ins.target = t
		}
		code = append(code, ins)
		idx++
	}
	return code, entry, nil
}

// reserve returns s with room for n more elements, doubling its
// capacity when it must grow: append grows a large slice by a quarter,
// which would copy a load's code vector several times over.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	t := make([]T, len(s), max(2*cap(s), len(s)+n))
	copy(t, s)
	return t
}

// lastOperand returns the label-carrying operand of a jump.
func lastOperand(i *Instr) Operand {
	if i.C.Mode != MNone {
		return i.C
	}
	if i.B.Mode != MNone {
		return i.B
	}
	return i.A
}

// CountMOVs statically counts MOV instructions in a code range —
// the E4 metric ("nearly all of the time it is possible to generate code
// for arithmetic and subscripting expressions that requires no MOV
// instructions").
func CountMOVs(code []Instr, from, to int) int {
	n := 0
	for i := from; i < to && i < len(code); i++ {
		if code[i].Op == OpMOV {
			n++
		}
	}
	return n
}

// Listing renders a code range as parenthesized assembly, the paper's
// Table 4 format.
func Listing(code []Instr, from, to int) string {
	out := ""
	for i := from; i < to && i < len(code); i++ {
		out += fmt.Sprintf("%5d  %s\n", i, code[i].String())
	}
	return out
}
