package s1

import (
	"fmt"
	"strings"
)

// Op is an opcode.
type Op uint8

// The instruction set. Arithmetic binary operations obey the S-1's
// "2½-address" encoding rule (validated by the assembler): with three
// operands, either the destination or the first source must be RTA or
// RTB.
const (
	OpNOP  Op = iota
	OpMOV     // MOV dst, src            dst := src
	OpMOVP    // MOVP tag dst, src       dst := pointer(tag, effaddr(src))
	OpTAG     // TAG dst, src            dst := raw(tag of src)

	// Integer arithmetic on raw bits.
	OpADD
	OpSUB
	OpMULT
	OpDIV
	OpASH // arithmetic shift: dst := src1 << src2 (negative = right)

	// Floating-point arithmetic on raw bits.
	OpFADD
	OpFSUB
	OpFMULT
	OpFDIV
	OpFMAX
	OpFMIN

	// Hardware transcendentals (§3: "there are single instructions for
	// SIN, COS, EXP, LOG, SQRT, ATAN"). Unary: dst, src. FSIN/FCOS take
	// their argument in cycles.
	OpFSIN
	OpFCOS
	OpFSQRT
	OpFATAN
	OpFEXP
	OpFLOG
	OpFABS
	OpFNEG

	// Conversions between the raw integer and raw float worlds.
	OpFLT // dst := float(int src)
	OpFIX // dst := int(trunc(float src))

	// Control transfer. Compare-and-jump forms take two data operands
	// and a label.
	OpJMP
	OpJEQ // integer compare
	OpJNE
	OpJLT
	OpJLE
	OpJGT
	OpJGE
	OpFJEQ // float compare
	OpFJNE
	OpFJLT
	OpFJLE
	OpFJGT
	OpFJGE
	OpJNIL  // jump if operand is NIL
	OpJNNIL // jump if operand is not NIL
	OpJTAG  // JTAG tag, src, label: jump if src has the tag
	OpJNTAG // jump if src does not have the tag
	OpJEQW  // full-word compare (tag+bits): eq test
	OpJNEW

	// Stack.
	OpPUSH
	OpPOP

	// Heap allocation: ALLOC dst, nwords (dst := raw base address).
	OpALLOC

	// Procedure linkage.
	OpCALL  // CALL fn, #nargs
	OpTCALL // tail call: reuse the current frame
	OpRET   // return A to the caller (pushed on their stack)
	OpCALLF // fast linkage (§4.4): CALL without argument-count checking
	OpTCALLF

	// Closures and environments.
	OpCLOSE // CLOSE dst, #fnIndex, env
	OpENV   // ENV dst, parent, #nslots

	// Dynamic binding (deep binding, §4.4).
	OpSPECBIND   // SPECBIND #sym, val
	OpSPECUNBIND // SPECUNBIND #n

	// Non-local exits.
	OpCATCH    // CATCH tag, handlerLabel: push catch frame
	OpENDCATCH // pop catch frame

	// System (runtime) routines, the SQ world of Table 4.
	OpCALLSQ // CALLSQ #routine

	OpHALT
)

var opNames = map[Op]string{
	OpNOP: "NOP", OpMOV: "MOV", OpMOVP: "MOVP", OpTAG: "TAG",
	OpADD: "ADD", OpSUB: "SUB", OpMULT: "MULT", OpDIV: "DIV", OpASH: "ASH",
	OpFADD: "FADD", OpFSUB: "FSUB", OpFMULT: "FMULT", OpFDIV: "FDIV",
	OpFMAX: "FMAX", OpFMIN: "FMIN",
	OpFSIN: "FSIN", OpFCOS: "FCOS", OpFSQRT: "FSQRT", OpFATAN: "FATAN",
	OpFEXP: "FEXP", OpFLOG: "FLOG", OpFABS: "FABS", OpFNEG: "FNEG",
	OpFLT: "FLT", OpFIX: "FIX",
	OpJMP: "JMPA", OpJEQ: "JEQ", OpJNE: "JNE", OpJLT: "JLT", OpJLE: "JLE",
	OpJGT: "JGT", OpJGE: "JGE",
	OpFJEQ: "FJEQ", OpFJNE: "FJNE", OpFJLT: "FJLT", OpFJLE: "FJLE",
	OpFJGT: "FJGT", OpFJGE: "FJGE",
	OpJNIL: "JNIL", OpJNNIL: "JNNIL", OpJTAG: "JTAG", OpJNTAG: "JNTAG",
	OpJEQW: "JEQW", OpJNEW: "JNEW",
	OpPUSH: "PUSH", OpPOP: "POP", OpALLOC: "ALLOC",
	OpCALL: "CALL", OpTCALL: "TCALL", OpRET: "RET",
	OpCALLF: "CALLF", OpTCALLF: "TCALLF",
	OpCLOSE: "CLOSE", OpENV: "ENV",
	OpSPECBIND: "SPECBIND", OpSPECUNBIND: "SPECUNBIND",
	OpCATCH: "CATCH", OpENDCATCH: "ENDCATCH",
	OpCALLSQ: "CALLSQ", OpHALT: "HALT",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("OP%d", uint8(o))
}

// cycleCost gives the simulator's per-opcode costs, scaled from the S-1
// design (fast integer ALU, multi-cycle float, expensive but single-
// instruction transcendentals, microcoded linkage). A dense array rather
// than a map: lowering (engine.go) bakes the cost into each lop's meter,
// and the old per-step map lookup was a measurable share of dispatch.
var cycleCost = [NumOps]int64{
	OpNOP: 1, OpMOV: 1, OpMOVP: 1, OpTAG: 1,
	OpADD: 1, OpSUB: 1, OpMULT: 3, OpDIV: 10, OpASH: 1,
	OpFADD: 2, OpFSUB: 2, OpFMULT: 4, OpFDIV: 8, OpFMAX: 2, OpFMIN: 2,
	OpFSIN: 20, OpFCOS: 20, OpFSQRT: 15, OpFATAN: 25, OpFEXP: 22, OpFLOG: 22,
	OpFABS: 1, OpFNEG: 1,
	OpFLT: 2, OpFIX: 2,
	OpJMP: 1, OpJEQ: 1, OpJNE: 1, OpJLT: 1, OpJLE: 1, OpJGT: 1, OpJGE: 1,
	OpFJEQ: 2, OpFJNE: 2, OpFJLT: 2, OpFJLE: 2, OpFJGT: 2, OpFJGE: 2,
	OpJNIL: 1, OpJNNIL: 1, OpJTAG: 1, OpJNTAG: 1, OpJEQW: 1, OpJNEW: 1,
	OpPUSH: 1, OpPOP: 1, OpALLOC: 6,
	OpCALL: 8, OpTCALL: 8, OpRET: 5, OpCALLF: 4, OpTCALLF: 4,
	OpCLOSE: 8, OpENV: 6,
	OpSPECBIND: 4, OpSPECUNBIND: 3,
	OpCATCH: 6, OpENDCATCH: 2,
	OpCALLSQ: 4, // plus the routine's own cost
	OpHALT:   1,
}

// Mode is an operand addressing mode.
type Mode uint8

// Addressing modes. MIdx is the S-1's indexed mode: effective address =
// Off + R[Base] + (R[Index] << Shift), with either register optional —
// rich enough to "fetch from a record a component that is a pointer to an
// array, fetch an index from a local variable, adjust the index for the
// element size, and fetch the selected array element" in one operand.
const (
	MNone  Mode = iota
	MReg        // register
	MImm        // immediate word
	MMem        // mem[R[Base] + Off]
	MAbs        // mem[Off]
	MIdx        // mem[Off + R[Base] + (R[Index] << Shift)]
	MLabel      // code label (jump/call target)
)

// NoReg marks an unused register field in MIdx operands.
const NoReg uint8 = 0xFF

// Operand is one instruction operand.
type Operand struct {
	Mode  Mode
	Base  uint8
	Index uint8
	Shift uint8
	Off   int64
	Imm   Word
	Label string
}

// Convenience constructors.

// R is a register operand.
func R(reg uint8) Operand { return Operand{Mode: MReg, Base: reg} }

// Imm is an immediate operand.
func Imm(w Word) Operand { return Operand{Mode: MImm, Imm: w} }

// ImmInt is an immediate raw integer.
func ImmInt(v int64) Operand { return Imm(RawInt(v)) }

// Mem is mem[reg+off].
func Mem(reg uint8, off int64) Operand { return Operand{Mode: MMem, Base: reg, Off: off} }

// Abs is mem[addr].
func Abs(addr int64) Operand { return Operand{Mode: MAbs, Off: addr} }

// Idx is the indexed mode mem[off + R[base] + (R[index]<<shift)]; pass
// NoReg to omit a register.
func Idx(base uint8, off int64, index uint8, shift uint8) Operand {
	return Operand{Mode: MIdx, Base: base, Off: off, Index: index, Shift: shift}
}

// Lbl is a label operand.
func Lbl(name string) Operand { return Operand{Mode: MLabel, Label: name} }

func (o Operand) isReg(reg uint8) bool { return o.Mode == MReg && o.Base == reg }

// IsRT reports an RTA/RTB register operand (the 2½-address rule).
func (o Operand) IsRT() bool { return o.isReg(RegRTA) || o.isReg(RegRTB) }

func (o Operand) String() string {
	switch o.Mode {
	case MNone:
		return ""
	case MReg:
		return RegName(o.Base)
	case MImm:
		return "(? " + o.Imm.String() + ")"
	case MMem:
		return fmt.Sprintf("(%s %d)", RegName(o.Base), o.Off)
	case MAbs:
		return fmt.Sprintf("(@ %d)", o.Off)
	case MIdx:
		s := fmt.Sprintf("(IDX %d", o.Off)
		if o.Base != NoReg {
			s += " " + RegName(o.Base)
		}
		if o.Index != NoReg {
			s += fmt.Sprintf(" %s<<%d", RegName(o.Index), o.Shift)
		}
		return s + ")"
	case MLabel:
		return o.Label
	}
	return "?"
}

// Instr is one instruction. TagArg carries the tag for MOVP/JTAG, the SQ
// routine index for CALLSQ, the argument count for CALL/TCALL, the slot
// count for ENV, the function index for CLOSE, and the symbol index for
// SPECBIND.
type Instr struct {
	Op      Op
	A, B, C Operand
	TagArg  int64
	Comment string

	// target is the resolved instruction index for label operands,
	// filled by the assembler.
	target int
}

func (i Instr) String() string {
	var b strings.Builder
	b.WriteString(i.Op.String())
	switch i.Op {
	case OpMOVP, OpJTAG, OpJNTAG:
		fmt.Fprintf(&b, " %s", Tag(i.TagArg))
	case OpCALLSQ:
		fmt.Fprintf(&b, " %s", SQName(int(i.TagArg)))
	case OpSPECBIND, OpSPECUNBIND, OpENV, OpCLOSE:
		fmt.Fprintf(&b, " #%d", i.TagArg)
	}
	for _, op := range []Operand{i.A, i.B, i.C} {
		if op.Mode != MNone {
			b.WriteString(" " + op.String())
		}
	}
	switch i.Op {
	case OpCALL, OpTCALL, OpCALLF, OpTCALLF:
		fmt.Fprintf(&b, " #%d", i.TagArg)
	}
	if i.Comment != "" {
		// Align comments for readability of listings.
		for b.Len() < 40 {
			b.WriteByte(' ')
		}
		b.WriteString("; " + i.Comment)
	}
	return b.String()
}

// Item is an element of an assembly listing: a label or an instruction.
type Item struct {
	Label string
	Instr *Instr
}

// LabelItem makes a label item.
func LabelItem(name string) Item { return Item{Label: name} }

// InstrItem makes an instruction item.
func InstrItem(i Instr) Item { return Item{Instr: &i} }
