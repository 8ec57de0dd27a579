package s1

import (
	"errors"
	"testing"
)

// fuzzOperand maps four fuzz bytes to an operand, deliberately covering
// invalid shapes: out-of-range register numbers, NoReg in non-indexed
// modes, label operands with no label, huge shifts, and immediates with
// arbitrary tags.
func fuzzOperand(b0, b1, b2, b3 byte) Operand {
	return Operand{
		Mode:  Mode(b0 % 7), // includes MNone and MLabel
		Base:  b1,
		Index: b2,
		Shift: b3 % 16,
		Off:   int64(int16(uint16(b2)<<8 | uint16(b3))),
		Imm:   Word{Tag: Tag(b1 % 32), Bits: uint64(b0) | uint64(b3)<<8},
	}
}

// fuzzInstr maps a 16-byte chunk to one instruction. The opcode byte
// ranges over the whole uint8 space, so undefined opcodes are part of
// the stream; TagArg is sign-extended to cover negative counts.
func fuzzInstr(b []byte) Instr {
	return Instr{
		Op:     Op(b[0]),
		TagArg: int64(int8(b[1])),
		target: int(int16(uint16(b[2]) | uint16(b[3])<<8)),
		A:      fuzzOperand(b[4], b[5], b[6], b[7]),
		B:      fuzzOperand(b[8], b[9], b[10], b[11]),
		C:      fuzzOperand(b[12], b[13], b[14], b[15]),
	}
}

// FuzzDecode feeds random instruction streams through lowering and
// bounded execution. The contract is the daemon's: lowering must never
// panic, and running an arbitrary lowered stream must end in a clean
// halt or a RuntimeError — the run loop's recover barrier converts
// internal faults, and nothing may escape it.
func FuzzDecode(f *testing.F) {
	// A plausible program: MOV, ADD, compare-jump, PUSH/POP, CALLSQ, HALT.
	seed := make([]byte, 0, 6*16)
	for _, ins := range [][16]byte{
		{byte(OpMOV), 0, 0, 0, 1, 1, 0, 0, 2, 0, 0, 7},
		{byte(OpADD), 0, 0, 0, 1, 1, 0, 0, 2, 0, 0, 3},
		{byte(OpJLT), 0, 1, 0, 1, 1, 0, 0, 2, 0, 0, 9},
		{byte(OpPUSH), 0, 0, 0, 1, 1},
		{byte(OpPOP), 0, 0, 0, 1, 2},
		{byte(OpHALT)},
	} {
		seed = append(seed, ins[:]...)
	}
	f.Add(seed)
	f.Add([]byte{byte(OpJMP), 0, 0xFF, 0x7F}) // jump far out of range
	f.Add([]byte{0xFF, 0x80, 0, 0, 6, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 16
		if n == 0 {
			return
		}
		if n > 512 {
			n = 512
		}
		m := New()
		// Budgets keep hostile streams cheap: a runaway loop trips the
		// step limit, a giant ALLOC trips the heap guard.
		m.StepLimit = 4096
		m.HeapLimit = 1 << 16
		for i := 0; i < n; i++ {
			m.Code = append(m.Code, fuzzInstr(data[i*16:(i+1)*16]))
		}
		m.lowerCode() // must not panic, however malformed the stream

		m.regs[RegSP] = RawInt(StackBase)
		m.regs[RegFP] = RawInt(StackBase)
		m.pc = 1 // skip the top-level HALT at index 0
		// Any RuntimeError is acceptable; another error or a panic
		// escaping Run is the bug.
		var rerr *RuntimeError
		if err := m.Run(); err != nil && !errors.As(err, &rerr) {
			t.Fatalf("Run returned %T %v, want a RuntimeError", err, err)
		} else if err == nil && !m.halted {
			t.Fatal("Run returned without halting")
		}
	})
}
