package axp

import "fmt"

// Format classifies the encoding layout of an instruction.
type Format uint8

const (
	// FormatMem is the memory format: opcode(6) ra(5) rb(5) disp(16).
	FormatMem Format = iota
	// FormatMemF is the memory format for floating loads/stores: fa in the
	// ra field.
	FormatMemF
	// FormatJump is the memory format with a function code in disp<15:14>
	// and a hint in disp<13:0> (opcode 0x1A).
	FormatJump
	// FormatBranch is the branch format: opcode(6) ra(5) disp(21).
	FormatBranch
	// FormatBranchF is the branch format with an FP register in ra.
	FormatBranchF
	// FormatOp is the integer operate format: opcode(6) ra(5) rb(5)/lit(8)
	// litflag(1) func(7) rc(5).
	FormatOp
	// FormatOpF is the floating operate format: opcode(6) fa(5) fb(5)
	// func(11) fc(5).
	FormatOpF
	// FormatPal is CALL_PAL: opcode(6) func(26).
	FormatPal
)

// Op identifies an instruction mnemonic in the supported subset.
type Op uint8

// Supported instruction mnemonics.
const (
	OpInvalid Op = iota

	// Memory-format address arithmetic and loads/stores.
	LDA  // ra <- rb + sext(disp)
	LDAH // ra <- rb + sext(disp)*65536
	LDL  // ra <- sext(mem32[rb+disp])
	LDQ  // ra <- mem64[rb+disp]
	LDQU // ldq_u: unaligned quadword load; ldq_u r31,0(r31) is UNOP
	STL  // mem32[rb+disp] <- ra
	STQ  // mem64[rb+disp] <- ra
	LDT  // fa <- mem64[rb+disp] (IEEE double)
	STT  // mem64[rb+disp] <- fa

	// Jump group (opcode 0x1A).
	JMP // ra <- pc; pc <- rb & ~3
	JSR // ra <- pc; pc <- rb & ~3
	RET // ra <- pc; pc <- rb & ~3

	// Unconditional branches.
	BR  // ra <- pc; pc += 4*disp
	BSR // ra <- pc; pc += 4*disp

	// Integer conditional branches.
	BEQ
	BNE
	BLT
	BLE
	BGE
	BGT
	BLBC // branch if low bit clear
	BLBS // branch if low bit set

	// Floating conditional branches.
	FBEQ
	FBNE
	FBLT
	FBLE
	FBGE
	FBGT

	// Integer operate: arithmetic.
	ADDL
	ADDQ
	SUBL
	SUBQ
	S4ADDQ
	S8ADDQ
	CMPEQ
	CMPLT
	CMPLE
	CMPULT
	CMPULE
	MULL
	MULQ
	UMULH

	// Integer operate: logical and shifts.
	AND
	BIC
	BIS // "or"; bis r31,r31,r31 is the canonical NOP
	ORNOT
	XOR
	EQV
	SLL
	SRL
	SRA
	CMOVEQ
	CMOVNE
	CMOVLT
	CMOVGE

	// Floating operate (IEEE T = double).
	ADDT
	SUBT
	MULT
	DIVT
	CMPTEQ
	CMPTLT
	CMPTLE
	CVTQT // integer (in FP reg) -> double
	CVTTQ // double -> integer (truncate), result in FP reg
	CPYS  // copy sign: fc <- sign(fa) | mantissa+exp(fb); cpys f,f,f is fmov

	// Transfers between register files go through memory in real Alpha
	// (pre-BWX); we model ITOFT/FTOIT-free code the same way, so no ops here.

	// PALcode.
	CALLPAL

	opMax
)

// PAL function codes used by this toolchain's runtime convention.
const (
	// PalHalt stops simulation; a0 holds the exit status.
	PalHalt = 0x0000
	// PalOutput appends the value in a0 to the program's output trace.
	PalOutput = 0x0083
	// PalOutputChar appends the low byte of a0 to the output trace as a byte.
	PalOutputChar = 0x0084
	// PalCycles reads the cycle counter into v0 (modelled RPCC).
	PalCycles = 0x0085
)

type opInfo struct {
	name   string
	format Format
	opcode uint32 // primary 6-bit opcode
	fn     uint32 // function code (operate formats, jump group)
}

var opTable = [opMax]opInfo{
	LDA:  {"lda", FormatMem, 0x08, 0},
	LDAH: {"ldah", FormatMem, 0x09, 0},
	LDL:  {"ldl", FormatMem, 0x28, 0},
	LDQ:  {"ldq", FormatMem, 0x29, 0},
	LDQU: {"ldq_u", FormatMem, 0x0B, 0},
	STL:  {"stl", FormatMem, 0x2C, 0},
	STQ:  {"stq", FormatMem, 0x2D, 0},
	LDT:  {"ldt", FormatMemF, 0x23, 0},
	STT:  {"stt", FormatMemF, 0x27, 0},

	JMP: {"jmp", FormatJump, 0x1A, 0},
	JSR: {"jsr", FormatJump, 0x1A, 1},
	RET: {"ret", FormatJump, 0x1A, 2},

	BR:  {"br", FormatBranch, 0x30, 0},
	BSR: {"bsr", FormatBranch, 0x34, 0},

	BEQ:  {"beq", FormatBranch, 0x39, 0},
	BNE:  {"bne", FormatBranch, 0x3D, 0},
	BLT:  {"blt", FormatBranch, 0x3A, 0},
	BLE:  {"ble", FormatBranch, 0x3B, 0},
	BGE:  {"bge", FormatBranch, 0x3E, 0},
	BGT:  {"bgt", FormatBranch, 0x3F, 0},
	BLBC: {"blbc", FormatBranch, 0x38, 0},
	BLBS: {"blbs", FormatBranch, 0x3C, 0},

	FBEQ: {"fbeq", FormatBranchF, 0x31, 0},
	FBNE: {"fbne", FormatBranchF, 0x35, 0},
	FBLT: {"fblt", FormatBranchF, 0x32, 0},
	FBLE: {"fble", FormatBranchF, 0x33, 0},
	FBGE: {"fbge", FormatBranchF, 0x36, 0},
	FBGT: {"fbgt", FormatBranchF, 0x37, 0},

	ADDL:   {"addl", FormatOp, 0x10, 0x00},
	ADDQ:   {"addq", FormatOp, 0x10, 0x20},
	SUBL:   {"subl", FormatOp, 0x10, 0x09},
	SUBQ:   {"subq", FormatOp, 0x10, 0x29},
	S4ADDQ: {"s4addq", FormatOp, 0x10, 0x22},
	S8ADDQ: {"s8addq", FormatOp, 0x10, 0x32},
	CMPEQ:  {"cmpeq", FormatOp, 0x10, 0x2D},
	CMPLT:  {"cmplt", FormatOp, 0x10, 0x4D},
	CMPLE:  {"cmple", FormatOp, 0x10, 0x6D},
	CMPULT: {"cmpult", FormatOp, 0x10, 0x1D},
	CMPULE: {"cmpule", FormatOp, 0x10, 0x3D},
	MULL:   {"mull", FormatOp, 0x13, 0x00},
	MULQ:   {"mulq", FormatOp, 0x13, 0x20},
	UMULH:  {"umulh", FormatOp, 0x13, 0x30},

	AND:    {"and", FormatOp, 0x11, 0x00},
	BIC:    {"bic", FormatOp, 0x11, 0x08},
	BIS:    {"bis", FormatOp, 0x11, 0x20},
	ORNOT:  {"ornot", FormatOp, 0x11, 0x28},
	XOR:    {"xor", FormatOp, 0x11, 0x40},
	EQV:    {"eqv", FormatOp, 0x11, 0x48},
	SLL:    {"sll", FormatOp, 0x12, 0x39},
	SRL:    {"srl", FormatOp, 0x12, 0x34},
	SRA:    {"sra", FormatOp, 0x12, 0x3C},
	CMOVEQ: {"cmoveq", FormatOp, 0x11, 0x24},
	CMOVNE: {"cmovne", FormatOp, 0x11, 0x26},
	CMOVLT: {"cmovlt", FormatOp, 0x11, 0x44},
	CMOVGE: {"cmovge", FormatOp, 0x11, 0x46},

	ADDT:   {"addt", FormatOpF, 0x16, 0x0A0},
	SUBT:   {"subt", FormatOpF, 0x16, 0x0A1},
	MULT:   {"mult", FormatOpF, 0x16, 0x0A2},
	DIVT:   {"divt", FormatOpF, 0x16, 0x0A3},
	CMPTEQ: {"cmpteq", FormatOpF, 0x16, 0x0A5},
	CMPTLT: {"cmptlt", FormatOpF, 0x16, 0x0A6},
	CMPTLE: {"cmptle", FormatOpF, 0x16, 0x0A7},
	CVTQT:  {"cvtqt", FormatOpF, 0x16, 0x0BE},
	CVTTQ:  {"cvttq", FormatOpF, 0x16, 0x0AF},
	CPYS:   {"cpys", FormatOpF, 0x17, 0x020},

	CALLPAL: {"call_pal", FormatPal, 0x00, 0},
}

// String returns the assembler mnemonic.
func (op Op) String() string {
	if op > OpInvalid && op < opMax {
		return opTable[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Format returns the encoding format of op.
func (op Op) Format() Format {
	return opTable[op].format
}

// Valid reports whether op is a supported mnemonic.
func (op Op) Valid() bool { return op > OpInvalid && op < opMax }

// IsBranch reports whether op is a PC-relative branch (conditional or not).
func (op Op) IsBranch() bool {
	f := opTable[op].format
	return f == FormatBranch || f == FormatBranchF
}

// IsCondBranch reports whether op is a conditional branch.
func (op Op) IsCondBranch() bool {
	return op.IsBranch() && op != BR && op != BSR
}

// IsJump reports whether op is in the jump group (JMP/JSR/RET).
func (op Op) IsJump() bool { return opTable[op].format == FormatJump }

// IsCall reports whether op transfers control while saving a return address
// used as a call (JSR or BSR).
func (op Op) IsCall() bool { return op == JSR || op == BSR }

// IsMem reports whether op is a memory-format instruction that actually
// accesses memory (loads and stores; LDA/LDAH do not).
func (op Op) IsMem() bool {
	switch op {
	case LDL, LDQ, LDQU, STL, STQ, LDT, STT:
		return true
	}
	return false
}

// IsLoad reports whether op reads memory.
func (op Op) IsLoad() bool {
	switch op {
	case LDL, LDQ, LDQU, LDT:
		return true
	}
	return false
}

// IsStore reports whether op writes memory.
func (op Op) IsStore() bool {
	switch op {
	case STL, STQ, STT:
		return true
	}
	return false
}

// AllOps returns every valid mnemonic, for table-driven tests.
func AllOps() []Op {
	ops := make([]Op, 0, int(opMax)-1)
	for op := OpInvalid + 1; op < opMax; op++ {
		ops = append(ops, op)
	}
	return ops
}
