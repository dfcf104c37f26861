package sim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/axp"
)

// This file is the simulator's execution core. The classic interpreter
// re-decoded operands, rebuilt operand-access closures, and linearly
// scanned the text segments on every fetch; the engine here pre-decodes
// each text segment once into flat uops (operands widened, displacements
// pre-scaled, timing metadata precomputed) and indexes them with a
// basic-block table so the run loop executes straight-line code by slice
// index and only re-resolves the segment on a control transfer. Nothing
// on the per-instruction path allocates.

// regZero is the always-zero register index in both register files.
const regZero = 31

// uop is a pre-decoded instruction. Everything exec and the timing model
// need per step is computed once at load time:
//
//   - disp is pre-scaled (bytes for memory format, LDAH's <<16 applied,
//     branch word displacements multiplied out to bytes)
//   - readInts/readFPs are the timing model's operand masks (CALL_PAL's
//     implicit a0 read folded in)
//   - writeR/writeF, class and latBase replace the per-step Writes()/
//     classify()/resultLatency() recomputation
//   - ctl marks instructions that may transfer control, i.e. basic-block
//     terminators for the block index
type uop struct {
	op     axp.Op
	class  issueClass
	ra, rb uint8
	rc     uint8
	fa, fb uint8
	fc     uint8
	writeR uint8
	writeF uint8
	hasLit bool
	isLoad bool
	isStr  bool
	ctl    bool
	lit    uint64
	disp   int64
	rdInts uint64
	rdFPs  uint64
	latBas uint64
	palFn  uint32
}

// decSeg is one executable segment pre-decoded for the engine. blockEnd[i]
// is the index one past the straight-line run beginning at instruction i:
// the basic-block table, precomputed for every possible entry PC, so block
// resolution is two array reads instead of a scan or a keyed cache probe.
type decSeg struct {
	base, end uint64
	insts     []axp.Inst // original decode, kept for error reporting
	uops      []uop
	blockEnd  []int32
}

func newDecSeg(base uint64, insts []axp.Inst) decSeg {
	s := decSeg{
		base:     base,
		end:      base + uint64(4*len(insts)),
		insts:    insts,
		uops:     make([]uop, len(insts)),
		blockEnd: make([]int32, len(insts)),
	}
	for i, in := range insts {
		s.uops[i] = predecode(in)
	}
	for i := len(insts) - 1; i >= 0; i-- {
		if s.uops[i].ctl || i == len(insts)-1 {
			s.blockEnd[i] = int32(i + 1)
		} else {
			s.blockEnd[i] = s.blockEnd[i+1]
		}
	}
	return s
}

func classify(in axp.Inst) issueClass {
	switch {
	case in.Op.IsMem() || in.Op == axp.LDA || in.Op == axp.LDAH:
		if in.Op.IsMem() {
			return classMem
		}
		return classInt
	case in.Op.IsBranch() || in.Op.IsJump() || in.Op == axp.CALLPAL:
		return classBr
	case in.Op.Format() == axp.FormatOpF:
		return classFP
	}
	return classInt
}

// latencyBase is the issue-to-use latency excluding cache-miss penalties
// (loads add the miss penalty dynamically).
func latencyBase(in axp.Inst) uint64 {
	switch {
	case in.Op.IsLoad():
		return 3
	case in.Op == axp.MULQ || in.Op == axp.MULL:
		return 16
	case in.Op == axp.UMULH:
		return 18
	case in.Op == axp.DIVT:
		return 30
	case in.Op.Format() == axp.FormatOpF:
		return 6
	}
	return 1
}

func predecode(in axp.Inst) uop {
	u := uop{
		op:     in.Op,
		class:  classify(in),
		ra:     uint8(in.Ra),
		rb:     uint8(in.Rb),
		rc:     uint8(in.Rc),
		fa:     uint8(in.Fa),
		fb:     uint8(in.Fb),
		fc:     uint8(in.Fc),
		hasLit: in.HasLit,
		lit:    uint64(in.Lit),
		isLoad: in.Op.IsLoad(),
		isStr:  in.Op.IsStore(),
		ctl:    in.Op.IsBranch() || in.Op.IsJump() || in.Op == axp.CALLPAL,
		palFn:  in.PalFn,
		writeR: uint8(in.Writes()),
		writeF: uint8(in.WritesF()),
		latBas: latencyBase(in),
	}
	switch in.Op.Format() {
	case axp.FormatBranch, axp.FormatBranchF:
		u.disp = int64(in.Disp) * 4
	default:
		if in.Op == axp.LDAH {
			u.disp = int64(in.Disp) << 16
		} else {
			u.disp = int64(in.Disp)
		}
	}
	u.rdInts, u.rdFPs = in.ReadMasks()
	if in.Op == axp.CALLPAL {
		// CALL_PAL serializes on a0 (the argument register of every PAL
		// service we model).
		u.rdInts |= 1 << axp.A0
	}
	return u
}

// resolve locates the decoded segment and instruction index for the
// current PC, preferring the segment the engine is already executing in.
func (m *Machine) resolve() (*decSeg, int, error) {
	pc := m.PC
	if pc&3 != 0 {
		return nil, 0, fmt.Errorf("sim: unaligned pc %#x", pc)
	}
	s := &m.segs[m.curSeg]
	if pc < s.base || pc >= s.end {
		found := false
		for i := range m.segs {
			t := &m.segs[i]
			if pc >= t.base && pc < t.end {
				m.curSeg = i
				s = t
				found = true
				break
			}
		}
		if !found {
			return nil, 0, fmt.Errorf("sim: pc %#x outside every text segment", pc)
		}
	}
	return s, int((pc - s.base) >> 2), nil
}

// opB returns the second operand of an operate-format uop.
func (m *Machine) opB(u *uop) uint64 {
	if u.hasLit {
		return u.lit
	}
	return m.R[u.rb]
}

// execUop performs the architectural effect of u and advances PC. It
// reports whether a branch was taken and the memory address touched, for
// timing. Writes to the zero registers are undone by the unconditional
// zeroing at the end, mirroring the hardware's wired-zero semantics.
func (m *Machine) execUop(u *uop) (taken bool, memAddr uint64, isMem bool, err error) {
	next := m.PC + 4
	R := &m.R

	switch u.op {
	case axp.LDA, axp.LDAH: // disp pre-scaled for LDAH
		R[u.ra] = R[u.rb] + uint64(u.disp)
	case axp.LDQ:
		memAddr = R[u.rb] + uint64(u.disp)
		isMem = true
		v, e := m.mem.Read64(memAddr)
		if e != nil {
			return false, 0, false, e
		}
		R[u.ra] = v
		m.stats.Loads++
	case axp.LDQU:
		memAddr = (R[u.rb] + uint64(u.disp)) &^ 7
		isMem = true
		if u.ra != regZero { // unop never touches memory in our model
			v, e := m.mem.Read64(memAddr)
			if e != nil {
				return false, 0, false, e
			}
			R[u.ra] = v
			m.stats.Loads++
		} else {
			isMem = false
		}
	case axp.LDL:
		memAddr = R[u.rb] + uint64(u.disp)
		isMem = true
		v, e := m.mem.Read32(memAddr)
		if e != nil {
			return false, 0, false, e
		}
		R[u.ra] = uint64(int64(int32(v)))
		m.stats.Loads++
	case axp.STQ:
		memAddr = R[u.rb] + uint64(u.disp)
		isMem = true
		if e := m.mem.Write64(memAddr, R[u.ra]); e != nil {
			return false, 0, false, e
		}
		m.stats.Stores++
	case axp.STL:
		memAddr = R[u.rb] + uint64(u.disp)
		isMem = true
		if e := m.mem.Write32(memAddr, uint32(R[u.ra])); e != nil {
			return false, 0, false, e
		}
		m.stats.Stores++
	case axp.LDT:
		memAddr = R[u.rb] + uint64(u.disp)
		isMem = true
		v, e := m.mem.Read64(memAddr)
		if e != nil {
			return false, 0, false, e
		}
		m.F[u.fa] = math.Float64frombits(v)
		m.stats.Loads++
	case axp.STT:
		memAddr = R[u.rb] + uint64(u.disp)
		isMem = true
		if e := m.mem.Write64(memAddr, math.Float64bits(m.F[u.fa])); e != nil {
			return false, 0, false, e
		}
		m.stats.Stores++

	case axp.JMP, axp.JSR, axp.RET:
		target := R[u.rb] &^ 3
		R[u.ra] = next
		next = target
		taken = true
	case axp.BR, axp.BSR:
		R[u.ra] = next
		next += uint64(u.disp)
		taken = true
	case axp.BEQ, axp.BNE, axp.BLT, axp.BLE, axp.BGE, axp.BGT, axp.BLBC, axp.BLBS:
		v := int64(R[u.ra])
		switch u.op {
		case axp.BEQ:
			taken = v == 0
		case axp.BNE:
			taken = v != 0
		case axp.BLT:
			taken = v < 0
		case axp.BLE:
			taken = v <= 0
		case axp.BGE:
			taken = v >= 0
		case axp.BGT:
			taken = v > 0
		case axp.BLBC:
			taken = v&1 == 0
		case axp.BLBS:
			taken = v&1 == 1
		}
		if taken {
			next += uint64(u.disp)
		}
	case axp.FBEQ, axp.FBNE, axp.FBLT, axp.FBLE, axp.FBGE, axp.FBGT:
		v := m.F[u.fa]
		switch u.op {
		case axp.FBEQ:
			taken = v == 0
		case axp.FBNE:
			taken = v != 0
		case axp.FBLT:
			taken = v < 0
		case axp.FBLE:
			taken = v <= 0
		case axp.FBGE:
			taken = v >= 0
		case axp.FBGT:
			taken = v > 0
		}
		if taken {
			next += uint64(u.disp)
		}

	case axp.ADDQ:
		R[u.rc] = R[u.ra] + m.opB(u)
	case axp.SUBQ:
		R[u.rc] = R[u.ra] - m.opB(u)
	case axp.ADDL:
		R[u.rc] = uint64(int64(int32(R[u.ra] + m.opB(u))))
	case axp.SUBL:
		R[u.rc] = uint64(int64(int32(R[u.ra] - m.opB(u))))
	case axp.S4ADDQ:
		R[u.rc] = R[u.ra]*4 + m.opB(u)
	case axp.S8ADDQ:
		R[u.rc] = R[u.ra]*8 + m.opB(u)
	case axp.MULQ:
		R[u.rc] = R[u.ra] * m.opB(u)
	case axp.MULL:
		R[u.rc] = uint64(int64(int32(R[u.ra] * m.opB(u))))
	case axp.UMULH:
		h, _ := bits.Mul64(R[u.ra], m.opB(u))
		R[u.rc] = h
	case axp.CMPEQ:
		R[u.rc] = b2u(R[u.ra] == m.opB(u))
	case axp.CMPLT:
		R[u.rc] = b2u(int64(R[u.ra]) < int64(m.opB(u)))
	case axp.CMPLE:
		R[u.rc] = b2u(int64(R[u.ra]) <= int64(m.opB(u)))
	case axp.CMPULT:
		R[u.rc] = b2u(R[u.ra] < m.opB(u))
	case axp.CMPULE:
		R[u.rc] = b2u(R[u.ra] <= m.opB(u))
	case axp.AND:
		R[u.rc] = R[u.ra] & m.opB(u)
	case axp.BIC:
		R[u.rc] = R[u.ra] &^ m.opB(u)
	case axp.BIS:
		R[u.rc] = R[u.ra] | m.opB(u)
	case axp.ORNOT:
		R[u.rc] = R[u.ra] | ^m.opB(u)
	case axp.XOR:
		R[u.rc] = R[u.ra] ^ m.opB(u)
	case axp.EQV:
		R[u.rc] = R[u.ra] ^ ^m.opB(u)
	case axp.SLL:
		R[u.rc] = R[u.ra] << (m.opB(u) & 63)
	case axp.SRL:
		R[u.rc] = R[u.ra] >> (m.opB(u) & 63)
	case axp.SRA:
		R[u.rc] = uint64(int64(R[u.ra]) >> (m.opB(u) & 63))
	case axp.CMOVEQ:
		if R[u.ra] == 0 {
			R[u.rc] = m.opB(u)
		}
	case axp.CMOVNE:
		if R[u.ra] != 0 {
			R[u.rc] = m.opB(u)
		}
	case axp.CMOVLT:
		if int64(R[u.ra]) < 0 {
			R[u.rc] = m.opB(u)
		}
	case axp.CMOVGE:
		if int64(R[u.ra]) >= 0 {
			R[u.rc] = m.opB(u)
		}

	case axp.ADDT:
		m.F[u.fc] = m.F[u.fa] + m.F[u.fb]
	case axp.SUBT:
		m.F[u.fc] = m.F[u.fa] - m.F[u.fb]
	case axp.MULT:
		m.F[u.fc] = m.F[u.fa] * m.F[u.fb]
	case axp.DIVT:
		m.F[u.fc] = m.F[u.fa] / m.F[u.fb]
	case axp.CMPTEQ:
		m.F[u.fc] = fpBool(m.F[u.fa] == m.F[u.fb])
	case axp.CMPTLT:
		m.F[u.fc] = fpBool(m.F[u.fa] < m.F[u.fb])
	case axp.CMPTLE:
		m.F[u.fc] = fpBool(m.F[u.fa] <= m.F[u.fb])
	case axp.CVTQT:
		m.F[u.fc] = float64(int64(math.Float64bits(m.F[u.fb])))
	case axp.CVTTQ:
		m.F[u.fc] = math.Float64frombits(uint64(truncToInt64(m.F[u.fb])))
	case axp.CPYS:
		a := math.Float64bits(m.F[u.fa])
		b := math.Float64bits(m.F[u.fb])
		m.F[u.fc] = math.Float64frombits(a&(1<<63) | b&^(1<<63))

	case axp.CALLPAL:
		switch u.palFn {
		case axp.PalHalt:
			m.halted = true
			m.exit = int64(R[axp.A0])
		case axp.PalOutput:
			m.out = append(m.out, int64(R[axp.A0]))
		case axp.PalOutputChar:
			m.outB = append(m.outB, byte(R[axp.A0]))
		case axp.PalCycles:
			R[axp.V0] = m.cycle
		default:
			return false, 0, false, fmt.Errorf("sim: unknown PAL function %#x", u.palFn)
		}
	default:
		return false, 0, false, fmt.Errorf("sim: unimplemented op %v", u.op)
	}

	R[regZero] = 0
	m.F[regZero] = 0
	m.PC = next
	return taken, memAddr, isMem, nil
}
