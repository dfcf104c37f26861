package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/axp"
	"repro/internal/objfile"
)

// image assembles instructions into a minimal runnable image.
func image(t *testing.T, insts []axp.Inst) *objfile.Image {
	t.Helper()
	code, err := axp.EncodeAll(insts)
	if err != nil {
		t.Fatal(err)
	}
	return &objfile.Image{
		Entry: objfile.TextBase,
		Segments: []objfile.Segment{
			{Name: ".text", Addr: objfile.TextBase, Data: code},
			{Name: ".data", Addr: objfile.DataBase, Data: make([]byte, 4096)},
		},
		Symbols: []objfile.ImageSymbol{
			{Name: "__start", Addr: objfile.TextBase, Size: uint64(len(code)), Kind: objfile.SymProc},
		},
	}
}

// runInsts executes the program and returns its output trace.
func runInsts(t *testing.T, insts []axp.Inst) []int64 {
	t.Helper()
	res, err := Run(image(t, insts), Config{MaxInstructions: 100000})
	if err != nil {
		t.Fatal(err)
	}
	return res.Output
}

// emitOut writes instructions that print reg and then halt.
func outAndHalt(reg axp.Reg) []axp.Inst {
	return []axp.Inst{
		axp.Mov(reg, axp.A0),
		axp.Pal(axp.PalOutput),
		axp.Mov(axp.Zero, axp.A0),
		axp.Pal(axp.PalHalt),
	}
}

func TestExecArithmetic(t *testing.T) {
	cases := []struct {
		name  string
		setup []axp.Inst
		want  int64
	}{
		{"lda", []axp.Inst{axp.MemInst(axp.LDA, axp.T0, axp.Zero, -7)}, -7},
		{"ldah", []axp.Inst{axp.MemInst(axp.LDAH, axp.T0, axp.Zero, 2)}, 131072},
		{"addq-lit", []axp.Inst{
			axp.MemInst(axp.LDA, axp.T1, axp.Zero, 40),
			axp.OpLitInst(axp.ADDQ, axp.T1, 2, axp.T0),
		}, 42},
		{"subq", []axp.Inst{
			axp.MemInst(axp.LDA, axp.T1, axp.Zero, 10),
			axp.MemInst(axp.LDA, axp.T2, axp.Zero, 25),
			axp.OpInst(axp.SUBQ, axp.T1, axp.T2, axp.T0),
		}, -15},
		{"mulq", []axp.Inst{
			axp.MemInst(axp.LDA, axp.T1, axp.Zero, -6),
			axp.OpLitInst(axp.MULQ, axp.T1, 7, axp.T0),
		}, -42},
		{"sra-negative", []axp.Inst{
			axp.MemInst(axp.LDA, axp.T1, axp.Zero, -64),
			axp.OpLitInst(axp.SRA, axp.T1, 3, axp.T0),
		}, -8},
		{"srl", []axp.Inst{
			axp.MemInst(axp.LDA, axp.T1, axp.Zero, 64),
			axp.OpLitInst(axp.SRL, axp.T1, 3, axp.T0),
		}, 8},
		{"cmplt-true", []axp.Inst{
			axp.MemInst(axp.LDA, axp.T1, axp.Zero, -5),
			axp.OpLitInst(axp.CMPLT, axp.T1, 3, axp.T0),
		}, 1},
		{"cmpult-negative-is-big", []axp.Inst{
			axp.MemInst(axp.LDA, axp.T1, axp.Zero, -5),
			axp.OpLitInst(axp.CMPULT, axp.T1, 3, axp.T0),
		}, 0},
		{"ornot-zero", []axp.Inst{
			axp.MemInst(axp.LDA, axp.T1, axp.Zero, 0),
			axp.OpInst(axp.ORNOT, axp.Zero, axp.T1, axp.T0),
		}, -1},
		{"s8addq", []axp.Inst{
			axp.MemInst(axp.LDA, axp.T1, axp.Zero, 5),
			axp.OpLitInst(axp.S8ADDQ, axp.T1, 2, axp.T0),
		}, 42},
		{"cmoveq-taken", []axp.Inst{
			axp.MemInst(axp.LDA, axp.T0, axp.Zero, 9),
			axp.OpLitInst(axp.CMOVEQ, axp.Zero, 5, axp.T0),
		}, 5},
		{"cmovne-not-taken", []axp.Inst{
			axp.MemInst(axp.LDA, axp.T0, axp.Zero, 9),
			axp.OpLitInst(axp.CMOVNE, axp.Zero, 5, axp.T0),
		}, 9},
		{"addl-wraps", []axp.Inst{
			axp.MemInst(axp.LDAH, axp.T1, axp.Zero, 0x7FFF),
			axp.MemInst(axp.LDA, axp.T1, axp.T1, 0x7FFF),
			axp.OpInst(axp.ADDL, axp.T1, axp.T1, axp.T0),
		}, -65538}, // 0x7FFF7FFF + 0x7FFF7FFF wraps to 0xFFFEFFFE as a longword
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := runInsts(t, append(c.setup, outAndHalt(axp.T0)...))
			if len(out) != 1 || out[0] != c.want {
				t.Errorf("got %v, want [%d]", out, c.want)
			}
		})
	}
}

func TestExecMemory(t *testing.T) {
	// Store then load via SP.
	prog := []axp.Inst{
		axp.MemInst(axp.LDA, axp.T1, axp.Zero, 1234),
		axp.MemInst(axp.STQ, axp.T1, axp.SP, -8),
		axp.MemInst(axp.LDQ, axp.T0, axp.SP, -8),
	}
	out := runInsts(t, append(prog, outAndHalt(axp.T0)...))
	if out[0] != 1234 {
		t.Fatalf("got %v", out)
	}

	// STL/LDL truncate and sign-extend.
	prog2 := []axp.Inst{
		axp.MemInst(axp.LDAH, axp.T1, axp.Zero, -1), // 0xFFFF0000 sign-extended
		axp.MemInst(axp.STL, axp.T1, axp.SP, -16),
		axp.MemInst(axp.LDL, axp.T0, axp.SP, -16),
	}
	out2 := runInsts(t, append(prog2, outAndHalt(axp.T0)...))
	if out2[0] != -65536 {
		t.Fatalf("ldl got %v, want -65536", out2)
	}
}

func TestExecBranches(t *testing.T) {
	// beq not taken, bne taken: output should be 7 (skips the lda 9).
	prog := []axp.Inst{
		axp.MemInst(axp.LDA, axp.T1, axp.Zero, 1),
		axp.BranchInst(axp.BNE, axp.T1, 1), // skip next
		axp.MemInst(axp.LDA, axp.T0, axp.Zero, 9),
		axp.MemInst(axp.LDA, axp.T0, axp.T0, 7), // t0 = t0 + 7
	}
	out := runInsts(t, append(prog, outAndHalt(axp.T0)...))
	if out[0] != 7 {
		t.Fatalf("got %v, want [7]", out)
	}
}

func TestExecCallRet(t *testing.T) {
	// bsr to a function that sets t0=11 and returns.
	prog := []axp.Inst{
		axp.BranchInst(axp.BSR, axp.RA, 4), // to +5th inst
		axp.Mov(axp.T0, axp.A0),
		axp.Pal(axp.PalOutput),
		axp.Mov(axp.Zero, axp.A0),
		axp.Pal(axp.PalHalt),
		// callee:
		axp.MemInst(axp.LDA, axp.T0, axp.Zero, 11),
		axp.JumpInst(axp.RET, axp.Zero, axp.RA),
	}
	res, err := Run(image(t, prog), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != 11 {
		t.Fatalf("got %v", res.Output)
	}
}

func TestExecFloat(t *testing.T) {
	// Build 2.5 via integer bits through memory, then arithmetic.
	prog := []axp.Inst{
		// 2.5 = 0x4004000000000000
		axp.MemInst(axp.LDAH, axp.T1, axp.Zero, 0x4004),
		axp.OpLitInst(axp.SLL, axp.T1, 32, axp.T1),
		axp.MemInst(axp.STQ, axp.T1, axp.SP, -8),
		axp.MemFInst(axp.LDT, 1, axp.SP, -8),
		axp.OpFInst(axp.ADDT, 1, 1, 2),   // f2 = 5.0
		axp.OpFInst(axp.MULT, 2, 2, 3),   // f3 = 25.0
		axp.OpFInst(axp.CVTTQ, 31, 3, 4), // f4 bits = 25
		axp.MemFInst(axp.STT, 4, axp.SP, -16),
		axp.MemInst(axp.LDQ, axp.T0, axp.SP, -16),
	}
	out := runInsts(t, append(prog, outAndHalt(axp.T0)...))
	if out[0] != 25 {
		t.Fatalf("got %v, want [25]", out)
	}
}

func TestExecErrors(t *testing.T) {
	// Unaligned quadword access.
	bad := []axp.Inst{
		axp.MemInst(axp.LDQ, axp.T0, axp.SP, -7),
	}
	if _, err := Run(image(t, bad), Config{}); err == nil {
		t.Error("expected unaligned-access error")
	}
	// Runaway loop hits the instruction cap at a block boundary.
	loop := []axp.Inst{axp.BranchInst(axp.BR, axp.Zero, -1)}
	if _, err := Run(image(t, loop), Config{MaxInstructions: 1000}); !errors.Is(err, ErrInstructionLimit) {
		t.Errorf("loop: got %v, want ErrInstructionLimit", err)
	}
	// A straight-line block longer than the cap hits it mid-block.
	line := make([]axp.Inst, 8)
	for i := range line {
		line[i] = axp.Nop()
	}
	line = append(line, outAndHalt(axp.T0)...)
	if _, err := Run(image(t, line), Config{MaxInstructions: 4}); !errors.Is(err, ErrInstructionLimit) {
		t.Errorf("straight line: got %v, want ErrInstructionLimit", err)
	}
	// PC escaping text.
	escape := []axp.Inst{axp.JumpInst(axp.JMP, axp.Zero, axp.Zero)}
	if _, err := Run(image(t, escape), Config{}); err == nil {
		t.Error("expected bad-pc error")
	}
}

func TestCacheDirectMapped(t *testing.T) {
	c := NewCache(8<<10, 32)
	if c.Access(0x1000) {
		t.Error("first access should miss")
	}
	if !c.Access(0x1008) {
		t.Error("same line should hit")
	}
	if c.Access(0x1000 + 8192) {
		t.Error("aliased line should miss")
	}
	if c.Access(0x1000) {
		t.Error("original line should have been evicted")
	}
	c.Reset()
	if c.Access(0x1000) {
		t.Error("reset should invalidate")
	}
	if c.Accesses != 1 || c.Misses != 1 {
		t.Errorf("stats after reset: %d/%d", c.Accesses, c.Misses)
	}
}

func TestMemoryQuick(t *testing.T) {
	m := NewMemory()
	f := func(addr uint32, v uint64) bool {
		a := uint64(addr) &^ 7
		if err := m.Write64(a, v); err != nil {
			return false
		}
		got, err := m.Read64(a)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Unwritten memory reads as zero.
	if v, err := m.Read64(0x9999990000); err != nil || v != 0 {
		t.Errorf("fresh read = %d, %v", v, err)
	}
}

func TestTimingSensitivities(t *testing.T) {
	// A dependent chain of loads must cost more cycles than independent ALU
	// ops of the same count.
	mkProg := func(body []axp.Inst) []axp.Inst {
		return append(body, axp.Mov(axp.Zero, axp.A0), axp.Pal(axp.PalHalt))
	}
	var chain []axp.Inst
	for i := 0; i < 64; i++ {
		chain = append(chain, axp.MemInst(axp.LDQ, axp.T0, axp.SP, -8))
	}
	var alu []axp.Inst
	for i := 0; i < 64; i++ {
		alu = append(alu, axp.OpLitInst(axp.ADDQ, axp.T0, 1, axp.T0))
	}
	run := func(p []axp.Inst) uint64 {
		res, err := Run(image(t, mkProg(p)), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Cycles
	}
	// The load results are unused, so loads pipeline; but use each loaded
	// value to expose the 3-cycle latency.
	var chainUse []axp.Inst
	for i := 0; i < 64; i++ {
		chainUse = append(chainUse,
			axp.MemInst(axp.LDQ, axp.T0, axp.SP, -8),
			axp.OpLitInst(axp.ADDQ, axp.T0, 1, axp.T1))
	}
	cAlu := run(alu)
	cUse := run(chainUse)
	if cUse <= cAlu*2 {
		t.Errorf("load-use chain (%d cycles) should be slower than ALU chain (%d)", cUse, cAlu)
	}
	_ = run(chain)
}

func TestDualIssuePairing(t *testing.T) {
	// Independent int+mem pairs in the same quadword should dual-issue.
	var prog []axp.Inst
	for i := 0; i < 32; i++ {
		prog = append(prog,
			axp.OpLitInst(axp.ADDQ, axp.T0, 1, axp.T0),
			axp.MemInst(axp.LDQ, axp.T1, axp.SP, -8))
	}
	prog = append(prog, axp.Mov(axp.Zero, axp.A0), axp.Pal(axp.PalHalt))
	res, err := Run(image(t, prog), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DualIssued < 20 {
		t.Errorf("only %d dual issues out of ~32 possible pairs", res.Stats.DualIssued)
	}
}

func TestTwoLevelCache(t *testing.T) {
	// A working set larger than L1 (8KB) but within L2 must cost less with
	// the board cache than without it: repeat sweeps over 16KB of stack.
	var prog []axp.Inst
	prog = append(prog, axp.MemInst(axp.LDA, axp.T2, axp.Zero, 64)) // outer counter
	for i := 0; i < 2048; i++ {
		prog = append(prog, axp.MemInst(axp.LDQ, axp.T3, axp.SP, int32(-8-8*i)))
	}
	prog = append(prog,
		axp.OpLitInst(axp.SUBQ, axp.T2, 1, axp.T2),
		axp.BranchInst(axp.BGT, axp.T2, -(2048+2)),
		axp.Mov(axp.Zero, axp.A0),
		axp.Pal(axp.PalHalt),
	)
	run := func(cfg Config) Stats {
		res, err := Run(image(t, prog), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	flat := run(Config{Timing: true, MissPenalty: 30})
	two := run(Config{Timing: true, MissPenalty: 6, L2Bytes: 512 << 10, L2MissPenalty: 24})
	if two.Cycles >= flat.Cycles {
		t.Errorf("board cache did not help: %d vs %d cycles", two.Cycles, flat.Cycles)
	}
	if two.L2Misses == 0 {
		t.Error("L2 saw no misses (cold misses expected)")
	}
	if two.L2Misses*4 >= two.DCacheMisses {
		t.Errorf("L2 misses (%d) should be far fewer than L1 misses (%d)", two.L2Misses, two.DCacheMisses)
	}
}

func TestRunContextCancellation(t *testing.T) {
	// An infinite loop: br . (displacement -1 re-executes the branch).
	im := image(t, []axp.Inst{axp.BranchInst(axp.BR, axp.Zero, -1)})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, im, Config{MaxInstructions: 1 << 40})
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// TestZeroSizeTailNotMaterialized loads a data region shipped as two
// contiguous segments, the first ending in a 1 MB ZeroSize tail (how OM
// ships a large commons gap): the tail reads as zeros, the second segment's
// bytes are where they belong, and New allocates nothing for the tail
// beyond the arena that backs it — no fill buffer, no second arena from
// reserving the segments one by one.
func TestZeroSizeTailNotMaterialized(t *testing.T) {
	const zeroSize = 1 << 20
	build := func(zs uint64) *objfile.Image {
		im := image(t, outAndHalt(axp.Zero))
		head := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		tail := []byte{9, 10, 11, 12, 13, 14, 15, 16}
		im.Segments = []objfile.Segment{
			im.Segments[0],
			{Name: ".data", Addr: objfile.DataBase, Data: head, ZeroSize: zs},
			{Name: ".data", Addr: objfile.DataBase + 8 + zs, Data: tail},
		}
		return im
	}
	im := build(zeroSize)
	m, err := New(im, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadBytes(objfile.DataBase, 8+zeroSize+8)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got[8 : 8+zeroSize] {
		if b != 0 {
			t.Fatalf("ZeroSize byte %d reads %#x, want 0", i, b)
		}
	}
	if got[0] != 1 || got[7] != 8 || got[8+zeroSize] != 9 || got[len(got)-1] != 16 {
		t.Errorf("segment bytes misplaced: head %v, tail %v", got[:8], got[8+zeroSize:])
	}

	allocated := func(im *objfile.Image) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := New(im, Config{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	withTail, without := allocated(im), allocated(build(0))
	// The arena grows by the tail, rounded to whole pages; anything
	// proportional to it on top of that is a materialized copy.
	if extra := withTail - without; extra > zeroSize+pageSize {
		t.Errorf("New allocated %d more bytes for a %d-byte ZeroSize tail, want at most %d",
			extra, zeroSize, zeroSize+pageSize)
	}
}

// TestDeepStack stores distinct values at SP-8, just below the arena that
// backs the stack's top page, at the bottom of the StackSize extent and
// just below it, reads each back and exits with a checksum of them. Only
// the top page has an arena, so the three deep stores must land in
// page-map pages, and all four must read back what was stored under both
// the functional and the timing configuration.
func TestDeepStack(t *testing.T) {
	extent := int32(objfile.StackSize >> 16) // StackSize in 64 KiB ldah units
	prog := []axp.Inst{
		axp.MemInst(axp.LDAH, axp.T0, axp.SP, -1),      // t0 = SP - 64 KiB: the arena's base
		axp.MemInst(axp.LDAH, axp.T1, axp.SP, -extent), // t1 = SP - StackSize: the extent's base
		axp.MemInst(axp.LDA, axp.T2, axp.Zero, 1),
		axp.MemInst(axp.STQ, axp.T2, axp.SP, -8),
		axp.MemInst(axp.LDA, axp.T2, axp.Zero, 2),
		axp.MemInst(axp.STQ, axp.T2, axp.T0, -8),
		axp.MemInst(axp.LDA, axp.T2, axp.Zero, 3),
		axp.MemInst(axp.STQ, axp.T2, axp.T1, 0),
		axp.MemInst(axp.LDA, axp.T2, axp.Zero, 4),
		axp.MemInst(axp.STQ, axp.T2, axp.T1, -8),
		// a0 = ((v4<<4 + v3)<<4 + v2)<<4 + v1 = 0x4321
		axp.MemInst(axp.LDQ, axp.A0, axp.T1, -8),
		axp.OpLitInst(axp.SLL, axp.A0, 4, axp.A0),
		axp.MemInst(axp.LDQ, axp.T3, axp.T1, 0),
		axp.OpInst(axp.ADDQ, axp.A0, axp.T3, axp.A0),
		axp.OpLitInst(axp.SLL, axp.A0, 4, axp.A0),
		axp.MemInst(axp.LDQ, axp.T3, axp.T0, -8),
		axp.OpInst(axp.ADDQ, axp.A0, axp.T3, axp.A0),
		axp.OpLitInst(axp.SLL, axp.A0, 4, axp.A0),
		axp.MemInst(axp.LDQ, axp.T3, axp.SP, -8),
		axp.OpInst(axp.ADDQ, axp.A0, axp.T3, axp.A0),
		axp.Pal(axp.PalHalt),
	}
	for _, cfg := range []Config{{}, DefaultConfig()} {
		m, err := New(image(t, prog), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Exit != 0x4321 {
			t.Errorf("timing=%v: exit %#x, want 0x4321", cfg.Timing, res.Exit)
		}
		if len(m.mem.pages) != 3 {
			t.Errorf("timing=%v: %d page-map pages, want 3 (one per store below the arena)",
				cfg.Timing, len(m.mem.pages))
		}
	}
}
