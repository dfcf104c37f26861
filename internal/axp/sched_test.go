package axp

import (
	"math/rand"
	"slices"
	"testing"
)

// randomBlock builds a straight-line block over few registers, so the
// dependence graph is dense: integer and float arithmetic, multiplies and
// divides (long latencies), loads and stores.
func randomBlock(rng *rand.Rand, n int) []Inst {
	reg := func() Reg { return Reg(1 + rng.Intn(6)) }
	freg := func() FReg { return FReg(1 + rng.Intn(4)) }
	out := make([]Inst, n)
	for i := range out {
		switch rng.Intn(9) {
		case 0:
			out[i] = OpInst(ADDQ, reg(), reg(), reg())
		case 1:
			out[i] = OpLitInst(SUBQ, reg(), uint8(rng.Intn(256)), reg())
		case 2:
			out[i] = OpInst(MULQ, reg(), reg(), reg())
		case 3:
			out[i] = MemInst(LDQ, reg(), SP, int32(8*rng.Intn(4)))
		case 4:
			out[i] = MemInst(STQ, reg(), SP, int32(8*rng.Intn(4)))
		case 5:
			out[i] = MemFInst(LDT, freg(), reg(), 0)
		case 6:
			out[i] = MemFInst(STT, freg(), SP, 16)
		case 7:
			out[i] = OpFInst(MULT, freg(), freg(), freg())
		default:
			out[i] = OpFInst(DIVT, freg(), freg(), freg())
		}
	}
	return out
}

// TestSchedulerReuseMatchesFresh is the reuse oracle: one Scheduler run over
// blocks of interleaved lengths (long then short, so a node's stale
// successors past the current block would show) must return exactly what a
// fresh ScheduleOrder returns for each block.
func TestSchedulerReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var s Scheduler
	lengths := []int{64, 3, 0, 40, 1, 64, 2, 17, 63, 5}
	for round := 0; round < 200; round++ {
		n := lengths[round%len(lengths)]
		if round >= len(lengths) {
			n = rng.Intn(65)
		}
		block := randomBlock(rng, n)
		want := ScheduleOrder(block)
		got := s.Order(block)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d (%d insts): reused scheduler %v, fresh %v", round, n, got, want)
		}
		seen := make([]bool, n)
		for _, idx := range got {
			if idx < 0 || idx >= n || seen[idx] {
				t.Fatalf("round %d: order %v is not a permutation of %d", round, got, n)
			}
			seen[idx] = true
		}
	}
}

// TestSchedulerReuseAllocates pins the point of the Scheduler: once it has
// seen the largest block, scheduling more blocks allocates nothing.
func TestSchedulerReuseAllocates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	blocks := [][]Inst{randomBlock(rng, 48), randomBlock(rng, 9), randomBlock(rng, 30)}
	var s Scheduler
	for _, b := range blocks {
		s.Order(b)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, b := range blocks {
			s.Order(b)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Scheduler allocated %.1f times per run, want 0", allocs)
	}
}
