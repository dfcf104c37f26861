package dataflow

import (
	"math/rand"
	"testing"

	"repro/internal/axp"
)

// synth builds a procedure from instructions with precomputed edge facts,
// the way a front-end would, and runs the CFG builder.
func synth(t *testing.T, insts ...Inst) *Proc {
	t.Helper()
	pr := &Proc{Name: "synth", Addr: 0x1000, Cluster: 0, Code: insts}
	for i := range pr.Code {
		pr.Code[i].Addr = pr.Addr + uint64(4*i)
		if pr.Code[i].SetsGP == 0 {
			pr.Code[i].SetsGP = -1
		}
		if pr.Code[i].SetsGPHi == 0 {
			pr.Code[i].SetsGPHi = -1
		}
	}
	pr.BuildCFG()
	return pr
}

// branch constructs a branch instruction with a resolved in-procedure
// target index.
func branch(op axp.Op, to int) Inst {
	return Inst{In: axp.BranchInst(op, axp.Zero, 0), BranchTo: to}
}

func ret() Inst {
	return Inst{In: axp.JumpInst(axp.RET, axp.Zero, axp.RA), Ret: true}
}

func TestCFGEmptyProc(t *testing.T) {
	pr := &Proc{Name: "empty"}
	pr.BuildCFG()
	if len(pr.Blocks) != 0 {
		t.Fatalf("empty procedure produced %d blocks", len(pr.Blocks))
	}
	if got := pr.Entries(); got != nil {
		t.Fatalf("empty procedure has entries %v", got)
	}
	if r := pr.Reachable(); len(r) != 0 {
		t.Fatalf("empty procedure has reachability %v", r)
	}
	// The whole pipeline must tolerate it too.
	p := &Program{Source: "prog", Procs: []*Proc{pr}, Clusters: 1}
	rep := mustAnalyze(t, p)
	if len(rep.Findings) != 0 {
		t.Fatalf("empty procedure produced findings: %v", rep.Findings)
	}
}

func TestCFGSelfLoop(t *testing.T) {
	// B0: nop; B1: beq self; B2: ret.
	pr := synth(t,
		Inst{In: axp.Nop()},
		branch(axp.BEQ, 1),
		ret(),
	)
	if len(pr.Blocks) != 3 {
		t.Fatalf("got %d blocks, want 3: %+v", len(pr.Blocks), pr.Blocks)
	}
	b1 := pr.Blocks[1]
	want := map[int]bool{1: true, 2: true}
	if len(b1.Succs) != 2 || !want[b1.Succs[0]] || !want[b1.Succs[1]] {
		t.Fatalf("self-loop block has succs %v, want {1,2}", b1.Succs)
	}
}

func TestCFGFallthroughIntoLabel(t *testing.T) {
	// Straight-line code where instruction 2 is a branch target: the
	// fallthrough from the first block must land on the labeled leader.
	pr := synth(t,
		Inst{In: axp.Nop()},
		Inst{In: axp.Nop()},
		Inst{In: axp.Nop(), HasLabel: true}, // target of the later branch
		branch(axp.BNE, 2),
		ret(),
	)
	if pr.BlockOf(2) == pr.BlockOf(1) {
		t.Fatalf("labeled instruction 2 shares block %d with instruction 1", pr.BlockOf(1))
	}
	b0 := pr.Blocks[pr.BlockOf(0)]
	if len(b0.Succs) != 1 || b0.Succs[0] != pr.BlockOf(2) {
		t.Fatalf("entry block succs %v, want fallthrough into labeled block %d",
			b0.Succs, pr.BlockOf(2))
	}
}

func TestCFGEndsInUnconditionalBranch(t *testing.T) {
	// A procedure whose last instruction is `br` back to the top: no
	// fallthrough off the end, and everything stays reachable.
	pr := synth(t,
		Inst{In: axp.Nop()},
		Inst{In: axp.Nop()},
		branch(axp.BR, 0),
	)
	last := pr.Blocks[len(pr.Blocks)-1]
	if len(last.Succs) != 1 || last.Succs[0] != 0 {
		t.Fatalf("trailing br block has succs %v, want [0]", last.Succs)
	}
	for b, ok := range pr.Reachable() {
		if !ok {
			t.Fatalf("block %d unreachable in a single loop", b)
		}
	}

	// A trailing br that leaves the procedure (target unresolved) must end
	// the CFG with no successors rather than fall off the end.
	pr = synth(t,
		Inst{In: axp.Nop()},
		branch(axp.BR, -1),
	)
	last = pr.Blocks[len(pr.Blocks)-1]
	if len(last.Succs) != 0 {
		t.Fatalf("procedure-exiting br has succs %v, want none", last.Succs)
	}
}

func TestCFGIndirectCallFanout(t *testing.T) {
	// A GAT-indirect jsr: a call edge-wise (fallthrough to the return
	// point), with the callee fan resolved by the interpreter, not the CFG.
	pr := synth(t,
		Inst{In: axp.MemInst(axp.LDQ, axp.PV, axp.GP, -32656)},
		Inst{In: axp.JumpInst(axp.JSR, axp.RA, axp.PV), Call: true, Fan: true, BranchTo: -1},
		Inst{In: axp.Nop()},
		ret(),
	)
	call := pr.Blocks[pr.BlockOf(1)]
	if len(call.Succs) != 1 || call.Succs[0] != pr.BlockOf(2) {
		t.Fatalf("jsr block succs %v, want fallthrough [%d]", call.Succs, pr.BlockOf(2))
	}
}

func TestCFGComputedBranchFanout(t *testing.T) {
	// A computed jmp at program level fans out to the labeled blocks only;
	// without label information (image level) it fans to every block.
	mk := func(labeled bool) *Proc {
		target := Inst{In: axp.Nop()}
		target.HasLabel = labeled
		return synth(t,
			Inst{In: axp.JumpInst(axp.JMP, axp.Zero, axp.T0), BranchTo: -1},
			target,
			ret(),
		)
	}
	pr := mk(true)
	jmp := pr.Blocks[pr.BlockOf(0)]
	if len(jmp.Succs) != 1 || jmp.Succs[0] != pr.BlockOf(1) {
		t.Fatalf("labeled fan: jmp succs %v, want [%d]", jmp.Succs, pr.BlockOf(1))
	}
	pr = mk(false)
	jmp = pr.Blocks[pr.BlockOf(0)]
	if len(jmp.Succs) != len(pr.Blocks) {
		t.Fatalf("unlabeled fan: jmp succs %v, want all %d blocks", jmp.Succs, len(pr.Blocks))
	}
}

func TestCFGEntryPair(t *testing.T) {
	pr := &Proc{Name: "paired", Addr: 0x2000, Cluster: 0, PairAtEntry: true, Code: []Inst{
		{In: axp.MemInst(axp.LDAH, axp.GP, axp.PV, 8192), SetsGPHi: 0, SetsGP: -1, GPAnchor: -1},
		{In: axp.MemInst(axp.LDA, axp.GP, axp.GP, 0), SetsGP: 0, SetsGPHi: -1},
		{In: axp.Nop(), SetsGP: -1, SetsGPHi: -1},
		ret(),
	}}
	pr.BuildCFG()
	es := pr.Entries()
	if len(es) != 2 || es[0] != 0 || es[1] != pr.BlockOf(2) {
		t.Fatalf("paired entries %v, want [0 %d]", es, pr.BlockOf(2))
	}
}

// TestCFGProperties is the structural property test: over randomized
// instruction streams, every instruction lands in exactly one block, every
// edge targets a block leader, and block ranges tile the code.
func TestCFGProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		code := make([]Inst, n)
		for i := range code {
			switch rng.Intn(8) {
			case 0:
				code[i] = branch(axp.BEQ, rng.Intn(n))
			case 1:
				code[i] = branch(axp.BR, rng.Intn(n))
			case 2:
				code[i] = Inst{In: axp.JumpInst(axp.JSR, axp.RA, axp.PV),
					Call: true, Fan: true, BranchTo: -1}
			case 3:
				code[i] = ret()
			case 4:
				code[i] = Inst{In: axp.JumpInst(axp.JMP, axp.Zero, axp.T0), BranchTo: -1}
			default:
				code[i] = Inst{In: axp.Nop()}
			}
		}
		// Mark the branch targets as labeled, as a front-end would.
		for i := range code {
			if t := code[i].BranchTo; t >= 0 {
				code[t].HasLabel = true
			}
		}
		pr := synth(t, code...)

		// Blocks tile [0, n): contiguous, non-overlapping, covering.
		at := 0
		for b, blk := range pr.Blocks {
			if blk.Start != at || blk.End <= blk.Start {
				t.Fatalf("trial %d: block %d spans [%d,%d), want start %d",
					trial, b, blk.Start, blk.End, at)
			}
			at = blk.End
			for j := blk.Start; j < blk.End; j++ {
				if pr.BlockOf(j) != b {
					t.Fatalf("trial %d: instruction %d maps to block %d, inside block %d",
						trial, j, pr.BlockOf(j), b)
				}
			}
		}
		if at != n {
			t.Fatalf("trial %d: blocks cover [0,%d), code has %d instructions", trial, at, n)
		}

		// Every edge targets a leader.
		leaders := make(map[int]bool, len(pr.Blocks))
		for _, blk := range pr.Blocks {
			leaders[blk.Start] = true
		}
		for b, blk := range pr.Blocks {
			for _, s := range blk.Succs {
				if s < 0 || s >= len(pr.Blocks) {
					t.Fatalf("trial %d: block %d has out-of-range successor %d", trial, b, s)
				}
				if !leaders[pr.Blocks[s].Start] {
					t.Fatalf("trial %d: successor %d does not start at a leader", trial, s)
				}
			}
		}
	}
}
