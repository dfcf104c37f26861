package dataflow

import (
	"strings"
	"testing"

	"repro/internal/axp"
)

func TestLivenessLoop(t *testing.T) {
	// i0: lda t0, 7(zero)      t0 := 7
	// i1: addq t0, t1, t0      loop body reads t0, t1
	// i2: bne t1 -> i1         loop back edge
	// i3: ret
	pr := synth(t,
		Inst{In: axp.MemInst(axp.LDA, axp.T0, axp.Zero, 7)},
		Inst{In: axp.OpInst(axp.ADDQ, axp.T0, axp.T1, axp.T0), HasLabel: true},
		branch(axp.BNE, 1),
		ret(),
	)
	var sc scratch
	sc.load(pr)
	liveIn, _ := pr.liveness(&sc)
	entry := liveIn[pr.BlockOf(0)]
	if entry.Int&(1<<axp.T0) != 0 {
		t.Fatal("t0 live-in at entry despite the definition before its use")
	}
	if entry.Int&(1<<axp.T1) == 0 {
		t.Fatal("t1 read in the loop is not live-in at entry")
	}
	out := pr.liveOutAt(&sc)
	if out[0].Int&(1<<axp.T0) == 0 {
		t.Fatal("t0 dead after its definition despite the loop's use")
	}
}

func TestLivenessCallReadsAll(t *testing.T) {
	// A call must be treated as reading every register: a definition before
	// it is live into the call even with no explicit later use.
	pr := synth(t,
		Inst{In: axp.MemInst(axp.LDA, axp.T5, axp.Zero, 3)},
		Inst{In: axp.BranchInst(axp.BSR, axp.RA, 0), Call: true,
			Targets: []CallTarget{{Proc: 0}}, BranchTo: -1},
		ret(),
	)
	var sc scratch
	sc.load(pr)
	out := pr.liveOutAt(&sc)
	if out[0].Int&(1<<axp.T5) == 0 {
		t.Fatal("t5 dead before a call under the call-reads-all model")
	}
}

// mayDefAt returns the integer registers some definition reaches just
// before instruction i executes.
func mayDefAt(pr *Proc, i int) uint64 {
	var sc scratch
	sc.load(pr)
	b := pr.BlockOf(i)
	m := pr.mayDefined(&sc)[b]
	for j := pr.Blocks[b].Start; j < i; j++ {
		m |= sc.def[j].Int
	}
	return m
}

// useBeforeDef analyzes pr as a one-procedure program and returns its
// DF006 findings.
func useBeforeDef(t *testing.T, pr *Proc) []string {
	t.Helper()
	var out []string
	for _, f := range mustAnalyze(t, &Program{Procs: []*Proc{pr}, Clusters: 1}).Findings {
		if f.ID == "DF006" {
			out = append(out, f.String())
		}
	}
	return out
}

func TestMayDefinedCallSiteAliasing(t *testing.T) {
	// A call defines every register at once; a later definition of one
	// register leaves the call's definitions of the others in place.
	//
	// i0: bsr f              defines everything, including t5
	// i1: lda t8, 500(zero)  redefines t8 only
	// i2: stq t5, 0(sp)      reads t5: the call's definition reaches
	pr := synth(t,
		Inst{In: axp.BranchInst(axp.BSR, axp.RA, 0), Call: true,
			Targets: []CallTarget{{Proc: 0}}, BranchTo: -1},
		Inst{In: axp.MemInst(axp.LDA, axp.T8, axp.Zero, 500)},
		Inst{In: axp.MemInst(axp.STQ, axp.T5, axp.SP, 0)},
		ret(),
	)
	at2 := mayDefAt(pr, 2)
	if at2&(1<<axp.T5) == 0 {
		t.Fatal("call-site definition of t5 lost to an unrelated lda")
	}
	if at2&(1<<axp.T8) == 0 {
		t.Fatal("lda t8 definition does not reach the following instruction")
	}
	if f := useBeforeDef(t, pr); len(f) != 0 {
		t.Fatalf("DF006 on a read the call defines: %v", f)
	}
}

func TestMayDefinedBackToBackCalls(t *testing.T) {
	// Two calls in a row: before the first only t0 is defined, after the
	// second every register is, whatever the first call left behind.
	pr := synth(t,
		Inst{In: axp.MemInst(axp.LDA, axp.T0, axp.Zero, 1)},
		Inst{In: axp.BranchInst(axp.BSR, axp.RA, 0), Call: true,
			Targets: []CallTarget{{Proc: 0}}, BranchTo: -1},
		Inst{In: axp.BranchInst(axp.BSR, axp.RA, 0), Call: true,
			Targets: []CallTarget{{Proc: 0}}, BranchTo: -1},
		Inst{In: axp.OpInst(axp.ADDQ, axp.T0, axp.T0, axp.T0)},
		ret(),
	)
	if got := mayDefAt(pr, 1); got != 1<<axp.T0 {
		t.Fatalf("before the first call, defined %#x, want only t0", got)
	}
	if got, want := mayDefAt(pr, 3), allRegs&^(1<<axp.Zero); got != want {
		t.Fatalf("after back-to-back calls, defined %#x, want every register %#x", got, want)
	}
	if f := useBeforeDef(t, pr); len(f) != 0 {
		t.Fatalf("DF006 after two calls: %v", f)
	}
}

func TestMayDefinedMerge(t *testing.T) {
	// Two definitions of t0 on diverging paths both reach the join.
	// i0: beq -> i3
	// i1: lda t0, 1(zero)
	// i2: br -> i4
	// i3: lda t0, 2(zero)
	// i4: addq t0,t0,t0 (join)
	pr := synth(t,
		branch(axp.BEQ, 3),
		Inst{In: axp.MemInst(axp.LDA, axp.T0, axp.Zero, 1)},
		branch(axp.BR, 4),
		Inst{In: axp.MemInst(axp.LDA, axp.T0, axp.Zero, 2), HasLabel: true},
		Inst{In: axp.OpInst(axp.ADDQ, axp.T0, axp.T0, axp.T0), HasLabel: true},
		ret(),
	)
	if got := mayDefAt(pr, 1); got != 0 {
		t.Fatalf("arm entry defined %#x, want nothing", got)
	}
	if got := mayDefAt(pr, 4); got != 1<<axp.T0 {
		t.Fatalf("join defined %#x, want only t0", got)
	}
	if f := useBeforeDef(t, pr); len(f) != 0 {
		t.Fatalf("DF006 at a join both arms define: %v", f)
	}
}

func TestUseBeforeDefOnePath(t *testing.T) {
	// A read reached by no definition fires DF006; one definition on one
	// arm of the diamond is enough to silence it (DF006 is a may check).
	// i0: beq -> i3
	// i1: nop, or lda t0, 1(zero)
	// i2: br -> i4
	// i3: nop
	// i4: addq t0,t0,t1 (join)
	diamond := func(arm Inst) *Proc {
		return synth(t,
			branch(axp.BEQ, 3),
			arm,
			branch(axp.BR, 4),
			Inst{In: axp.Nop(), HasLabel: true},
			Inst{In: axp.OpInst(axp.ADDQ, axp.T0, axp.T0, axp.T1), HasLabel: true},
			ret(),
		)
	}
	f := useBeforeDef(t, diamond(Inst{In: axp.Nop()}))
	if len(f) != 1 || !strings.Contains(f[0], "reads t0") {
		t.Fatalf("undefined t0 read: DF006 findings %v, want one on t0", f)
	}
	if f := useBeforeDef(t, diamond(Inst{In: axp.MemInst(axp.LDA, axp.T0, axp.Zero, 1)})); len(f) != 0 {
		t.Fatalf("t0 defined on one arm: DF006 findings %v, want none", f)
	}
}
