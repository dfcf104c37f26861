package dataflow

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/axp"
)

// VKind enumerates the abstract-value lattice for register contents.
type VKind uint8

const (
	// Bot: no information yet / unreachable.
	Bot VKind = iota
	// KConst: a known 64-bit constant (concrete addresses at image level).
	KConst
	// KAddr: the entry address of procedure N plus offset C (program
	// level, where text addresses are symbolic until emission).
	KAddr
	// KGP: the GP of cluster N plus byte offset C; a valid global pointer
	// is KGP with offset 0.
	KGP
	// KGPHi: the high half of a GP-establishing pair for cluster N has
	// executed; only the pair's low half can complete it.
	KGPHi
	// KRet: the return address of the call at instruction C of procedure
	// N (program level; at image level return addresses are constants).
	KRet
	// KInGP: whatever GP procedure N was entered with. Procedures that
	// never touch GP exit with this, making them GP-transparent at every
	// call site — the fact OM's reset deletion relies on.
	KInGP
	// Top: any value.
	Top
)

// Value is one point of the lattice.
type Value struct {
	Kind VKind
	N    int
	C    uint64
}

// String renders the value for findings and debugging.
func (v Value) String() string {
	switch v.Kind {
	case Bot:
		return "⊥"
	case KConst:
		return fmt.Sprintf("%#x", v.C)
	case KAddr:
		return fmt.Sprintf("proc%d+%d", v.N, int64(v.C))
	case KGP:
		return fmt.Sprintf("gp%d%+d", v.N, int64(v.C))
	case KGPHi:
		return fmt.Sprintf("gp%d:hi", v.N)
	case KRet:
		return fmt.Sprintf("ret(proc%d@%d)", v.N, v.C)
	case KInGP:
		return fmt.Sprintf("gp-in(proc%d)", v.N)
	}
	return "⊤"
}

var top = Value{Kind: Top}

// meet is the lattice meet: equal values survive, ⊥ is the identity,
// anything else degrades to ⊤.
func meet(a, b Value) Value {
	if a == b {
		return a
	}
	if a.Kind == Bot {
		return b
	}
	if b.Kind == Bot {
		return a
	}
	return top
}

// State is the abstract integer register file.
type State [axp.NumRegs]Value

func (s *State) get(r axp.Reg) Value {
	if r == axp.Zero {
		return Value{Kind: KConst}
	}
	return s[r]
}

func (s *State) set(r axp.Reg, v Value) {
	if r != axp.Zero {
		s[r] = v
	}
}

// meetInto merges o into s, reporting whether s changed.
func (s *State) meetInto(o *State) bool {
	changed := false
	for r := range s {
		if m := meet(s[r], o[r]); m != s[r] {
			s[r] = m
			changed = true
		}
	}
	return changed
}

// add applies pointer arithmetic to an abstract value.
func addVal(v Value, d int64) Value {
	switch v.Kind {
	case KConst, KAddr, KGP:
		v.C += uint64(d)
		return v
	case Bot:
		return v
	}
	return top
}

// interp is the interprocedural abstract interpretation: a fixpoint over
// procedure entry states (seeded with each procedure's calling contract)
// and exit-GP summaries, refined by the contributions of every resolved
// call site and the convention-driven fan-out of computed calls. Each
// round re-analyzes only the procedures whose inputs changed since their
// last analysis.
type interp struct {
	p *Program
	// entry[p][0] is the accumulated abstract state at the procedure
	// entry, entry[p][1] at the entry+8 local entry (pair procedures).
	entry [][2]State
	// exitGP[p] is the meet of the GP value at every return site.
	exitGP []Value
	// blockIn[p][b] is the final in-state of every block, kept for the
	// check pass.
	blockIn [][]State
	// reached[p][b]: block b has been entered by some round's worklist;
	// unreached blocks keep all-⊥ states and transfer nothing.
	reached [][]bool
	// needsGP[p]: the procedure consumes the GP it is entered with — the
	// calling contract includes a valid GP (deleted-prologue procedures).
	needsGP []bool
	// allExit caches the meet of every procedure's non-preserving exit GP
	// — the after-call GP of a fully unresolved computed call — and
	// anyPreserve records whether some procedure exits GP-transparent
	// (its contribution is the calling site's own GP).
	allExit     Value
	anyPreserve bool
	// dirty[p]: an input of procedure p changed since its last analysis —
	// its entry state, the exit GP of a direct callee, or (for a
	// procedure in fanners) any exit GP or the allExit/anyPreserve pair.
	dirty []bool
	// callers[t] lists, once each, the procedures with a direct call to t;
	// fanners lists those with a computed call, which can resolve to any
	// procedure.
	callers [][]int
	fanners []int
	// rounds counts the rounds solve ran; maxRounds is the bound it may
	// not exceed (see solve).
	rounds, maxRounds int
	// work and queue are analyzeProc's worklist, reused by every call.
	work  []bool
	queue []int
}

func newInterp(p *Program) *interp {
	n := len(p.Procs)
	ip := &interp{
		p:       p,
		entry:   make([][2]State, n),
		exitGP:  make([]Value, n),
		blockIn: make([][]State, n),
		reached: make([][]bool, n),
		needsGP: make([]bool, n),
		dirty:   make([]bool, n),
		callers: make([][]int, n),
		// The lattice's bound on the rounds (see solve).
		maxRounds: 2*(2*axp.NumRegs+1)*n + 1,
	}
	// One allocation backs every procedure's block states and flags.
	nb := 0
	for _, pr := range p.Procs {
		nb += len(pr.Blocks)
	}
	states, reached := make([]State, nb), make([]bool, nb)
	for i, pr := range p.Procs {
		ip.dirty[i] = true
		fans := false
		for k := range pr.Code {
			inst := &pr.Code[k]
			if !inst.Call {
				continue
			}
			fans = fans || len(inst.Targets) == 0 && inst.Fan
			for _, t := range inst.Targets {
				if cs := ip.callers[t.Proc]; len(cs) == 0 || cs[len(cs)-1] != i {
					ip.callers[t.Proc] = append(cs, i)
				}
			}
		}
		if fans {
			ip.fanners = append(ip.fanners, i)
		}
		k := len(pr.Blocks)
		ip.blockIn[i], states = states[:k:k], states[k:]
		ip.reached[i], reached = reached[:k:k], reached[k:]
		ip.needsGP[i] = pr.consumesEntryGP()
		// Seed the calling contract: PV holds the procedure's own entry
		// (the jsr convention the simulator also boots with) and GP is the
		// cluster's — every procedure is entered with a valid GP or
		// re-establishes one from PV before using it, so a procedure that
		// never writes GP exits with its cluster's value. That makes a
		// same-cluster call GP-transparent while a cross-cluster call
		// correctly demands the caller reset GP afterwards. A worse actual
		// caller meets the seed down to ⊤ and the checks see it; the seed
		// itself keeps never-called library procedures from reporting
		// vacuous violations.
		st := &ip.entry[i][0]
		for r := range st {
			st[r] = top
		}
		st.set(axp.PV, ip.selfAddr(i))
		if ip.needsGP[i] && pr.Cluster >= 0 {
			st.set(axp.GP, ip.gpOf(pr.Cluster))
		} else {
			// The procedure never consumes its caller's GP: track the
			// incoming value symbolically so preservation is visible to
			// every caller individually.
			st.set(axp.GP, Value{Kind: KInGP, N: i})
		}
		e8 := &ip.entry[i][1]
		if pr.PairAtEntry && len(pr.Code) > 2 {
			for r := range e8 {
				e8[r] = top
			}
			if pr.Cluster >= 0 {
				// entry+8 skips the pair: the caller shares the GP.
				e8.set(axp.GP, ip.gpOf(pr.Cluster))
			}
		}
	}
	return ip
}

// consumesEntryGP reports whether the GP a procedure is entered with can
// be read before the procedure writes GP: by an instruction, by a call (the
// callee may rely on it) or by a halt. Returns do not count: a procedure
// that only hands GP back to its caller is GP-transparent, whichever
// cluster calls it.
func (pr *Proc) consumesEntryGP() bool {
	if len(pr.Blocks) == 0 {
		return false
	}
	seen := make([]bool, len(pr.Blocks))
	seen[0] = true
	work := []int{0}
	for len(work) > 0 {
		blk := &pr.Blocks[work[len(work)-1]]
		work = work[:len(work)-1]
		written := false
		for i := blk.Start; i < blk.End && !written; i++ {
			inst := &pr.Code[i]
			if inst.Call || inst.Halt {
				return true
			}
			if ints, _ := inst.In.ReadMasks(); !inst.Ret && ints&(1<<axp.GP) != 0 {
				return true
			}
			written = inst.In.Writes() == axp.GP
		}
		if written {
			continue
		}
		for _, s := range blk.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return false
}

// selfAddr is the abstract entry address of procedure i: symbolic at
// program level, concrete at image level.
func (ip *interp) selfAddr(i int) Value {
	if ip.p.Source == "image" {
		return Value{Kind: KConst, C: ip.p.Procs[i].Addr}
	}
	return Value{Kind: KAddr, N: i}
}

// gpOf is the abstract "valid GP of cluster k".
func (ip *interp) gpOf(k int) Value {
	if ip.p.GPValue != nil {
		return Value{Kind: KConst, C: ip.p.GPValue[k]}
	}
	return Value{Kind: KGP, N: k}
}

// ErrNoFixpoint reports an interprocedural analysis still changing after
// the number of rounds the lattice's height allows: a non-monotone
// transfer, never a property of the analyzed program.
var ErrNoFixpoint = errors.New("dataflow: interprocedural fixpoint did not converge")

// solve iterates the program to a fixpoint in rounds, each analyzing the
// dirty procedures in index order. Every transfer is monotone, so this
// chaotic iteration reaches the same fixpoint as re-analyzing every
// procedure each round: a clean procedure's inputs are those its last
// analysis saw, so analyzing it again would change nothing.
//
// The round count is bounded. A procedure is dirty at a round's start
// only if, in the round before, an entry register or an exit GP changed
// (a change of allExit or anyPreserve is one of the exit GPs changing a
// round earlier). Values only move down the lattice, ⊥ → value → ⊤, so
// each of the 2·NumRegs entry registers and the exit GP of a procedure
// moves at most twice, and every round but the last moves one of them:
// rounds ≤ 2·(2·NumRegs+1)·len(Procs) + 1. Reaching that bound is
// ErrNoFixpoint, not a partial result passed off as final.
func (ip *interp) solve() error {
	for {
		if allExit, anyPreserve := ip.exitSummary(); allExit != ip.allExit || anyPreserve != ip.anyPreserve {
			ip.allExit, ip.anyPreserve = allExit, anyPreserve
			ip.markDirty(ip.fanners)
		}
		if !slices.Contains(ip.dirty, true) {
			return nil
		}
		if ip.rounds == ip.maxRounds {
			return fmt.Errorf("%w in %d rounds", ErrNoFixpoint, ip.rounds)
		}
		ip.rounds++
		for i := range ip.p.Procs {
			if ip.dirty[i] {
				ip.dirty[i] = false
				ip.analyzeProc(i)
			}
		}
	}
}

// exitSummary returns the meet of every non-preserving exit GP and
// whether some procedure exits GP-transparent: the after-call GP of a
// fully unresolved computed call.
func (ip *interp) exitSummary() (allExit Value, anyPreserve bool) {
	for _, ex := range ip.exitGP {
		if ex.Kind == KInGP {
			anyPreserve = true
			continue
		}
		allExit = meet(allExit, ex)
	}
	return allExit, anyPreserve
}

// markDirty schedules the procedures for the next analysis.
func (ip *interp) markDirty(procs []int) {
	for _, p := range procs {
		ip.dirty[p] = true
	}
}

// Bottom returns the ⊥ value.
func Bottom() Value { return Value{Kind: Bot} }

// analyzeProc runs the intra-procedure worklist to a local fixpoint,
// propagating call contributions and the exit summary and marking the
// procedures they feed dirty.
func (ip *interp) analyzeProc(pi int) {
	pr := ip.p.Procs[pi]
	if len(pr.Blocks) == 0 {
		return
	}
	in := ip.blockIn[pi]

	// The worklist is seeded from the entry blocks (and every block a
	// previous round reached — call summaries may have refined since):
	// CFG-unreachable blocks are never processed, so their all-⊥ states
	// cannot pollute reachable successors.
	work := resize(ip.work, len(pr.Blocks))
	queue := ip.queue[:0]
	push := func(b int) {
		if !work[b] {
			work[b] = true
			queue = append(queue, b)
		}
	}
	in[0].meetInto(&ip.entry[pi][0])
	push(0)
	if pr.PairAtEntry && len(pr.Code) > 2 {
		b8 := pr.blockOf[2]
		in[b8].meetInto(&ip.entry[pi][1])
		push(b8)
	}
	for b, r := range ip.reached[pi] {
		if r {
			push(b)
		}
	}
	for h := 0; h < len(queue); h++ {
		b := queue[h]
		work[b] = false
		ip.reached[pi][b] = true
		st := in[b]
		for i := pr.Blocks[b].Start; i < pr.Blocks[b].End; i++ {
			ip.step(pi, i, &st)
		}
		for _, s := range pr.Blocks[b].Succs {
			if in[s].meetInto(&st) || !ip.reached[pi][s] {
				push(s)
			}
		}
	}
	ip.work, ip.queue = work, queue
}

// step applies instruction i of procedure pi to st, recording call
// contributions and exit summaries.
func (ip *interp) step(pi, i int, st *State) {
	pr := ip.p.Procs[pi]
	inst := &pr.Code[i]
	in := inst.In

	// Unreached code (an all-⊥ state) transfers nothing.
	if inst.Call {
		ip.stepCall(pi, i, st)
		return
	}
	if inst.Ret {
		if ex := meet(ip.exitGP[pi], st.get(axp.GP)); ex != ip.exitGP[pi] {
			ip.exitGP[pi] = ex
			ip.markDirty(ip.callers[pi])
			ip.markDirty(ip.fanners)
		}
		return
	}
	if inst.Halt {
		return
	}

	// Program-level GP pairs transfer as a unit: the displacements are
	// symbolic until emission, so the half's arithmetic is meaningless —
	// what matters is that the pair's base register holds the anchor the
	// pair was linked against.
	if inst.SetsGPHi >= 0 {
		base := st.get(in.Rb)
		ok := false
		if inst.GPAnchor >= 0 {
			// After-call pair: the base must be the anchored call's
			// return address.
			ok = base.Kind == KRet && base.N == pi && base.C == uint64(inst.GPAnchor)
		} else {
			// Prologue pair: the base (PV) must be this procedure's
			// entry.
			ok = base.Kind == KAddr && base.N == pi && base.C == 0
		}
		if base.Kind == Bot {
			st.set(axp.GP, Bottom())
		} else if ok {
			st.set(axp.GP, Value{Kind: KGPHi, N: inst.SetsGPHi})
		} else {
			st.set(axp.GP, top)
		}
		return
	}
	if inst.SetsGP >= 0 {
		prev := st.get(in.Rb)
		if prev.Kind == KGPHi && prev.N == inst.SetsGP {
			st.set(axp.GP, Value{Kind: KGP, N: inst.SetsGP})
		} else if prev.Kind == Bot {
			st.set(axp.GP, Bottom())
		} else {
			st.set(axp.GP, top)
		}
		return
	}

	if inst.LoadVal != nil {
		st.set(in.Writes(), *inst.LoadVal)
		return
	}

	switch {
	case in.Op == axp.LDA:
		st.set(in.Ra, addVal(st.get(in.Rb), int64(in.Disp)))
	case in.Op == axp.LDAH:
		st.set(in.Ra, addVal(st.get(in.Rb), int64(in.Disp)*65536))
	case in.Op.IsLoad():
		if in.Op.Format() == axp.FormatMem {
			base := st.get(in.Rb)
			v := top
			if base.Kind == Bot {
				// ⊥ stays ⊥: a load off a not-yet-computed base must not
				// inject ⊤ into the descending fixpoint (call-site
				// contributions never rise back).
				v = Bottom()
			} else if base.Kind == KConst && ip.p.SlotValue != nil {
				if sv, ok := ip.p.SlotValue(base.C + uint64(int64(in.Disp))); ok {
					v = sv
				}
			}
			st.set(in.Ra, v)
		}
	case in.Op == axp.BIS && !in.HasLit && in.Ra == axp.Zero:
		// mov rb, rc
		st.set(in.Rc, st.get(in.Rb))
	case in.Op == axp.BIS && in.HasLit && in.Ra == axp.Zero:
		st.set(in.Rc, Value{Kind: KConst, C: uint64(in.Lit)})
	case (in.Op == axp.ADDQ || in.Op == axp.SUBQ) && in.HasLit:
		d := int64(in.Lit)
		if in.Op == axp.SUBQ {
			d = -d
		}
		st.set(in.Rc, addVal(st.get(in.Ra), d))
	case in.Op == axp.CALLPAL:
		if in.PalFn == axp.PalCycles {
			st.set(axp.V0, top)
		}
	case in.Op == axp.JMP:
		st.set(in.Ra, top)
	case in.Op.IsBranch():
		if r := in.Writes(); r != axp.Zero {
			st.set(r, top)
		}
	default:
		if r := in.Writes(); r != axp.Zero {
			st.set(r, top)
		}
	}
}

// stepCall resolves the call's targets, contributes the callee entry
// states (marking a callee whose entry state changed dirty), and applies
// the call's effect on the caller state.
func (ip *interp) stepCall(pi, i int, st *State) {
	pr := ip.p.Procs[pi]
	inst := &pr.Code[i]

	targets := inst.Targets
	fanned := false
	if len(targets) == 0 && inst.Fan {
		// Computed call: resolve through the abstract PV, falling back to
		// every procedure (the convention still guarantees the callee is
		// entered with PV = its own entry).
		pv := st.get(axp.PV)
		switch {
		case pv.Kind == KAddr && pv.C == 0:
			targets = []CallTarget{{Proc: pv.N}}
		case pv.Kind == KConst:
			if t, off := ip.p.ProcByAddr(pv.C); t >= 0 && off == 0 {
				targets = []CallTarget{{Proc: t}}
			} else {
				fanned = true
			}
		case pv.Kind == Bot:
			// Unreached call site: contribute nothing.
			targets = nil
		default:
			fanned = true
		}
	}

	gp := st.get(axp.GP)
	pv := st.get(axp.PV)
	contribute := func(t CallTarget, pvVal Value) {
		slot := 0
		if t.Off == 8 {
			slot = 1
		}
		var contrib State
		for r := range contrib {
			contrib[r] = top
		}
		if ip.needsGP[t.Proc] {
			// Only GP-consuming callees carry a GP contract to violate;
			// for the rest the symbolic entry seed stands untouched.
			contrib.set(axp.GP, gp)
		} else {
			contrib.set(axp.GP, Bottom())
		}
		contrib.set(axp.PV, pvVal)
		if ip.entry[t.Proc][slot].meetInto(&contrib) {
			ip.dirty[t.Proc] = true
		}
	}

	afterGP := Bottom()
	if fanned {
		for t := range ip.p.Procs {
			contribute(CallTarget{Proc: t}, ip.selfAddr(t))
		}
		afterGP = ip.allExit
		if ip.anyPreserve {
			afterGP = meet(afterGP, gp)
		}
	} else {
		for _, t := range targets {
			pvc := pv
			if t.Off == 8 {
				// The local entry skips the pair; PV carries no contract.
				pvc = top
			}
			contribute(t, pvc)
			ex := ip.exitGP[t.Proc]
			if ex.Kind == KInGP {
				// The callee hands back whatever this site passed in.
				ex = gp
			}
			afterGP = meet(afterGP, ex)
		}
	}

	// The call's effect in the caller: callee-saved registers survive,
	// the return address is the call's own, GP is whatever the callees
	// exit with, everything else is clobbered.
	var post State
	for r := range post {
		post[r] = top
	}
	for _, r := range []axp.Reg{axp.S0, axp.S1, axp.S2, axp.S3, axp.S4, axp.S5, axp.FP, axp.SP} {
		post[r] = st.get(r)
	}
	post.set(axp.GP, afterGP)
	if ip.p.Source == "image" {
		post.set(axp.RA, Value{Kind: KConst, C: inst.Addr + 4})
	} else {
		post.set(axp.RA, Value{Kind: KRet, N: pi, C: uint64(i)})
	}
	*st = post
}
