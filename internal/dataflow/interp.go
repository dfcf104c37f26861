package dataflow

import (
	"fmt"

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
// call site and the convention-driven fan-out of computed calls.
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
	}
	for i, pr := range p.Procs {
		ip.blockIn[i] = make([]State, len(pr.Blocks))
		ip.reached[i] = make([]bool, len(pr.Blocks))
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

// solve iterates the whole program to a fixpoint. Every transfer is
// monotone over a finite-height lattice, so the round count is bounded by
// the call-graph depth times the lattice height; the cap is a safety net.
func (ip *interp) solve() {
	for round := 0; round < 1000; round++ {
		ip.allExit = Bottom()
		ip.anyPreserve = false
		for i := range ip.p.Procs {
			if ip.exitGP[i].Kind == KInGP {
				ip.anyPreserve = true
				continue
			}
			ip.allExit = meet(ip.allExit, ip.exitGP[i])
		}
		if !ip.analyzeAll() {
			return
		}
	}
}

// Bottom returns the ⊥ value.
func Bottom() Value { return Value{Kind: Bot} }

// analyzeAll runs one round over every procedure, reporting whether any
// entry state or exit summary changed.
func (ip *interp) analyzeAll() bool {
	changed := false
	for i := range ip.p.Procs {
		if ip.analyzeProc(i) {
			changed = true
		}
	}
	return changed
}

// analyzeProc runs the intra-procedure worklist to a local fixpoint,
// propagating call contributions and the exit summary. It reports whether
// any state outside the procedure changed.
func (ip *interp) analyzeProc(pi int) bool {
	pr := ip.p.Procs[pi]
	if len(pr.Blocks) == 0 {
		return false
	}
	in := ip.blockIn[pi]
	external := false

	// The worklist is seeded from the entry blocks (and every block a
	// previous round reached — call summaries may have refined since):
	// CFG-unreachable blocks are never processed, so their all-⊥ states
	// cannot pollute reachable successors.
	work := make([]bool, len(pr.Blocks))
	var queue []int
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
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		work[b] = false
		ip.reached[pi][b] = true
		st := in[b]
		for i := pr.Blocks[b].Start; i < pr.Blocks[b].End; i++ {
			if ip.step(pi, i, &st) {
				external = true
			}
		}
		for _, s := range pr.Blocks[b].Succs {
			if in[s].meetInto(&st) || !ip.reached[pi][s] {
				push(s)
			}
		}
	}
	return external
}

// step applies instruction i of procedure pi to st, recording call
// contributions and exit summaries. It reports whether state outside the
// procedure changed.
func (ip *interp) step(pi, i int, st *State) bool {
	pr := ip.p.Procs[pi]
	inst := &pr.Code[i]
	in := inst.In

	// Unreached code (an all-⊥ state) transfers nothing.
	if inst.Call {
		return ip.stepCall(pi, i, st)
	}
	if inst.Ret {
		old := ip.exitGP[pi]
		ip.exitGP[pi] = meet(old, st.get(axp.GP))
		return ip.exitGP[pi] != old
	}
	if inst.Halt {
		return false
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
		return false
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
		return false
	}

	if inst.LoadVal != nil {
		st.set(in.Writes(), *inst.LoadVal)
		return false
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
	return false
}

// stepCall resolves the call's targets, contributes the callee entry
// states, and applies the call's effect on the caller state.
func (ip *interp) stepCall(pi, i int, st *State) bool {
	pr := ip.p.Procs[pi]
	inst := &pr.Code[i]
	changed := false

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
			changed = true
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
	return changed
}
