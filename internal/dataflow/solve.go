package dataflow

import "repro/internal/axp"

// RegSet is a pair of register bitmasks (integer, floating-point).
type RegSet struct {
	Int, FP uint64
}

const allRegs = ^uint64(0) >> (64 - axp.NumRegs)

// uses returns the registers instruction i reads, under the conservative
// interprocedural model: calls and returns read every register (arguments,
// results, and callee-saved contents flow through them), and so does the
// halt trap.
func (pr *Proc) uses(i int) RegSet {
	in := pr.Code[i].In
	if pr.Code[i].Call || pr.Code[i].Ret || pr.Code[i].Halt {
		return RegSet{Int: allRegs, FP: allRegs}
	}
	ints, fps := in.ReadMasks()
	return RegSet{Int: ints, FP: fps}
}

// defs returns the registers instruction i writes. Calls define every
// register: the callee may clobber anything, so no use after the call can
// be attributed to a definition before it.
func (pr *Proc) defs(i int) RegSet {
	if pr.Code[i].Call {
		return RegSet{Int: allRegs &^ (1 << axp.Zero), FP: allRegs &^ (1 << axp.FZero)}
	}
	in := pr.Code[i].In
	var d RegSet
	if r := in.Writes(); r != axp.Zero {
		d.Int |= 1 << r
	}
	if f := in.WritesF(); f != axp.FZero {
		d.FP |= 1 << f
	}
	if in.Op == axp.CALLPAL && in.PalFn == axp.PalCycles {
		d.Int |= 1 << axp.V0
	}
	return d
}

// scratch holds the register masks of the procedure being checked: per
// instruction and per block, the registers read and written. Every solver
// below reads them from here, and one scratch serves every procedure of a
// program in turn, so the checks allocate no per-instruction state.
type scratch struct {
	use, def []RegSet // per instruction
	// blockUse[b] is read in block b before any write there; blockDef[b]
	// is written anywhere in it.
	blockUse, blockDef []RegSet
	liveIn, liveOut    []RegSet // per block
	liveAt             []RegSet // per instruction
	mayIn              []uint64 // per block
}

// resize returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// load fills the per-instruction and per-block masks of pr, whose CFG must
// be built.
func (sc *scratch) load(pr *Proc) {
	n, nb := len(pr.Code), len(pr.Blocks)
	sc.use, sc.def = resize(sc.use, n), resize(sc.def, n)
	sc.blockUse, sc.blockDef = resize(sc.blockUse, nb), resize(sc.blockDef, nb)
	for b, blk := range pr.Blocks {
		bu, bd := &sc.blockUse[b], &sc.blockDef[b]
		for i := blk.Start; i < blk.End; i++ {
			u, d := pr.uses(i), pr.defs(i)
			sc.use[i], sc.def[i] = u, d
			bu.Int |= u.Int &^ bd.Int
			bu.FP |= u.FP &^ bd.FP
			bd.Int |= d.Int
			bd.FP |= d.FP
		}
	}
}

// liveness computes per-block live-in/live-out register sets by the
// standard backward iterative dataflow. Index the results by block; they
// stay valid until the scratch is loaded with another procedure.
func (pr *Proc) liveness(sc *scratch) (liveIn, liveOut []RegSet) {
	nb := len(pr.Blocks)
	liveIn, liveOut = resize(sc.liveIn, nb), resize(sc.liveOut, nb)
	sc.liveIn, sc.liveOut = liveIn, liveOut
	for changed := true; changed; {
		changed = false
		for b := nb - 1; b >= 0; b-- {
			var out RegSet
			for _, s := range pr.Blocks[b].Succs {
				out.Int |= liveIn[s].Int
				out.FP |= liveIn[s].FP
			}
			use, def := sc.blockUse[b], sc.blockDef[b]
			in := RegSet{
				Int: use.Int | (out.Int &^ def.Int),
				FP:  use.FP | (out.FP &^ def.FP),
			}
			if out != liveOut[b] || in != liveIn[b] {
				liveOut[b], liveIn[b] = out, in
				changed = true
			}
		}
	}
	return liveIn, liveOut
}

// liveOutAt computes the per-instruction live-out sets from the block
// solution by one backward walk per block.
func (pr *Proc) liveOutAt(sc *scratch) []RegSet {
	_, liveOut := pr.liveness(sc)
	out := resize(sc.liveAt, len(pr.Code))
	sc.liveAt = out
	for b, blk := range pr.Blocks {
		cur := liveOut[b]
		for i := blk.End - 1; i >= blk.Start; i-- {
			out[i] = cur
			u, d := sc.use[i], sc.def[i]
			cur.Int = u.Int | (cur.Int &^ d.Int)
			cur.FP = u.FP | (cur.FP &^ d.FP)
		}
	}
	return out
}

// mayDefined solves the forward may-analysis DF006 asks about: in[b] holds
// the integer registers some definition reaches on some path into block b,
// and a block passes on in[b] | blockDef[b]. Nothing is defined at the
// entry; a call defines every register.
//
// This is exactly the projection of classic reaching definitions onto
// registers ("some definition site of r reaches"), not an approximation of
// it. Only a later definition of r kills a definition of r, and that later
// one reaches in its place; a call kills every earlier site but defines
// every register itself. So the projection commutes with each block's
// transfer and with the union at joins, and the two least fixpoints
// project onto each other.
func (pr *Proc) mayDefined(sc *scratch) []uint64 {
	in := resize(sc.mayIn, len(pr.Blocks))
	sc.mayIn = in
	for changed := true; changed; {
		changed = false
		for b := range pr.Blocks {
			out := in[b] | sc.blockDef[b].Int
			for _, s := range pr.Blocks[b].Succs {
				if m := in[s] | out; m != in[s] {
					in[s] = m
					changed = true
				}
			}
		}
	}
	return in
}
