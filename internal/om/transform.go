package om

import (
	"repro/internal/axp"
	"repro/internal/link"
)

func fits16(v int64) bool { return v >= axp.MemDispMin && v <= axp.MemDispMax }

// nullifyInst removes an instruction: OM-full deletes it, OM-simple turns it
// into a no-op (never moving or removing code).
func nullifyInst(si *SInst, full bool) {
	if full {
		si.Deleted = true
	} else {
		keep := SInst{In: axp.Nop(), Labels: si.Labels, Target: -1}
		lit, gpd, use := si.Lit, si.GPD, si.Use
		*si = keep
		// Preserve bookkeeping for statistics.
		si.Lit, si.GPD, si.Use = lit, gpd, use
	}
}

// applyAddressOpts performs the address-load conversion and nullification
// pass against the given layout plan. It returns whether anything changed.
//
//   - nullify: the address load disappears entirely; every linked use is
//     rewritten to reference the datum GP-relatively.
//   - convert (lda): the load becomes lda r, delta(gp) — same register
//     contents, no memory access.
//   - convert (ldah): for data within 32-bit but not 16-bit reach of GP,
//     the load becomes ldah r, hi(gp) and each use adds the low part, "a
//     direct GP-relative reference in the same number of instructions as an
//     indirect reference via the GAT".
func applyAddressOpts(pg *Prog, pl *Plan, full bool) bool {
	return applyAddressOptsEx(pg, pl, full, true)
}

// applyAddressOptsEx is applyAddressOpts with the ldah/lda pair insertion
// separately controllable (for ablation studies). Address loads and their
// uses are procedure-local and the layout plan is frozen for the duration
// of the pass, so procedures transform concurrently.
func applyAddressOptsEx(pg *Prog, pl *Plan, full, insertOK bool) bool {
	return pg.forEachProc(func(pr *Proc) bool {
		changed := false
		gp := int64(pl.GPOf(pr))
		type insertion struct {
			after *SInst
			inst  *SInst
		}
		var inserts []insertion
		for _, si := range pr.Insts {
			if si.Deleted || si.Lit == nil || si.Lit.Converted || si.Lit.Nullified {
				continue
			}
			key := si.Lit.Key
			if pl.IsTextKey(key) {
				// Procedure addresses live ~0.5GB from GP; they are handled
				// by the call optimization, not GP-relative addressing.
				continue
			}
			if pl.KeyRegion(key) != pl.regionOf(pr.Mod) {
				// Data on the other side of a dynamic-link boundary has no
				// fixed distance from this GP; it must stay in the GAT.
				continue
			}
			addr, err := pl.AddrOfKey(key)
			if err != nil {
				continue
			}
			delta := int64(addr) - gp

			uses := si.Lit.Uses
			allBase := len(uses) > 0
			for _, u := range uses {
				if u.Use == nil || u.Use.JSR || u.Deleted {
					allBase = false
				}
			}

			// Nullification: rewrite every use to op r, delta+d(gp).
			if allBase && fits16(delta) {
				ok := true
				for _, u := range uses {
					if !fits16(delta + int64(u.In.Disp)) {
						ok = false
						break
					}
				}
				if ok {
					for _, u := range uses {
						u.GPRel = &GPRelInfo{Kind: GPRelUseDirect, Key: key, Extra: int64(u.In.Disp)}
						u.In.Rb = axp.GP
						u.Use = nil
					}
					si.Lit.Nullified = true
					si.Lit.Uses = nil
					nullifyInst(si, full)
					changed = true
					continue
				}
			}

			// LDAH conversion for 32-bit-reachable data with mem-only uses.
			if allBase && !fits16(delta) {
				hi, lo, err := link.SplitGPDisp(delta)
				if err == nil {
					ok := true
					for _, u := range uses {
						if !fits16(int64(lo) + int64(u.In.Disp)) {
							ok = false
							break
						}
					}
					if ok {
						dst := si.In.Ra
						si.In = axp.MemInst(axp.LDAH, dst, axp.GP, int32(hi))
						si.GPRel = &GPRelInfo{Kind: GPRelLDAH, Key: key}
						si.Lit.Converted = true
						for _, u := range uses {
							u.GPRel = &GPRelInfo{Kind: GPRelUseLow, Key: key,
								Extra: int64(u.In.Disp), HighPart: si}
							u.Use = nil
						}
						changed = true
						continue
					}
				}
			}

			// LDA conversion: works regardless of how the address is used.
			if fits16(delta) {
				dst := si.In.Ra
				si.In = axp.MemInst(axp.LDA, dst, axp.GP, int32(delta))
				si.GPRel = &GPRelInfo{Kind: GPRelLDA, Key: key}
				si.Lit.Converted = true
				changed = true
				continue
			}

			// OM-full may insert code: materialize a 32-bit-far address with
			// an ldah/lda pair, trading the memory load for one extra ALU
			// instruction and removing the GAT entry.
			if full && insertOK {
				if _, _, err := link.SplitGPDisp(delta); err == nil {
					dst := si.In.Ra
					si.In = axp.MemInst(axp.LDAH, dst, axp.GP, 0)
					si.GPRel = &GPRelInfo{Kind: GPRelLDAH, Key: key}
					si.Lit.Converted = true
					low := &SInst{
						In:     axp.MemInst(axp.LDA, dst, dst, 0),
						Target: -1,
						GPRel:  &GPRelInfo{Kind: GPRelUseLow, Key: key, HighPart: si},
					}
					inserts = append(inserts, insertion{after: si, inst: low})
					changed = true
				}
			}
		}
		if len(inserts) > 0 {
			out := make([]*SInst, 0, len(pr.Insts)+len(inserts))
			for _, si := range pr.Insts {
				out = append(out, si)
				for _, ins := range inserts {
					if ins.after == si {
						out = append(out, ins.inst)
					}
				}
			}
			pr.Insts = out
		}
		return changed
	})
}

// resetCallee determines the procedure a call site transfers to, or nil for
// indirect calls.
func resetCallee(pg *Prog, call *SInst) *Proc {
	if call.Call != nil {
		return call.Call.Target
	}
	if call.Use != nil && call.Use.JSR {
		return pg.ProcFor(call.Use.Lit.Lit.Key)
	}
	return nil
}

// applyGPResetOpts nullifies the two GP-reset instructions after calls where
// the callee is known (or knowable: a single program-wide GAT) to share the
// caller's GP. Returns whether anything changed.
func applyGPResetOpts(pg *Prog, pl *Plan, full bool) bool {
	singleGAT := len(pl.gat.Slots) == 1
	// A GP-reset pair, its call, and its partner all live in the same
	// procedure; callee identity is read through the frozen plan. Safe to
	// fan out per procedure.
	return pg.forEachProc(func(pr *Proc) bool {
		changed := false
		for _, si := range pr.Insts {
			if si.Deleted || si.GPD == nil || !si.GPD.High || si.GPD.Entry {
				continue
			}
			call := si.GPD.AfterCall
			if call.Deleted {
				continue
			}
			callee := resetCallee(pg, call)
			same := singleGAT || (callee != nil && pl.SameGAT(pr, callee))
			if !same {
				continue
			}
			if si.GPD.Partner.Deleted || si.GPD.Partner.In.IsNop() {
				continue // already done
			}
			if si.In.IsNop() {
				continue
			}
			nullifyInst(si, full)
			nullifyInst(si.GPD.Partner, full)
			changed = true
		}
		return changed
	})
}

// pairPosition locates the prologue GP pair of a procedure among its live
// instructions, returning the hi instruction, its index, and the lo index
// (-1 if lo was deleted). Indices count live instructions only.
func pairPosition(pr *Proc) (hi *SInst, hiIdx, loIdx int) {
	idx := 0
	for _, si := range pr.Insts {
		if si.Deleted {
			continue
		}
		if si.GPD != nil && si.GPD.High && si.GPD.Entry && !si.In.IsNop() {
			return si, idx, liveIndex(pr, si.GPD.Partner)
		}
		idx++
	}
	return nil, -1, -1
}

// liveIndex returns target's index among the procedure's live instructions,
// or -1 if it is deleted or absent.
func liveIndex(pr *Proc, target *SInst) int {
	idx := 0
	for _, si := range pr.Insts {
		if si.Deleted {
			continue
		}
		if si == target {
			return idx
		}
		idx++
	}
	return -1
}

// markPairPositions records, for every procedure, whether its prologue GP
// pair sits exactly at entry (the condition for callers to skip it with a
// bsr to entry+8).
func markPairPositions(pg *Prog) {
	pg.forEachProc(func(pr *Proc) bool {
		hi, hiIdx, loIdx := pairPosition(pr)
		pr.PairAtEntry = hi != nil && hiIdx == 0 && loIdx == 1
		return false
	})
}

// restoreProloguePairs (OM-full) moves scheduler-displaced prologue GP pairs
// back to their logical place at procedure entry, enabling the bsr-skip
// optimization that OM-simple must forgo. Each restoration rearranges only
// its own procedure's instruction list, so procedures proceed concurrently.
// Like markPairPositions, it leaves PairAtEntry set for every procedure.
func restoreProloguePairs(pg *Prog) {
	pg.forEachProc(func(pr *Proc) bool {
		hi, hiIdx, loIdx := pairPosition(pr)
		pr.PairAtEntry = hi != nil && hiIdx == 0 && loIdx == 1
		if hi == nil || pr.PairAtEntry {
			return false
		}
		lo := hi.GPD.Partner
		// The pair must still be in the entry block (no intervening labels
		// or control transfers), and nothing before it may touch GP or PV.
		limit := max(hiIdx, loIdx)
		var first *SInst // the first live instruction
		i := 0
		for _, si := range pr.Insts {
			if i > limit {
				break
			}
			if si.Deleted {
				continue
			}
			if first == nil {
				first = si
			}
			if si != hi && si != lo && !pairMovableOver(si, i) {
				return false
			}
			i++
		}
		// Rebuild the full instruction list with the pair first, carrying
		// any entry labels along.
		entryLabels := append([]int(nil), first.Labels...)
		first.Labels = nil
		hi.Labels = append(entryLabels, hi.Labels...)
		insts := make([]*SInst, 0, len(pr.Insts))
		insts = append(insts, hi, lo)
		for _, si := range pr.Insts {
			if si != hi && si != lo {
				insts = append(insts, si)
			}
		}
		pr.Insts = insts
		// The pair now leads the procedure; it sits at entry unless its lo
		// half was already deleted.
		pr.PairAtEntry = !lo.Deleted
		return true
	})
}

// pairMovableOver reports whether the prologue GP pair may move above si,
// the live instruction at index i: si must be in the entry block and must
// neither transfer control nor touch GP or PV.
func pairMovableOver(si *SInst, i int) bool {
	if i > 0 && len(si.Labels) > 0 {
		return false
	}
	if si.In.Op.IsBranch() || si.In.Op.IsJump() || si.In.Op == axp.CALLPAL {
		return false
	}
	if si.In.Writes() == axp.GP || si.In.Writes() == axp.PV {
		return false
	}
	for _, r := range si.In.Reads() {
		if r == axp.GP {
			return false
		}
	}
	return true
}

// procUsesGP reports whether any live non-GP-establishing instruction of the
// procedure reads GP.
func procUsesGP(pr *Proc) bool {
	for _, si := range pr.Insts {
		if si.Deleted || si.GPD != nil {
			continue
		}
		for _, r := range si.In.Reads() {
			if r == axp.GP {
				return true
			}
		}
	}
	return false
}

// keyOfProc builds the TargetKey identifying a procedure's address.
func keyOfProc(pr *Proc) link.TargetKey {
	return link.TargetKey{Kind: link.TDef, Mod: pr.Mod, Sym: pr.Sym}
}

// procInAnyGAT reports whether the procedure's address still has a GAT slot
// under the plan (i.e., some remaining address load or PV load targets it).
func procInAnyGAT(pl *Plan, pr *Proc) bool {
	k := keyOfProc(pr)
	for g := range pl.keySlot {
		if _, ok := pl.keySlot[g][k]; ok {
			return true
		}
	}
	return false
}
