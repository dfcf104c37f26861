package om

import (
	"fmt"

	"repro/internal/axp"
)

// Stats aggregates the static measurements the paper reports in Figures
// 3-5 plus the GAT-size reduction from §5.1.
type Stats struct {
	// Figure 3: address loads.
	AddressLoads  int // address loads in the original program
	AddrConverted int // became lda/ldah (load-address) instructions
	AddrNullified int // became no-ops (simple) or were deleted (full)

	// Figure 4: procedure-call bookkeeping.
	CallSites     int // all call sites
	IndirectCalls int // calls through procedure variables
	PVBefore      int // call sites requiring a PV materialization, before
	PVAfter       int // ... after optimization
	GPResetBefore int // call sites followed by a GP-reset pair, before
	GPResetAfter  int // ... after optimization
	JSRBefore     int // general jsr call sites before
	JSRAfter      int // jsr call sites remaining (unconverted)

	// Figure 5: instructions.
	Instructions int // original instruction count
	Nullified    int // instructions turned into no-ops (OM-simple)
	Deleted      int // instructions deleted outright (OM-full)

	// GAT size (§5.1).
	GATBytesBefore uint64
	GATBytesAfter  uint64
}

// AddrRemovedFrac is the Figure 3 quantity: the fraction of address loads
// eliminated (converted or nullified).
func (s *Stats) AddrRemovedFrac() float64 {
	if s.AddressLoads == 0 {
		return 0
	}
	return float64(s.AddrConverted+s.AddrNullified) / float64(s.AddressLoads)
}

// NullifiedFrac is the Figure 5 quantity: the fraction of instructions
// nullified or deleted.
func (s *Stats) NullifiedFrac() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Nullified+s.Deleted) / float64(s.Instructions)
}

// PVFracBefore/PVFracAfter are the Figure 4 (top) quantities.
func (s *Stats) PVFracBefore() float64 { return frac(s.PVBefore, s.CallSites) }

// PVFracAfter is the post-optimization fraction of calls needing PV loads.
func (s *Stats) PVFracAfter() float64 { return frac(s.PVAfter, s.CallSites) }

// GPResetFracBefore is the Figure 4 (bottom) before quantity.
func (s *Stats) GPResetFracBefore() float64 { return frac(s.GPResetBefore, s.CallSites) }

// GPResetFracAfter is the post-optimization fraction of calls with resets.
func (s *Stats) GPResetFracAfter() float64 { return frac(s.GPResetAfter, s.CallSites) }

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// String renders a compact summary.
func (s *Stats) String() string {
	return fmt.Sprintf(
		"addr loads %d (conv %d, null %d = %.1f%%); calls %d (pv %d->%d, reset %d->%d, indirect %d); insts %d (nop %d, del %d = %.1f%%); GAT %d->%d bytes",
		s.AddressLoads, s.AddrConverted, s.AddrNullified, 100*s.AddrRemovedFrac(),
		s.CallSites, s.PVBefore, s.PVAfter, s.GPResetBefore, s.GPResetAfter, s.IndirectCalls,
		s.Instructions, s.Nullified, s.Deleted, 100*s.NullifiedFrac(),
		s.GATBytesBefore, s.GATBytesAfter)
}

// isCallSite reports whether the instruction is a procedure-call site.
func isCallSite(si *SInst) bool {
	if si.Deleted {
		return false
	}
	if si.In.Op == axp.JSR {
		return true
	}
	return si.In.Op == axp.BSR && si.Call != nil
}

// addBefore adds o's before-statistics (the fields lift counts) to s.
func (s *Stats) addBefore(o *Stats) {
	s.Instructions += o.Instructions
	s.AddressLoads += o.AddressLoads
	s.CallSites += o.CallSites
	s.IndirectCalls += o.IndirectCalls
	s.PVBefore += o.PVBefore
	s.JSRBefore += o.JSRBefore
	s.GPResetBefore += o.GPResetBefore
}

// countCallBefore counts a lifted call site's before-statistics, all but
// its GP reset.
func (s *Stats) countCallBefore(si *SInst) {
	s.CallSites++
	if si.Indirect {
		s.IndirectCalls++
	}
	if si.Indirect || si.PVLit != nil {
		s.PVBefore++
	}
	if si.In.Op == axp.JSR {
		s.JSRBefore++
	}
}

// collectAfter fills the post-optimization counters. It reads the
// instruction ordinals of the last renumber.
func collectAfter(pg *Prog, pl *Plan, s *Stats) {
	var resets []bool
	for _, pr := range pg.Procs {
		resets = liveResets(pr, resets)
		for i, si := range pr.Insts {
			if si.Lit != nil {
				// Count removals even when the load itself was deleted.
				if si.Lit.Converted {
					s.AddrConverted++
				} else if si.Lit.Nullified {
					s.AddrNullified++
				}
			}
			if si.Deleted {
				s.Deleted++
				continue
			}
			if si.In.IsNop() && si.In.Op == axp.BIS {
				// Instructions OM-simple turned into canonical no-ops.
				s.Nullified++
			}
			if !isCallSite(si) {
				continue
			}
			if si.In.Op == axp.JSR {
				s.JSRAfter++
			}
			if pvStillNeeded(si) {
				s.PVAfter++
			}
			if resets[i] {
				s.GPResetAfter++
			}
		}
	}
	s.GATBytesAfter = pl.GATBytes()
}

// pvStillNeeded reports whether a call site still materializes PV.
func pvStillNeeded(si *SInst) bool {
	if si.Indirect {
		return true
	}
	if si.PVLit == nil {
		return false
	}
	lit := si.PVLit
	return !lit.Deleted && !lit.In.IsNop() && lit.Lit != nil && !lit.Lit.Nullified
}

// liveResets marks, per instruction of the procedure, whether a live
// GP-reset pair is anchored to it (a call). It locates each anchor by its
// ordinal, so the procedure must be renumbered; buf is reused.
func liveResets(pr *Proc, buf []bool) []bool {
	buf = fit(buf, len(pr.Insts))[:len(pr.Insts)]
	clear(buf)
	if len(pr.Insts) == 0 {
		return buf
	}
	first := pr.Insts[0].ord
	for _, si := range pr.Insts {
		if si.Deleted || si.GPD == nil || !si.GPD.High || si.GPD.Entry || si.In.IsNop() {
			continue
		}
		call := si.GPD.AfterCall
		if call == nil {
			continue
		}
		if i := int(call.ord - first); i >= 0 && i < len(buf) && pr.Insts[i] == call {
			buf[i] = true
		}
	}
	return buf
}
