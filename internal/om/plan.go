package om

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/link"
	"repro/internal/objfile"
)

// planOpts control layout policy.
type planOpts struct {
	// reduceGAT drops GAT slots with no remaining address loads.
	reduceGAT bool
	// sortCommons places common blocks, sorted by size, with the small data
	// right after the GAT (the OM data-placement optimization).
	sortCommons bool
}

// Plan is a concrete memory layout for the current symbolic program. Data
// addresses are final; text addresses are estimates that emission
// recomputes into its own scratch (alignment padding may shift
// procedures), which is safe because no GP-relative displacement depends
// on a text address. A computed plan is read-only thereafter: emission,
// the journal and the static checkers only read it.
type Plan struct {
	pg   *Prog
	opts planOpts

	// GAT placement.
	gat      *link.GATPlan
	gatStart []uint64
	gp       []uint64

	// Text estimate, indexed by Proc.idx.
	procAddr []uint64

	// Data placement.
	secBase    [][objfile.NumSections]uint64
	commonAddr []uint64  // indexed like Program.Commons
	dataEnd    [2]uint64 // per region: static, shared
}

// regionOf returns 0 for static modules, 1 for shared-library modules.
func (pl *Plan) regionOf(m int) int {
	if pl.pg.P.IsShared(m) {
		return 1
	}
	return 0
}

// computePlan lays out the program under the given policy.
func computePlan(pg *Prog, opts planOpts) (*Plan, error) {
	p := pg.P
	addrs := make([]uint64, len(pg.Procs)+len(p.Commons))
	pl := &Plan{pg: pg, opts: opts,
		procAddr:   addrs[:len(pg.Procs):len(pg.Procs)],
		commonAddr: addrs[len(pg.Procs):],
	}

	// One walk over the instructions. It estimates the text layout —
	// procedures in order, each aligned to a quadword, placed per region —
	// and, under GAT reduction, marks the targets of live address loads:
	// one bitset over target ids per module.
	var t *link.Targets
	var live []uint64
	words := 0
	if opts.reduceGAT {
		var err error
		if t, err = link.TargetsOf(p); err != nil {
			return nil, err
		}
		words = (len(t.Keys) + 63) / 64
		live = make([]uint64, len(p.Objects)*words)
	}
	tcur := [2]uint64{objfile.TextBase, objfile.SharedTextBase}
	for _, pr := range pg.Procs {
		r := pl.regionOf(pr.Mod)
		tcur[r] = (tcur[r] + 7) &^ 7
		pl.procAddr[pr.idx] = tcur[r]
		row := live[pr.Mod*words:]
		n := 0
		for _, si := range pr.Insts {
			if si.Deleted {
				continue
			}
			n++
			if lit := si.Lit; live != nil && lit != nil && lit.ID >= 0 && !lit.Converted && !lit.Nullified {
				row[lit.ID/64] |= 1 << (lit.ID % 64)
			}
		}
		tcur[r] += uint64(n) * 4
	}
	var keep func(m, slot int) bool
	if live != nil {
		keep = func(m, slot int) bool {
			id := t.Slots[m][slot]
			return live[m*words+int(id/64)]&(1<<(id%64)) != 0
		}
	}
	gat, err := link.AssignGATs(p, keep)
	if err != nil {
		return nil, err
	}
	pl.gat = gat

	// Data placement, per region.
	dcur := [2]uint64{objfile.DataBase, objfile.SharedDataBase}
	gatAddrs := make([]uint64, 2*len(gat.Slots))
	pl.gatStart, pl.gp = gatAddrs[:len(gat.Slots):len(gat.Slots)], gatAddrs[len(gat.Slots):]
	for g, slots := range gat.Slots {
		r := 0
		if gat.GATShared[g] {
			r = 1
		}
		pl.gatStart[g] = dcur[r]
		pl.gp[g] = pl.gatStart[g] + link.GPOffset
		dcur[r] += uint64(len(slots)) * 8
	}
	placeCommon := func(i int) {
		c := p.Commons[i]
		dcur[0] = (dcur[0] + c.Align - 1) &^ (c.Align - 1)
		pl.commonAddr[i] = dcur[0]
		dcur[0] += c.Size
	}
	placeCommons := func() {
		if !opts.sortCommons {
			for i := range p.Commons {
				placeCommon(i)
			}
			return
		}
		order := make([]int, len(p.Commons))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int {
			ca, cb := p.Commons[a], p.Commons[b]
			if c := cmp.Compare(ca.Size, cb.Size); c != 0 {
				return c
			}
			return strings.Compare(ca.Name, cb.Name)
		})
		for _, i := range order {
			placeCommon(i)
		}
	}
	pl.secBase = make([][objfile.NumSections]uint64, len(p.Objects))
	place := func(sec objfile.SectionKind) {
		for m, obj := range p.Objects {
			r := pl.regionOf(m)
			dcur[r] = (dcur[r] + 7) &^ 7
			pl.secBase[m][sec] = dcur[r]
			dcur[r] += obj.Sections[sec].Size
		}
	}
	if opts.sortCommons {
		// OM placement: small things first, near the GAT.
		placeCommons()
		place(objfile.SecSData)
		place(objfile.SecSBss)
		place(objfile.SecData)
		place(objfile.SecBss)
	} else {
		// Standard placement.
		place(objfile.SecSData)
		place(objfile.SecData)
		placeCommons()
		place(objfile.SecSBss)
		place(objfile.SecBss)
	}
	pl.dataEnd = [2]uint64{(dcur[0] + 7) &^ 7, (dcur[1] + 7) &^ 7}
	return pl, nil
}

// GPOf returns the GP value of the procedure's module.
func (pl *Plan) GPOf(pr *Proc) uint64 { return pl.gp[pl.gat.ModuleGAT[pr.Mod]] }

// GPGroup returns the GAT index of the procedure's module.
func (pl *Plan) GPGroup(pr *Proc) int { return pl.gat.ModuleGAT[pr.Mod] }

// SameGAT reports whether two procedures share a global address table (and
// therefore a GP value).
func (pl *Plan) SameGAT(a, b *Proc) bool { return pl.GPGroup(a) == pl.GPGroup(b) }

// AddrOfKey returns the final address of a resolved target plus addend.
// Text addresses are estimates during transformation; emission recomputes
// them into its own scratch (addrOfKeyAt), leaving the plan untouched.
func (pl *Plan) AddrOfKey(k link.TargetKey) (uint64, error) {
	return pl.addrOfKeyAt(k, pl.procAddr)
}

// addrOfKeyAt is AddrOfKey with procedure addresses read from the given
// table, indexed by Proc.idx — emission passes its finalized addresses, everything else the plan's
// estimates. The plan itself is never written, so one plan serves
// concurrent emissions.
func (pl *Plan) addrOfKeyAt(k link.TargetKey, procAddr []uint64) (uint64, error) {
	if k.Kind == link.TCommon {
		if k.Common < 0 || int(k.Common) >= len(pl.commonAddr) {
			return 0, fmt.Errorf("om: unplaced common %s", k.Name)
		}
		return pl.commonAddr[k.Common] + uint64(k.Addend), nil
	}
	sym := &pl.pg.P.Objects[k.Mod].Symbols[k.Sym]
	switch sym.Kind {
	case objfile.SymProc:
		pr := pl.pg.procByDef[[2]int32{int32(k.Mod), k.Sym}]
		if pr == nil {
			return 0, fmt.Errorf("om: no lifted procedure for %s", sym.Name)
		}
		return procAddr[pr.idx] + uint64(k.Addend), nil
	case objfile.SymData:
		return pl.secBase[k.Mod][sym.Section] + sym.Value + uint64(k.Addend), nil
	}
	return 0, fmt.Errorf("om: address of non-definition %s", sym.Name)
}

// KeyRegion returns the region the key's datum lives in (commons are always
// static).
func (pl *Plan) KeyRegion(k link.TargetKey) int {
	if k.Kind == link.TCommon {
		return 0
	}
	return pl.regionOf(k.Mod)
}

// IsTextKey reports whether the key names a procedure (text address).
func (pl *Plan) IsTextKey(k link.TargetKey) bool {
	if k.Kind != link.TDef {
		return false
	}
	return pl.pg.P.Objects[k.Mod].Symbols[k.Sym].Kind == objfile.SymProc
}

// SlotAddr returns the address of the GAT slot for target id (LitInfo.ID)
// in GAT group g.
func (pl *Plan) SlotAddr(g int, id int32) (uint64, bool) {
	if id < 0 {
		return 0, false
	}
	i := pl.gat.SlotOf[g][id]
	if i < 0 {
		return 0, false
	}
	return pl.gatStart[g] + uint64(i)*8, true
}

// GATBytes is the total size of all GATs under this plan.
func (pl *Plan) GATBytes() uint64 { return gatBytes(pl.gat) }

// gatBytes is the total size of a GAT assignment's tables.
func gatBytes(gat *link.GATPlan) uint64 {
	var n uint64
	for _, slots := range gat.Slots {
		n += uint64(len(slots)) * 8
	}
	return n
}
