package om

import (
	"fmt"
	"sort"

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
	keySlot  []map[link.TargetKey]int

	// Text estimate.
	procAddr map[*Proc]uint64

	// Data placement.
	secBase    [][objfile.NumSections]uint64
	commonAddr map[string]uint64
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
	pl := &Plan{pg: pg, opts: opts, procAddr: make(map[*Proc]uint64)}

	// Which module slots are still referenced by live address loads?
	var keep func(m, slot int) bool
	if opts.reduceGAT {
		moduleKeys, err := link.ModuleKeys(p)
		if err != nil {
			return nil, err
		}
		live := make([]map[link.TargetKey]bool, len(p.Objects))
		for i := range live {
			live[i] = make(map[link.TargetKey]bool)
		}
		for _, pr := range pg.Procs {
			for _, si := range pr.Insts {
				if si.Deleted || si.Lit == nil {
					continue
				}
				if si.Lit.Converted || si.Lit.Nullified {
					continue
				}
				live[pr.Mod][si.Lit.Key] = true
			}
		}
		keep = func(m, slot int) bool { return live[m][moduleKeys[m][slot]] }
	}
	gat, err := link.AssignGATs(p, keep)
	if err != nil {
		return nil, err
	}
	pl.gat = gat

	// Text estimate: procedures in order, each aligned to a quadword,
	// placed per region.
	tcur := [2]uint64{objfile.TextBase, objfile.SharedTextBase}
	for _, pr := range pg.Procs {
		r := pl.regionOf(pr.Mod)
		tcur[r] = (tcur[r] + 7) &^ 7
		pl.procAddr[pr] = tcur[r]
		n := 0
		for _, si := range pr.Insts {
			if !si.Deleted {
				n++
			}
		}
		tcur[r] += uint64(n) * 4
	}

	// Data placement, per region.
	dcur := [2]uint64{objfile.DataBase, objfile.SharedDataBase}
	pl.gatStart = make([]uint64, len(gat.Slots))
	pl.gp = make([]uint64, len(gat.Slots))
	pl.keySlot = make([]map[link.TargetKey]int, len(gat.Slots))
	for g, slots := range gat.Slots {
		r := 0
		if gat.GATShared[g] {
			r = 1
		}
		pl.gatStart[g] = dcur[r]
		pl.gp[g] = pl.gatStart[g] + link.GPOffset
		pl.keySlot[g] = make(map[link.TargetKey]int, len(slots))
		for i, k := range slots {
			pl.keySlot[g][k] = i
		}
		dcur[r] += uint64(len(slots)) * 8
	}
	pl.commonAddr = make(map[string]uint64)
	placeCommons := func() {
		commons := append([]*link.Common(nil), p.Commons...)
		if opts.sortCommons {
			sort.Slice(commons, func(i, j int) bool {
				if commons[i].Size != commons[j].Size {
					return commons[i].Size < commons[j].Size
				}
				return commons[i].Name < commons[j].Name
			})
		}
		for _, c := range commons {
			dcur[0] = (dcur[0] + c.Align - 1) &^ (c.Align - 1)
			pl.commonAddr[c.Name] = dcur[0]
			dcur[0] += c.Size
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
// map — emission passes its finalized addresses, everything else the plan's
// estimates. The plan itself is never written, so one plan serves
// concurrent emissions.
func (pl *Plan) addrOfKeyAt(k link.TargetKey, procAddr map[*Proc]uint64) (uint64, error) {
	if k.Kind == link.TCommon {
		a, ok := pl.commonAddr[k.Name]
		if !ok {
			return 0, fmt.Errorf("om: unplaced common %s", k.Name)
		}
		return a + uint64(k.Addend), nil
	}
	sym := &pl.pg.P.Objects[k.Mod].Symbols[k.Sym]
	switch sym.Kind {
	case objfile.SymProc:
		pr := pl.pg.procByDef[[2]int32{int32(k.Mod), k.Sym}]
		if pr == nil {
			return 0, fmt.Errorf("om: no lifted procedure for %s", sym.Name)
		}
		return procAddr[pr] + uint64(k.Addend), nil
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

// SlotAddr returns the address of the GAT slot for key in GAT group g.
func (pl *Plan) SlotAddr(g int, k link.TargetKey) (uint64, bool) {
	i, ok := pl.keySlot[g][k]
	if !ok {
		return 0, false
	}
	return pl.gatStart[g] + uint64(i)*8, true
}

// GATBytes is the total size of all GATs under this plan.
func (pl *Plan) GATBytes() uint64 {
	var n uint64
	for _, slots := range pl.gat.Slots {
		n += uint64(len(slots)) * 8
	}
	return n
}
