package dataflow

import (
	"fmt"

	"repro/internal/axp"
	"repro/internal/link"
	"repro/internal/om"
)

// FromProg builds the unified model from OM's symbolic form under a
// layout plan (text addresses are the plan's estimates, data and GAT
// addresses are final). It works on the lifted program before any pass
// and on the transformed program after them — the pair the static check
// level analyzes (om -check static). The program and plan are only read.
func FromProg(pg *om.Prog, pl *om.Plan) (*Program, error) {
	p := &Program{Source: "prog"}
	procIdx := make(map[*om.Proc]int, len(pg.Procs))
	for i, pr := range pg.Procs {
		procIdx[pr] = i
		if g := pl.GPGroup(pr); g >= p.Clusters {
			p.Clusters = g + 1
		}
	}

	// addrValue is the abstract value of a resolved key: procedure
	// addresses stay symbolic (emission may shift them), data and common
	// addresses are final under the plan.
	addrValue := func(key link.TargetKey, extra int64) (Value, error) {
		if pl.IsTextKey(key) {
			k0 := key
			k0.Addend = 0
			if tp := pg.ProcFor(k0); tp != nil {
				return Value{Kind: KAddr, N: procIdx[tp], C: uint64(key.Addend + extra)}, nil
			}
		}
		a, err := pl.AddrOfKey(key)
		if err != nil {
			return top, err
		}
		return Value{Kind: KConst, C: a + uint64(extra)}, nil
	}

	for _, pr := range pg.Procs {
		live := pr.Live()
		dp := &Proc{
			Name:    pr.Name,
			Cluster: pl.GPGroup(pr),
			Code:    make([]Inst, len(live)),
		}
		key := link.TargetKey{Kind: link.TDef, Mod: pr.Mod, Sym: pr.Sym, Name: pr.Name}
		addr, err := pl.AddrOfKey(key)
		if err != nil {
			return nil, fmt.Errorf("dataflow: %s: %w", pr.Name, err)
		}
		dp.Addr = addr

		// Live-index maps: labels on deleted instructions resolve to the
		// next live instruction, mirroring emission's normalizeLabels.
		liveIdx := make(map[*om.SInst]int, len(live))
		labelIdx := make(map[int]int)
		n := 0
		for _, si := range pr.Insts {
			for _, l := range si.Labels {
				labelIdx[l] = n
			}
			if !si.Deleted {
				liveIdx[si] = n
				n++
			}

			// DF008 (structural half): a deleted address load whose literal
			// record says "kept". Every legitimate removal marks the record
			// first — nullification sets Nullified before nullifyInst, the
			// lda/ldah and bsr conversions set Converted, and prologue-pair
			// deletion carries GPD, not Lit — so this state is reachable
			// only by a pass dropping a load whose value may still be
			// consumed (the fault-injection hook's exact mutation).
			if si.Deleted && si.Lit != nil && !si.Lit.Converted && !si.Lit.Nullified {
				p.Extra = append(p.Extra, Finding{
					ID: "DF008", Proc: pr.Name, Addr: addr + uint64(4*n),
					Detail: fmt.Sprintf("address load of %s deleted without conversion or nullification",
						si.Lit.Key.Name),
				})
			}
		}

		for i, si := range live {
			inst := &dp.Code[i]
			inst.In = si.In
			inst.Addr = addr + uint64(4*i)
			inst.BranchTo = -1
			inst.SetsGP, inst.SetsGPHi, inst.GPAnchor = -1, -1, -1
			inst.HasLabel = len(si.Labels) > 0
			if si.Target >= 0 {
				if t, ok := labelIdx[int(si.Target)]; ok && t < len(live) {
					inst.BranchTo = t
				}
			}

			switch {
			case si.Call != nil:
				inst.Call = true
				inst.Targets = []CallTarget{{
					Proc: procIdx[si.Call.Target], Off: si.Call.EntryOffset,
				}}
			case si.In.Op == axp.JSR:
				inst.Call = true
				if si.Use != nil && si.Use.Lit != nil && si.Use.Lit.Lit != nil {
					k := si.Use.Lit.Lit.Key
					off := uint64(k.Addend)
					k0 := k
					k0.Addend = 0
					if tp := pg.ProcFor(k0); tp != nil && (off == 0 || off == 8) {
						inst.Targets = []CallTarget{{Proc: procIdx[tp], Off: off}}
					} else {
						inst.Fan = true
					}
				} else {
					inst.Fan = true
				}
			case si.In.Op == axp.BSR:
				// A live bsr without a Call annotation has no known
				// target procedure; treat it as a computed call.
				inst.Call = true
				inst.Fan = true
			case si.In.Op == axp.RET:
				inst.Ret = true
			case si.In.Op == axp.CALLPAL && si.In.PalFn == axp.PalHalt:
				inst.Halt = true
			}

			// GP-establishing pairs: mark the halves so the interpreter
			// models them as a unit (their displacements are symbolic).
			// A nullified half no longer writes GP and carries no mark.
			if si.GPD != nil && si.In.Writes() == axp.GP {
				if si.GPD.High {
					inst.SetsGPHi = dp.Cluster
					if si.GPD.AfterCall != nil {
						if a, ok := liveIdx[si.GPD.AfterCall]; ok {
							inst.GPAnchor = a
						} else {
							inst.GPAnchor = -2 // anchor call deleted: never valid
						}
					}
				} else {
					inst.SetsGP = dp.Cluster
				}
			}

			// Address loads and their conversions produce the plan's
			// value for the key, whatever their operands.
			switch {
			case si.Lit != nil && !si.Deleted && !si.Lit.Nullified && si.In.Writes() != axp.Zero:
				v, err := addrValue(si.Lit.Key, 0)
				if err != nil {
					return nil, fmt.Errorf("dataflow: %s: %w", pr.Name, err)
				}
				inst.LoadVal = &v
				if !si.Lit.Converted {
					inst.LitLoad = true
					inst.LitSlotOK = true
					g := dp.Cluster
					if slot, ok := pl.SlotAddr(g, si.Lit.ID); !ok {
						inst.LitSlotOK = false
						inst.LitDetail = fmt.Sprintf("no GAT slot for %s in cluster %d", si.Lit.Key.Name, g)
					} else if d := int64(slot) - int64(pl.GPOf(pr)); d < axp.MemDispMin || d > axp.MemDispMax {
						inst.LitSlotOK = false
						inst.LitDetail = fmt.Sprintf("GAT slot for %s at displacement %d, outside the 16-bit window", si.Lit.Key.Name, d)
					}
				}
			case si.GPRel != nil:
				switch si.GPRel.Kind {
				case om.GPRelLDA:
					v, err := addrValue(si.GPRel.Key, si.GPRel.Extra)
					if err != nil {
						return nil, fmt.Errorf("dataflow: %s: %w", pr.Name, err)
					}
					inst.LoadVal = &v
				case om.GPRelLDAH:
					// Half an address: only its paired low-part use can
					// complete it.
					t := top
					inst.LoadVal = &t
				}
			}

			// DF008: the instruction still consumes a literal load's
			// register but the load is gone and the use was never
			// rewritten — the invariant OM's passes must preserve, and
			// the one the fault-injection hook breaks.
			if si.Use != nil && si.Use.Lit != nil && si.GPRel == nil &&
				!(si.Call != nil && si.Call.FromJSR) {
				lit := si.Use.Lit
				broken := lit.Deleted || lit.Lit == nil || lit.Lit.Nullified
				if broken {
					p.Extra = append(p.Extra, Finding{
						ID: "DF008", Proc: pr.Name, Addr: inst.Addr,
						Detail: fmt.Sprintf("%s consumes a deleted or nullified address load", si.In.Op),
					})
				}
			}
		}

		// A GP pair in the first two slots makes entry+8 a local entry.
		dp.PairAtEntry = len(dp.Code) > 1 &&
			dp.Code[0].SetsGPHi >= 0 && dp.Code[0].GPAnchor == -1 &&
			dp.Code[1].SetsGP >= 0
		p.Procs = append(p.Procs, dp)
	}
	return p, nil
}

// AnalyzeProg builds the model from OM's symbolic form and runs the full
// analysis. stage labels the report ("lifted", "optimized").
func AnalyzeProg(pg *om.Prog, pl *om.Plan, stage string) (*Report, error) {
	p, err := FromProg(pg, pl)
	if err != nil {
		return nil, err
	}
	rep := Analyze(p)
	rep.Stage = stage
	return rep, nil
}
