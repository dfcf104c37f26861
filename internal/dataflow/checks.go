package dataflow

import (
	"fmt"
	"math/bits"

	"repro/internal/axp"
)

// entryDefined are the integer registers a procedure may read without a
// prior definition: the value/argument registers, the callee-saved set it
// must preserve (reading them is how it saves them), and the linkage
// registers the calling convention defines at entry.
const entryDefined = uint64(1<<axp.V0) |
	uint64(1<<axp.A0) | uint64(1<<axp.A1) | uint64(1<<axp.A2) |
	uint64(1<<axp.A3) | uint64(1<<axp.A4) | uint64(1<<axp.A5) |
	uint64(1<<axp.S0) | uint64(1<<axp.S1) | uint64(1<<axp.S2) |
	uint64(1<<axp.S3) | uint64(1<<axp.S4) | uint64(1<<axp.S5) |
	uint64(1<<axp.FP) | uint64(1<<axp.SP) | uint64(1<<axp.GP) |
	uint64(1<<axp.RA) | uint64(1<<axp.PV) | uint64(1<<axp.AT)

// runChecks walks every procedure with the converged abstract states and
// the iterative-dataflow solutions, evaluating the whole catalog.
// mayDefined is the solver for DF006's per-block may-defined registers.
func runChecks(p *Program, ip *interp, rep *Report, mayDefined func(*Proc, *scratch) []uint64) {
	var sc scratch
	for pi, pr := range p.Procs {
		if len(pr.Code) == 0 {
			continue
		}
		reach := pr.Reachable()
		sc.load(pr)
		mayIn := mayDefined(pr, &sc)
		// Only DF002 asks about liveness, and only at address loads.
		var liveOut []RegSet
		for i := range pr.Code {
			if pr.Code[i].LitLoad {
				liveOut = pr.liveOutAt(&sc)
				break
			}
		}

		add := func(id string, i int, format string, args ...any) {
			rep.add(Finding{
				ID:     id,
				Proc:   pr.Name,
				Addr:   pr.Code[i].Addr,
				Detail: fmt.Sprintf(format, args...),
			})
		}

		for b := range pr.Blocks {
			blk := &pr.Blocks[b]
			if !reach[b] {
				// DF003: no CFG path from the procedure's entries.
				rep.Checked++
				add("DF003", blk.Start, "block of %d instructions is unreachable",
					blk.End-blk.Start)
				continue
			}
			st := ip.blockIn[pi][b]
			defined := mayIn[b]
			for i := blk.Start; i < blk.End; i++ {
				inst := &pr.Code[i]
				in := inst.In

				// DF001: every GP read must see this cluster's GP.
				ints, _ := in.ReadMasks()
				readsGP := ints&(1<<axp.GP) != 0
				if readsGP && in.Writes() != axp.GP &&
					inst.SetsGP < 0 && inst.SetsGPHi < 0 && pr.Cluster >= 0 {
					rep.Checked++
					want := ip.gpOf(pr.Cluster)
					if v := st.get(axp.GP); v.Kind != Bot && v != want {
						add("DF001", i, "%s reads gp holding %s, want %s",
							in.Op, v, want)
					}
				}

				// DF004: an after-call GP reset whose incoming GP is
				// already valid (program level only).
				if inst.SetsGPHi >= 0 && inst.GPAnchor >= 0 {
					rep.Checked++
					if st.get(axp.GP) == ip.gpOf(inst.SetsGPHi) {
						add("DF004", i, "GP reset after call is redundant: gp already holds %s",
							ip.gpOf(inst.SetsGPHi))
					}
				}

				// DF005: direct-call displacement window and local-entry
				// validity.
				if inst.Call && in.Op == axp.BSR {
					for _, t := range inst.Targets {
						rep.Checked++
						tp := p.Procs[t.Proc]
						disp := (int64(tp.Addr+t.Off) - int64(inst.Addr+4)) / 4
						if disp < axp.BranchDispMin || disp > axp.BranchDispMax {
							add("DF005", i, "bsr %s+%d displacement %d exceeds the 21-bit window",
								tp.Name, t.Off, disp)
						}
						if t.Off == 8 && !tp.PairAtEntry {
							add("DF005", i, "bsr targets local entry %s+8 but no GP pair occupies the entry",
								tp.Name)
						}
					}
				}

				// DF006: a read no definition reaches on any path.
				reads := ints &^ entryDefined
				rep.Checked += uint64(bits.OnesCount64(reads))
				for undef := reads &^ defined; undef != 0; undef &= undef - 1 {
					add("DF006", i, "%s reads %s with no reaching definition",
						in.Op, axp.Reg(bits.TrailingZeros64(undef)))
				}

				// DF002/DF007: GAT address-load sites.
				if inst.LitLoad {
					rep.Checked++
					if !inst.LitSlotOK {
						add("DF007", i, "%s", inst.LitDetail)
					}
					if r := in.Writes(); r != axp.Zero &&
						liveOut[i].Int&(1<<r) == 0 {
						add("DF002", i, "address load into dead register %s", r)
					}
				}

				// Advance the may-defined set and the abstract state past
				// this instruction.
				defined |= sc.def[i].Int
				ip.step(pi, i, &st)
			}
		}
	}
}
