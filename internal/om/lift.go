// Package om implements the paper's contribution: the OM link-time
// code-modification system, specialized to address-calculation optimization
// on the Alpha AXP.
//
// OM translates the object code of the entire program into a symbolic form:
// procedures with label-based control flow and relocation-derived
// annotations (address loads, their uses, GP-establishing pairs, direct-call
// branches). It analyzes and transforms this form — at the OM-simple level
// by one-for-one instruction replacement, at the OM-full level with
// deletion, insertion, and reordering — and regenerates executable object
// code, recomputing every displacement and address constant from the
// symbolic form.
package om

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/axp"
	"repro/internal/link"
	"repro/internal/objfile"
)

// SInst is one instruction in OM's symbolic form. Field order packs it
// into 104 bytes: lift allocates one slab of these per procedure, and every
// resident lifted program holds them.
type SInst struct {
	In axp.Inst
	// Target is the label a branch jumps to, or -1.
	Target int32

	// Labels are intra-procedure labels attached to this instruction.
	Labels []int

	// Lit marks an address load from the GAT.
	Lit *LitInfo
	// Use links a memory access or jsr to its address load.
	Use *UseInfo
	// GPD marks half of a GP-establishing pair.
	GPD *GPDInfo
	// Call marks a direct call/branch to another procedure.
	Call *CallInfo
	// GPRel marks an instruction rewritten to address data GP-relatively;
	// its displacement is recomputed from the final layout at emission.
	GPRel *GPRelInfo
	// PVLit records, for a direct jsr call site, the address load that
	// materializes PV (for statistics after the Use link is dissolved).
	PVLit *SInst

	// ord is the instruction's dense program-wide ordinal, assigned by
	// Prog.renumber. Emit indexes its pooled address scratch with it, which
	// keeps emission fully read-only on the program: final addresses live in
	// the scratch, not on the instructions. Instructions Emit fabricates
	// itself (alignment padding) carry -1.
	ord int32

	// Deleted marks instructions removed by OM-full; they are skipped at
	// emission. OM-simple instead overwrites In with a no-op.
	Deleted bool
	// Indirect marks a call through a procedure variable.
	Indirect bool
}

// LitInfo describes an address load: ldq rX, slot(gp).
type LitInfo struct {
	Key  link.TargetKey
	Uses []*SInst
	// Converted: the load became a load-address (lda or ldah) and no longer
	// references the GAT.
	Converted bool
	// Nullified: the load was no-op'd (simple) or deleted (full).
	Nullified bool
}

// UseInfo links an instruction to the address load feeding it.
type UseInfo struct {
	Lit *SInst
	JSR bool
}

// GPDInfo describes half of a GP-establishing ldah/lda pair.
type GPDInfo struct {
	Partner *SInst
	High    bool
	// Entry: the pair's base register holds the procedure entry address
	// (prologue, PV). Otherwise AfterCall holds the call whose return
	// address (RA) is the base.
	Entry     bool
	AfterCall *SInst
}

// CallInfo describes a direct call whose destination is a known procedure.
type CallInfo struct {
	Target *Proc
	// EntryOffset is the byte offset into the target (0 or 8 for the local
	// entry point past the GP-setup pair).
	EntryOffset uint64
	// FromJSR: the call was a GAT-indirect jsr that the call optimization
	// converted to this direct bsr (vs. a bsr the compiler emitted).
	FromJSR bool

	// origJSR and origPV snapshot the jsr and its PV-load instruction at
	// conversion time (FromJSR only), so the profile-guided layout pass can
	// revert the conversion when reordering pushes the callee beyond the
	// bsr's 21-bit displacement. origPV matters at OM-simple, where
	// nullification overwrites the load in place.
	origJSR axp.Inst
	origPV  axp.Inst
}

// GPRelKind distinguishes the GP-relative rewrite applied to an instruction.
type GPRelKind uint8

const (
	// GPRelLDA: the instruction computes key's address: lda r, delta(gp).
	GPRelLDA GPRelKind = iota
	// GPRelLDAH: the instruction computes the high part: ldah r, hi(gp).
	GPRelLDAH
	// GPRelUseDirect: a load/store rewritten to op r, delta+orig(gp).
	GPRelUseDirect
	// GPRelUseLow: a load/store rewritten against a GPRelLDAH base:
	// op r, lo+orig(base).
	GPRelUseLow
)

// GPRelInfo carries the symbolic GP-relative rewrite.
type GPRelInfo struct {
	Kind GPRelKind
	Key  link.TargetKey
	// Extra is the displacement added beyond the key's address (the
	// original use displacement).
	Extra int64
	// HighPart, for GPRelUseLow, is the ldah this use pairs with.
	HighPart *SInst
}

// Proc is one procedure in symbolic form.
type Proc struct {
	Mod      int
	Sym      int32
	Name     string
	Exported bool
	Insts    []*SInst

	nextLabel int

	// Analysis/transform state:
	// DataAddrTaken: the procedure's address appears in initialized data
	// (function-pointer tables); its full entry must stay intact.
	DataAddrTaken bool
	// PrologueDeleted: OM-full removed the GP-setup pair entirely.
	PrologueDeleted bool
	// PairAtEntry: the prologue GP pair occupies the first two slots.
	PairAtEntry bool
}

// NewLabel allocates a fresh intra-procedure label.
func (pr *Proc) NewLabel() int {
	l := pr.nextLabel
	pr.nextLabel++
	return l
}

// Live returns the non-deleted instructions.
func (pr *Proc) Live() []*SInst {
	live := make([]*SInst, 0, len(pr.Insts))
	for _, si := range pr.Insts {
		if !si.Deleted {
			live = append(live, si)
		}
	}
	return live
}

// Prog is the whole program in symbolic form.
type Prog struct {
	P     *link.Program
	Procs []*Proc
	// procByDef finds the Proc for a (module, symbol) definition.
	procByDef map[[2]int32]*Proc
	// nOrd is the ordinal count assigned by the last renumber (the size of
	// Emit's address scratch). 0 means the program was never renumbered.
	nOrd int
	// par bounds the goroutines used by per-procedure passes (see
	// forEachProc); 0 or 1 means serial.
	par int
}

// renumber assigns every instruction a dense program-wide ordinal. Run
// calls it after the last phase that can add instructions and before
// emission, which only ever reads the ordinals.
func (pg *Prog) renumber() {
	n := int32(0)
	for _, pr := range pg.Procs {
		for _, si := range pr.Insts {
			si.ord = n
			n++
		}
	}
	pg.nOrd = int(n)
}

// ProcFor resolves a target key to its procedure, if it names one.
func (pg *Prog) ProcFor(k link.TargetKey) *Proc {
	if k.Kind != link.TDef || k.Addend != 0 {
		return nil
	}
	return pg.procByDef[[2]int32{int32(k.Mod), k.Sym}]
}

// pendingCall is a direct call noted during module lifting, resolved once
// every procedure of every module exists.
type pendingCall struct {
	inst   *SInst
	target link.Target
	addend int64
}

// liftedModule is the result of lifting one module's text.
type liftedModule struct {
	procs   []*Proc
	pending []pendingCall
}

// Lift translates every procedure of the merged program into symbolic form.
func Lift(p *link.Program) (*Prog, error) {
	return lift(context.Background(), p, 1)
}

// lift is Lift with cancellation and bounded per-module parallelism.
// Modules are lifted independently and merged in module order, so the
// resulting Prog is identical for every parallelism setting.
func lift(ctx context.Context, p *link.Program, par int) (*Prog, error) {
	mods := make([]*liftedModule, len(p.Objects))
	errs := make([]error, len(p.Objects))
	if par > len(p.Objects) {
		par = len(p.Objects)
	}
	if par <= 1 {
		for m, obj := range p.Objects {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			mods[m], errs[m] = liftModule(p, m, obj)
		}
	} else {
		var next atomic.Int64
		runWorkers(par, func() {
			for {
				m := int(next.Add(1) - 1)
				if m >= len(p.Objects) || ctx.Err() != nil {
					return
				}
				mods[m], errs[m] = liftModule(p, m, p.Objects[m])
			}
		})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	pg := &Prog{P: p, procByDef: make(map[[2]int32]*Proc)}
	var pending []pendingCall
	for _, lm := range mods {
		for _, pr := range lm.procs {
			pg.Procs = append(pg.Procs, pr)
			pg.procByDef[[2]int32{int32(pr.Mod), pr.Sym}] = pr
		}
		pending = append(pending, lm.pending...)
	}

	// Resolve direct-call targets now that all procedures exist.
	for _, pc := range pending {
		if pc.target.Kind != link.TDef {
			return nil, fmt.Errorf("om: lift: call to non-procedure %s", pc.target.Name)
		}
		tp := pg.procByDef[[2]int32{int32(pc.target.Mod), pc.target.Sym}]
		if tp == nil {
			return nil, fmt.Errorf("om: lift: call to unknown procedure %s", pc.target.Name)
		}
		pc.inst.Call = &CallInfo{Target: tp, EntryOffset: uint64(pc.addend)}
	}

	// Data-section address-taken procedures (function-pointer tables in
	// initialized data).
	for m, obj := range p.Objects {
		for _, r := range obj.Relocs {
			if r.Kind != objfile.RRefQuad || r.Section == objfile.SecLita {
				continue
			}
			t := p.Resolve(m, r.Symbol)
			if t.Kind == link.TDef {
				if tp := pg.procByDef[[2]int32{int32(t.Mod), t.Sym}]; tp != nil {
					tp.DataAddrTaken = true
				}
			}
		}
	}
	return pg, nil
}

// liftModule decodes and annotates one module's procedures. It touches no
// program-wide state, so modules lift concurrently.
func liftModule(p *link.Program, m int, obj *objfile.Object) (*liftedModule, error) {
	lm := &liftedModule{}
	text := obj.Sections[objfile.SecText].Data
	rels := textRelocs(obj)

	// Procedures of this module in address order.
	var procSyms []int32
	for s := range obj.Symbols {
		if obj.Symbols[s].Kind == objfile.SymProc {
			procSyms = append(procSyms, int32(s))
		}
	}
	for i := 0; i < len(procSyms); i++ {
		for j := i + 1; j < len(procSyms); j++ {
			if obj.Symbols[procSyms[j]].Value < obj.Symbols[procSyms[i]].Value {
				procSyms[i], procSyms[j] = procSyms[j], procSyms[i]
			}
		}
	}

	covered := uint64(0)
	for _, s := range procSyms {
		sym := &obj.Symbols[s]
		if sym.Value != covered {
			return nil, fmt.Errorf("om: lift %s: gap before procedure %s (%#x..%#x)",
				obj.Name, sym.Name, covered, sym.Value)
		}
		covered = sym.End

		pr := &Proc{Mod: m, Sym: s, Name: sym.Name, Exported: sym.Exported}
		base := sym.Value
		n := int((sym.End - sym.Value) / 4)
		// One contiguous slab per procedure, decoded in place: one object
		// per procedure rather than per instruction keeps the lift's
		// allocation count, and the collector's scanning, small.
		pr.Insts = make([]*SInst, n)
		backing := make([]SInst, n)
		for i := range backing {
			off := base + uint64(i*4)
			in, err := axp.Decode(objfile.Uint32At(text, off))
			if err != nil {
				return nil, fmt.Errorf("om: lift %s: at offset %#x: %w", obj.Name, off, err)
			}
			backing[i].In = in
			backing[i].Target = -1
			pr.Insts[i] = &backing[i]
		}
		// The procedure's relocations: procedures tile the text in address
		// order, so each one's relocations continue where the previous
		// procedure's ended.
		procRels := rels.upTo(obj, sym.End)

		// Pass 1: labels for intra-procedure branch targets. Lift gives an
		// instruction at most one label, so a target's existing label is
		// the one to share.
		cur := procRels
		for i, si := range pr.Insts {
			off := base + uint64(i*4)
			at := cur.at(obj, off)
			if !si.In.Op.IsBranch() || at.br != nil {
				continue
			}
			targetOff := int64(off) + 4 + int64(si.In.Disp)*4
			ti := (targetOff - int64(base)) / 4
			if ti < 0 || ti >= int64(n) {
				return nil, fmt.Errorf("om: lift %s: %s branch at +%#x leaves the procedure",
					obj.Name, sym.Name, off-base)
			}
			t := pr.Insts[ti]
			if len(t.Labels) == 0 {
				t.Labels = []int{pr.NewLabel()}
			}
			si.Target = int32(t.Labels[0])
		}

		// Pass 2: relocation annotations.
		sidxAt := func(off uint64) (*SInst, bool) {
			i := (int64(off) - int64(base)) / 4
			if i < 0 || i >= int64(n) {
				return nil, false
			}
			return pr.Insts[i], true
		}
		cur = procRels
		for i, si := range pr.Insts {
			off := base + uint64(i*4)
			at := cur.at(obj, off)
			if r := at.lit; r != nil {
				si.Lit = &LitInfo{Key: link.Key(p.Resolve(m, r.Symbol), r.Addend)}
			}
			if r := at.gpr; r != nil {
				// Optimistically compiled GP-relative reference: already
				// in OM's target form; re-anchor it to the final layout.
				si.GPRel = &GPRelInfo{
					Kind:  GPRelUseDirect,
					Key:   link.Key(p.Resolve(m, r.Symbol), 0),
					Extra: r.Addend,
				}
			}
			if r := at.use; r != nil {
				lit, ok := sidxAt(r.Extra)
				if !ok || lit.Lit == nil {
					return nil, fmt.Errorf("om: lift %s: %s: LITUSE at +%#x has no literal at +%#x",
						obj.Name, sym.Name, off-base, r.Extra-base)
				}
				si.Use = &UseInfo{Lit: lit, JSR: r.Kind == objfile.RLituseJSR}
				lit.Lit.Uses = append(lit.Lit.Uses, si)
				if si.Use.JSR {
					si.PVLit = lit
				}
			}
			if si.In.Op == axp.JSR && si.Use == nil {
				si.Indirect = true
			}
			if r := at.gpd; r != nil {
				lo, ok := sidxAt(r.Extra)
				if !ok {
					return nil, fmt.Errorf("om: lift %s: %s: GPDISP pair escapes procedure", obj.Name, sym.Name)
				}
				hi := si
				anchor := uint64(r.Addend)
				g := &GPDInfo{Partner: lo, High: true}
				if anchor == base {
					g.Entry = true
				} else {
					call, ok := sidxAt(anchor - 4)
					if !ok || !(call.In.Op == axp.JSR || call.In.Op == axp.BSR) {
						return nil, fmt.Errorf("om: lift %s: %s: GPDISP anchor +%#x is not after a call",
							obj.Name, sym.Name, anchor-base)
					}
					g.AfterCall = call
				}
				hi.GPD = g
				lo.GPD = &GPDInfo{Partner: hi}
			}
			if r := at.br; r != nil {
				lm.pending = append(lm.pending, pendingCall{
					inst: si, target: p.Resolve(m, r.Symbol), addend: r.Addend,
				})
			}
		}
		lm.procs = append(lm.procs, pr)
	}
	if covered != obj.Sections[objfile.SecText].Size {
		return nil, fmt.Errorf("om: lift %s: %#x bytes of text not covered by procedures",
			obj.Name, obj.Sections[objfile.SecText].Size-covered)
	}
	return lm, nil
}

// offsetRelocs indexes the text relocations lift reads (into obj.Relocs),
// stably sorted by offset: relocations at one offset keep their table order.
type offsetRelocs []int32

// textRelocs collects the text relocations of the kinds lift annotates.
func textRelocs(obj *objfile.Object) offsetRelocs {
	rels := make(offsetRelocs, 0, len(obj.Relocs))
	for i := range obj.Relocs {
		r := &obj.Relocs[i]
		if r.Section != objfile.SecText {
			continue
		}
		switch r.Kind {
		case objfile.RLiteral, objfile.RLituseBase, objfile.RLituseJSR,
			objfile.RGPDisp, objfile.RBrAddr, objfile.RGPRel16:
			rels = append(rels, int32(i))
		}
	}
	byOffset := func(a, b int32) int {
		return cmp.Compare(obj.Relocs[a].Offset, obj.Relocs[b].Offset)
	}
	if !slices.IsSortedFunc(rels, byOffset) {
		slices.SortStableFunc(rels, byOffset)
	}
	return rels
}

// upTo splits off the leading relocations with offsets below end, leaving
// the rest in *rels.
func (rels *offsetRelocs) upTo(obj *objfile.Object, end uint64) offsetRelocs {
	all := *rels
	k := 0
	for k < len(all) && obj.Relocs[all[k]].Offset < end {
		k++
	}
	*rels = all[k:]
	return all[:k]
}

// instRelocs holds the relocations lift reads at one instruction, one per
// role. LITUSE_BASE and LITUSE_JSR share the use role.
type instRelocs struct {
	lit, use, gpd, br, gpr *objfile.Reloc
}

// at consumes the leading relocations up to offset off, walking them as a
// cursor in instruction order, and returns those at off by role. When one
// offset carries two relocations of a role, the later in table order wins.
// Relocations below off (at no instruction boundary) are skipped.
func (rels *offsetRelocs) at(obj *objfile.Object, off uint64) instRelocs {
	var at instRelocs
	for len(*rels) > 0 {
		r := &obj.Relocs[(*rels)[0]]
		if r.Offset > off {
			break
		}
		*rels = (*rels)[1:]
		if r.Offset < off {
			continue
		}
		switch r.Kind {
		case objfile.RLiteral:
			at.lit = r
		case objfile.RLituseBase, objfile.RLituseJSR:
			at.use = r
		case objfile.RGPDisp:
			at.gpd = r
		case objfile.RBrAddr:
			at.br = r
		case objfile.RGPRel16:
			at.gpr = r
		}
	}
	return at
}
