package dataflow

import (
	"fmt"
	"sort"

	"repro/internal/axp"
	"repro/internal/objfile"
)

// FromImage builds the unified model by decoding a fully linked
// executable: procedure extents from the symbol table, GP values and slot
// contents from the image's global address tables. Everything is concrete
// here — the analysis runs in KConst and checks the very bytes the
// simulator would execute.
//
// The front-end also proves the image's structure (DF009): it validates,
// its entry is a procedure entry, every procedure's GP names a GAT, every
// text word decodes, and every branch lands in text. Every GAT slot, loaded
// or not, gets the DF007 audit. An image that fails validation or decoding
// yields that one finding and no procedures.
func FromImage(im *objfile.Image) (*Program, error) {
	p := &Program{Source: "image", Clusters: len(im.GATs)}
	broken := func(id, proc string, addr uint64, format string, args ...any) {
		p.Extra = append(p.Extra, Finding{ID: id, Proc: proc, Addr: addr, Detail: fmt.Sprintf(format, args...)})
	}
	if err := im.Validate(); err != nil {
		broken("DF009", "", im.Entry, "%v", err)
		return p, nil
	}
	texts := im.TextSegments()
	code := make([][]axp.Inst, len(texts))
	for k, t := range texts {
		insts, err := axp.DecodeAll(t.Data)
		if err != nil {
			broken("DF009", "", t.Addr, "%s does not decode: %v", t.Name, err)
			return p, nil
		}
		code[k] = insts
	}

	p.GPValue = make([]uint64, len(im.GATs))
	for k, g := range im.GATs {
		p.GPValue[k] = g.GP
	}
	clusterOf := func(gp uint64) int {
		for k, g := range im.GATs {
			if g.GP == gp {
				return k
			}
		}
		return -1
	}
	// quadAt reads an initialized quadword from the image.
	quadAt := func(addr uint64) (uint64, bool) {
		for i := range im.Segments {
			sg := &im.Segments[i]
			if addr >= sg.Addr && addr+8 <= sg.Addr+uint64(len(sg.Data)) {
				return objfile.Uint64At(sg.Data, addr-sg.Addr), true
			}
		}
		return 0, false
	}
	inGAT := func(addr uint64) bool {
		for _, g := range im.GATs {
			if addr >= g.Start && addr+8 <= g.End {
				return true
			}
		}
		return false
	}
	inImage := func(addr uint64) bool {
		for i := range im.Segments {
			sg := &im.Segments[i]
			if addr >= sg.Addr && addr <= sg.End() {
				return true
			}
		}
		return false
	}
	inText := func(addr uint64) bool {
		for _, t := range texts {
			if addr >= t.Addr && addr < t.End() {
				return true
			}
		}
		return false
	}

	var syms []objfile.ImageSymbol
	for _, s := range im.Symbols {
		if s.Kind == objfile.SymProc && s.Size > 0 {
			syms = append(syms, s)
		}
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].Addr < syms[j].Addr })

	for _, s := range syms {
		seg := -1
		for k, t := range texts {
			if s.Addr >= t.Addr && s.Addr+s.Size <= t.Addr+uint64(len(t.Data)) {
				seg = k
				break
			}
		}
		if seg < 0 {
			return nil, fmt.Errorf("dataflow: %s [%#x,%#x) outside every text segment",
				s.Name, s.Addr, s.Addr+s.Size)
		}
		off := s.Addr - texts[seg].Addr
		if off%4 != 0 || s.Size%4 != 0 {
			return nil, fmt.Errorf("dataflow: %s [%#x,%#x) is not word-aligned",
				s.Name, s.Addr, s.Addr+s.Size)
		}
		insts := code[seg][off/4 : (off+s.Size)/4]

		dp := &Proc{
			Name:    s.Name,
			Addr:    s.Addr,
			Cluster: clusterOf(s.GP),
			Code:    make([]Inst, len(insts)),
		}
		if dp.Cluster < 0 && s.GP != 0 && len(im.GATs) > 0 {
			broken("DF009", s.Name, s.Addr, "procedure GP %#x matches no GAT", s.GP)
		}
		dp.PairAtEntry = len(insts) > 1 &&
			insts[0].Op == axp.LDAH && insts[0].Ra == axp.GP && insts[0].Rb == axp.PV &&
			insts[1].Op == axp.LDA && insts[1].Ra == axp.GP && insts[1].Rb == axp.GP

		for i, in := range insts {
			inst := &dp.Code[i]
			inst.In = in
			inst.Addr = s.Addr + uint64(4*i)
			inst.BranchTo = -1
			inst.SetsGP, inst.SetsGPHi, inst.GPAnchor = -1, -1, -1

			switch {
			case in.Op == axp.JSR:
				inst.Call = true
				inst.Fan = true
			case in.Op == axp.BSR:
				inst.Call = true // targets resolved once every extent is known
			case in.Op == axp.RET:
				inst.Ret = true
			case in.Op == axp.CALLPAL && in.PalFn == axp.PalHalt:
				inst.Halt = true
			case in.Op.IsBranch():
				t := axp.BranchTarget(in, inst.Addr)
				if t >= s.Addr && t < s.Addr+s.Size {
					inst.BranchTo = int((t - s.Addr) / 4)
				} else if !inText(t) {
					broken("DF009", s.Name, inst.Addr, "%s targets %#x outside text", in.Op, t)
				}
			}
		}
		p.Procs = append(p.Procs, dp)
	}
	if i, off := p.ProcByAddr(im.Entry); i < 0 || off != 0 {
		broken("DF009", "", im.Entry, "entry %#x is not a procedure entry", im.Entry)
	}

	// The GAT is the image's only read-only address table; loads through it
	// produce known constants. Mutable data stays ⊤.
	p.SlotValue = func(addr uint64) (Value, bool) {
		if !inGAT(addr) {
			return Value{}, false
		}
		q, ok := quadAt(addr)
		if !ok {
			return Value{}, false
		}
		return Value{Kind: KConst, C: q}, true
	}
	// slotFault audits one GAT slot; empty means sound.
	slotFault := func(slot uint64) string {
		c, ok := quadAt(slot)
		switch {
		case !ok:
			return fmt.Sprintf("GAT slot %#x is uninitialized", slot)
		case inText(c):
			if ti, _ := p.ProcByAddr(c); ti < 0 {
				return fmt.Sprintf("GAT slot %#x holds %#x, inside text but not a procedure entry", slot, c)
			}
		case !inImage(c):
			return fmt.Sprintf("GAT slot %#x holds %#x, outside the image", slot, c)
		}
		return ""
	}

	// Second pass, with every extent and entry pair known: resolve bsr
	// targets and classify GAT address loads.
	loaded := make(map[uint64]bool)
	for _, dp := range p.Procs {
		gp := uint64(0)
		if dp.Cluster >= 0 {
			gp = p.GPValue[dp.Cluster]
		}
		for i := range dp.Code {
			inst := &dp.Code[i]
			in := inst.In
			switch {
			case in.Op == axp.BSR:
				t := axp.BranchTarget(in, inst.Addr)
				if ti, off := p.ProcByAddr(t); ti >= 0 {
					inst.Targets = []CallTarget{{Proc: ti, Off: off}}
				} else {
					broken("DF005", dp.Name, inst.Addr, "bsr targets %#x, not a procedure entry", t)
				}
			case in.Op == axp.LDQ && in.Rb == axp.GP && dp.Cluster >= 0:
				slot := gp + uint64(int64(in.Disp))
				if !inGAT(slot) {
					break
				}
				loaded[slot] = true
				inst.LitLoad = true
				inst.LitDetail = slotFault(slot)
				inst.LitSlotOK = inst.LitDetail == ""
			}
		}
	}
	// Slots nothing loads are audited too: a broken one is a latent fault
	// for any later rewrite that starts loading it.
	for _, g := range im.GATs {
		for slot := g.Start; slot+8 <= g.End; slot += 8 {
			if !loaded[slot] {
				if d := slotFault(slot); d != "" {
					broken("DF007", "", slot, "%s (not loaded)", d)
				}
			}
		}
	}
	return p, nil
}

// AnalyzeImage decodes a linked image and runs the full analysis.
func AnalyzeImage(im *objfile.Image) (*Report, error) {
	p, err := FromImage(im)
	if err != nil {
		return nil, err
	}
	return Analyze(p), nil
}
