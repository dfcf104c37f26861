package link

import (
	"fmt"

	"repro/internal/axp"
	"repro/internal/objfile"
)

// GP addressing constants.
const (
	// GPOffset is the standard bias: GP = GAT start + GPOffset, so a 16-bit
	// signed displacement reaches the whole table.
	GPOffset = 32752
	// MaxGATSlots is the largest number of 8-byte slots one GAT can hold
	// while staying addressable from its GP.
	MaxGATSlots = (GPOffset + 32767) / 8
)

// SplitGPDisp splits a 32-bit displacement into the (high, low) pair of an
// ldah/lda sequence.
func SplitGPDisp(delta int64) (hi, lo int16, err error) {
	lo = int16(uint16(delta & 0xFFFF))
	h := (delta - int64(lo)) >> 16
	if h < -32768 || h > 32767 {
		return 0, 0, fmt.Errorf("link: GP displacement %#x out of 32-bit reach", delta)
	}
	return int16(h), lo, nil
}

// gatInfo is one global address table being assembled.
type gatInfo struct {
	slots []int32 // target ids
	start uint64
	gp    uint64
}

// Layout performs the standard link: GAT merging, address assignment, and
// relocation, producing an executable image.
func (p *Program) Layout() (*objfile.Image, error) {
	nmod := len(p.Objects)

	// --- Text bases, per region (static vs shared library).
	textBase := make([]uint64, nmod)
	tcur := [2]uint64{objfile.TextBase, objfile.SharedTextBase}
	for m, obj := range p.Objects {
		r := regionOf(p, m)
		tcur[r] = (tcur[r] + 15) &^ 15
		textBase[m] = tcur[r]
		tcur[r] += obj.Sections[objfile.SecText].Size
	}
	textEnd := [2]uint64{tcur[0], tcur[1]}

	// --- GAT assignment: merge module literal pools, starting a new GAT
	// when the current one would overflow its GP window.
	gplan, err := AssignGATs(p, nil)
	if err != nil {
		return nil, err
	}
	gats := make([]*gatInfo, len(gplan.Slots))
	for i, slots := range gplan.Slots {
		gats[i] = &gatInfo{slots: slots}
	}
	moduleGAT := gplan.ModuleGAT
	targets, err := TargetsOf(p)
	if err != nil {
		return nil, err
	}

	// --- Data layout per region: [GATs][sdata][sbss][data][commons][bss].
	// Small sections sit right after the GATs so GP-relative 16-bit
	// references (and OM's rewrites) can reach them; large data and commons
	// follow. Each region's data segment is one explicit blob.
	dcur := [2]uint64{objfile.DataBase, objfile.SharedDataBase}
	for gi, g := range gats {
		r := 0
		if gplan.GATShared[gi] {
			r = 1
		}
		g.start = dcur[r]
		g.gp = g.start + GPOffset
		dcur[r] += uint64(len(g.slots)) * 8
	}
	secBase := make([][objfile.NumSections]uint64, nmod)
	place := func(sec objfile.SectionKind) {
		for m, obj := range p.Objects {
			r := regionOf(p, m)
			dcur[r] = (dcur[r] + 7) &^ 7
			secBase[m][sec] = dcur[r]
			dcur[r] += obj.Sections[sec].Size
		}
	}
	place(objfile.SecSData)
	place(objfile.SecSBss)
	place(objfile.SecData)
	// Commons always belong to the static region (user program data).
	commonAddr := make([]uint64, len(p.Commons))
	for i, c := range p.Commons {
		dcur[0] = (dcur[0] + c.Align - 1) &^ (c.Align - 1)
		commonAddr[i] = dcur[0]
		dcur[0] += c.Size
	}
	place(objfile.SecBss)
	dataEnd := [2]uint64{(dcur[0] + 7) &^ 7, (dcur[1] + 7) &^ 7}
	// Refuse to materialize an implausible data segment: each input section
	// and common is individually bounded by objfile.Validate, but a module
	// set could still sum to an allocation no real program needs. The typed
	// error keeps corrupt-input handling classifiable end to end.
	const maxSegment = 1 << 31
	if dataEnd[0]-objfile.DataBase > maxSegment || dataEnd[1]-objfile.SharedDataBase > maxSegment {
		return nil, fmt.Errorf("link: %w: data segment exceeds %d bytes", objfile.ErrTooLarge, uint64(maxSegment))
	}

	// --- Address resolution helpers.
	addrOfDef := func(mod int, sym int32) (uint64, error) {
		s := &p.Objects[mod].Symbols[sym]
		switch s.Kind {
		case objfile.SymProc:
			return textBase[mod] + s.Value, nil
		case objfile.SymData:
			return secBase[mod][s.Section] + s.Value, nil
		}
		return 0, fmt.Errorf("link: address of non-definition %s", s.Name)
	}
	addrOfTarget := func(t Target, addend int64) (uint64, error) {
		if t.Kind == TCommon {
			if t.Common < 0 || int(t.Common) >= len(commonAddr) {
				return 0, fmt.Errorf("link: unplaced common %s", t.Name)
			}
			return commonAddr[t.Common] + uint64(addend), nil
		}
		a, err := addrOfDef(t.Mod, t.Sym)
		if err != nil {
			return 0, err
		}
		return a + uint64(addend), nil
	}

	// --- Build the data segment images (static and, if present, shared).
	dataBases := [2]uint64{objfile.DataBase, objfile.SharedDataBase}
	blobs := [2][]byte{
		make([]byte, dataEnd[0]-objfile.DataBase),
		make([]byte, dataEnd[1]-objfile.SharedDataBase),
	}
	putQuad := func(addr uint64, v uint64) {
		r := 0
		if addr >= objfile.SharedDataBase {
			r = 1
		}
		objfile.PutUint64(blobs[r], addr-dataBases[r], v)
	}
	keyAddr := func(k TargetKey) (uint64, error) {
		if k.Kind == TCommon {
			if k.Common < 0 || int(k.Common) >= len(commonAddr) {
				return 0, fmt.Errorf("link: unplaced common %s", k.Name)
			}
			return commonAddr[k.Common] + uint64(k.Addend), nil
		}
		a, err := addrOfDef(k.Mod, k.Sym)
		if err != nil {
			return 0, err
		}
		return a + uint64(k.Addend), nil
	}
	for _, g := range gats {
		for i, id := range g.slots {
			a, err := keyAddr(gplan.Keys[id])
			if err != nil {
				return nil, err
			}
			putQuad(g.start+uint64(i*8), a)
		}
	}
	for m, obj := range p.Objects {
		r := regionOf(p, m)
		for _, sec := range []objfile.SectionKind{objfile.SecSData, objfile.SecData} {
			copy(blobs[r][secBase[m][sec]-dataBases[r]:], obj.Sections[sec].Data)
		}
		for _, rel := range obj.Relocs {
			if rel.Kind != objfile.RRefQuad || rel.Section == objfile.SecLita {
				continue
			}
			a, err := addrOfTarget(p.Resolve(m, rel.Symbol), rel.Addend)
			if err != nil {
				return nil, err
			}
			putQuad(secBase[m][rel.Section]+rel.Offset, a)
		}
	}

	// --- Build the text segment images and apply text relocations.
	textBases := [2]uint64{objfile.TextBase, objfile.SharedTextBase}
	texts := [2][]byte{
		make([]byte, textEnd[0]-objfile.TextBase),
		make([]byte, textEnd[1]-objfile.SharedTextBase),
	}
	unop := axp.MustEncode(axp.Unop())
	for r := 0; r < 2; r++ {
		for i := uint64(0); i+4 <= uint64(len(texts[r])); i += 4 {
			objfile.PutUint32(texts[r], i, unop)
		}
	}
	for m, obj := range p.Objects {
		r := regionOf(p, m)
		copy(texts[r][textBase[m]-textBases[r]:], obj.Sections[objfile.SecText].Data)
	}
	for m, obj := range p.Objects {
		g := gats[moduleGAT[m]]
		region := regionOf(p, m)
		text := texts[region]
		mbase := textBase[m] - textBases[region]
		for _, r := range obj.Relocs {
			switch r.Kind {
			case objfile.RLiteral:
				slot := gplan.SlotOf[moduleGAT[m]][targets.Slots[m][r.Extra]]
				slotAddr := g.start + uint64(slot)*8
				disp := int64(slotAddr) - int64(g.gp)
				if disp < axp.MemDispMin || disp > axp.MemDispMax {
					return nil, fmt.Errorf("link: %s: GAT slot beyond GP reach", obj.Name)
				}
				patchMemDisp(text, mbase+r.Offset, int16(disp))
			case objfile.RGPDisp:
				anchor := textBase[m] + uint64(r.Addend)
				hi, lo, err := SplitGPDisp(int64(g.gp) - int64(anchor))
				if err != nil {
					return nil, fmt.Errorf("link: %s: %w", obj.Name, err)
				}
				patchMemDisp(text, mbase+r.Offset, hi)
				patchMemDisp(text, mbase+r.Extra, lo)
			case objfile.RGPRel16:
				// Optimistic compilation: the compiler assumed this datum
				// is GP-reachable; verify or refuse to link.
				target, err := addrOfTarget(p.Resolve(m, r.Symbol), r.Addend)
				if err != nil {
					return nil, err
				}
				disp := int64(target) - int64(g.gp)
				if disp < axp.MemDispMin || disp > axp.MemDispMax {
					sym := "?"
					if r.Symbol >= 0 {
						sym = p.Resolve(m, r.Symbol).Name
					}
					return nil, fmt.Errorf("link: %s: %s is beyond 16-bit GP reach (disp %d); too much small data — recompile with a lower -G threshold", obj.Name, sym, disp)
				}
				patchMemDisp(text, mbase+r.Offset, int16(disp))
			case objfile.RBrAddr:
				target, err := addrOfTarget(p.Resolve(m, r.Symbol), r.Addend)
				if err != nil {
					return nil, err
				}
				disp, ok := axp.BranchDispTo(textBase[m]+r.Offset, target)
				if !ok {
					return nil, fmt.Errorf("link: %s: branch at %#x cannot reach %#x",
						obj.Name, textBase[m]+r.Offset, target)
				}
				patchBranchDisp(text, mbase+r.Offset, disp)
			}
		}
	}

	// --- Entry point.
	entry, ok := p.FindProc(p.EntryName)
	if !ok {
		return nil, fmt.Errorf("link: entry symbol %s not found", p.EntryName)
	}
	entryAddr, err := addrOfDef(entry.Mod, entry.Sym)
	if err != nil {
		return nil, err
	}

	// --- Image symbols.
	im := &objfile.Image{
		Entry: entryAddr,
		Segments: []objfile.Segment{
			{Name: ".text", Addr: objfile.TextBase, Data: texts[0]},
			{Name: ".data", Addr: objfile.DataBase, Data: blobs[0]},
		},
	}
	if len(texts[1]) > 0 || len(blobs[1]) > 0 {
		im.Segments = append(im.Segments,
			objfile.Segment{Name: ".text.so", Addr: objfile.SharedTextBase, Data: texts[1]},
			objfile.Segment{Name: ".data.so", Addr: objfile.SharedDataBase, Data: blobs[1]},
		)
	}
	for m, obj := range p.Objects {
		for s := range obj.Symbols {
			sym := &obj.Symbols[s]
			switch sym.Kind {
			case objfile.SymProc:
				im.Symbols = append(im.Symbols, objfile.ImageSymbol{
					Name: sym.Name, Addr: textBase[m] + sym.Value,
					Size: sym.End - sym.Value, Kind: objfile.SymProc,
					GP: gats[moduleGAT[m]].gp,
				})
			case objfile.SymData:
				im.Symbols = append(im.Symbols, objfile.ImageSymbol{
					Name: sym.Name, Addr: secBase[m][sym.Section] + sym.Value,
					Size: sym.Size, Kind: objfile.SymData,
				})
			}
		}
	}
	for i, c := range p.Commons {
		im.Symbols = append(im.Symbols, objfile.ImageSymbol{
			Name: c.Name, Addr: commonAddr[i], Size: c.Size, Kind: objfile.SymData,
		})
	}
	for _, g := range gats {
		im.GATs = append(im.GATs, objfile.GATRange{
			Start: g.start, End: g.start + uint64(len(g.slots))*8, GP: g.gp,
		})
	}
	im.SortSymbols()
	if err := im.Validate(); err != nil {
		return nil, fmt.Errorf("link: %w", err)
	}
	return im, nil
}

// Link merges and lays out in one step.
func Link(objects []*objfile.Object) (*objfile.Image, error) {
	p, err := Merge(objects)
	if err != nil {
		return nil, err
	}
	return p.Layout()
}

// regionOf returns 0 for static modules, 1 for shared-library modules.
func regionOf(p *Program, m int) int {
	if p.IsShared(m) {
		return 1
	}
	return 0
}

// patchMemDisp overwrites the 16-bit displacement field of the memory-format
// instruction at byte offset off.
func patchMemDisp(text []byte, off uint64, disp int16) {
	w := objfile.Uint32At(text, off)
	w = (w &^ 0xFFFF) | uint32(uint16(disp))
	objfile.PutUint32(text, off, w)
}

// patchBranchDisp overwrites the 21-bit displacement field of the branch at
// byte offset off.
func patchBranchDisp(text []byte, off uint64, disp int32) {
	w := objfile.Uint32At(text, off)
	w = (w &^ 0x1FFFFF) | (uint32(disp) & 0x1FFFFF)
	objfile.PutUint32(text, off, w)
}
