package tcc

import (
	"fmt"

	"repro/internal/axp"
	"repro/internal/objfile"
)

// MInst is one machine instruction under construction, carrying the symbolic
// annotations that become relocations at emission time.
type MInst struct {
	In axp.Inst

	// Labels lists intra-procedure labels attached to this instruction.
	Labels []int
	// Target is the intra-procedure label a branch jumps to, or -1.
	Target int

	// Lit marks this instruction as an address load from the GAT.
	Lit *LitRef
	// Use links a memory access or jsr to the address load feeding it.
	Use *UseRef
	// GPD marks one half of a GP-establishing ldah/lda pair.
	GPD *GPRef
	// CallSym makes this bsr/br a direct call to another procedure,
	// relocated by the linker (RBrAddr).
	CallSym string
	// CallLocalEntry targets the procedure's local entry point (skipping its
	// GP-setup pair), used for compile-time-optimized static calls.
	CallLocalEntry bool
	// CallID tags a jsr/bsr call site so post-call GP resets can anchor to it.
	CallID int
	// GPR marks the instruction as a direct GP-relative data reference
	// (optimistic compilation): the linker patches the 16-bit displacement
	// to Sym+Addend-GP or refuses to link.
	GPR *GPRelRef
	// FrameSlot, when >= 0, marks the displacement as a frame-slot reference
	// resolved once the final frame layout is known.
	FrameSlot int
	// Pinned instructions must not be moved by the scheduler.
	Pinned bool
}

// GPRelRef is a direct GP-relative reference to a small datum.
type GPRelRef struct {
	Sym    string
	Addend int64
}

// LitRef identifies a GAT slot by its target symbol.
type LitRef struct {
	ID     int // literal id, referenced by UseRef
	Sym    string
	Addend int64
}

// UseRef links an instruction to the address load whose result it consumes.
type UseRef struct {
	LitID int
	JSR   bool // true for the jsr through PV, false for load/store bases
}

// GPAnchor says what the base register of a GP-setup pair holds.
type GPAnchor uint8

const (
	// AnchorEntry: the base register (PV) holds the procedure entry address.
	AnchorEntry GPAnchor = iota
	// AnchorAfterCall: the base register (RA) holds the address of the
	// instruction following the call identified by CallID.
	AnchorAfterCall
)

// GPRef marks the ldah (High) or lda (!High) of a GP-establishing pair.
type GPRef struct {
	PairID int
	High   bool
	Anchor GPAnchor
	CallID int // for AnchorAfterCall
}

func newMInst(in axp.Inst) *MInst {
	return &MInst{In: in, Target: -1, FrameSlot: -1}
}

// Frag is the code of one procedure under construction.
type Frag struct {
	Name  string
	Insts []*MInst
	// LocalEntry is true when the procedure exposes a local entry point at
	// entry+8 (its GP-setup pair is pinned at the top).
	LocalEntry bool
}

// String renders the fragment for debugging.
func (f *Frag) String() string {
	s := f.Name + ":\n"
	for i, mi := range f.Insts {
		for _, l := range mi.Labels {
			s += fmt.Sprintf(".L%d:\n", l)
		}
		s += fmt.Sprintf("  %3d: %v", i, mi.In)
		if mi.Target >= 0 {
			s += fmt.Sprintf(" -> .L%d", mi.Target)
		}
		if mi.Lit != nil {
			s += fmt.Sprintf(" [lit %s%+d #%d]", mi.Lit.Sym, mi.Lit.Addend, mi.Lit.ID)
		}
		if mi.Use != nil {
			s += fmt.Sprintf(" [use #%d]", mi.Use.LitID)
		}
		if mi.GPD != nil {
			s += fmt.Sprintf(" [gpdisp %d]", mi.GPD.PairID)
		}
		if mi.CallSym != "" {
			s += fmt.Sprintf(" [call %s]", mi.CallSym)
		}
		s += "\n"
	}
	return s
}

// moduleBuilder accumulates the sections, symbols, and relocations of one
// object module as procedures are emitted into it.
type moduleBuilder struct {
	obj      *objfile.Object
	litaKeys map[litaKey]int // (sym,addend) -> slot
	litaTgts []litaKey
	symIdx   map[string]int32
}

type litaKey struct {
	sym    string
	addend int64
}

func newModuleBuilder(name string) *moduleBuilder {
	return &moduleBuilder{
		obj:      objfile.New(name),
		litaKeys: make(map[litaKey]int),
		symIdx:   make(map[string]int32),
	}
}

// symbolIndex interns a symbol-table entry by name, creating an undefined
// entry if the name has not been defined yet.
func (mb *moduleBuilder) symbolIndex(name string) int32 {
	if i, ok := mb.symIdx[name]; ok {
		return i
	}
	i := mb.obj.AddSymbol(objfile.Symbol{Name: name, Kind: objfile.SymUndef, Section: objfile.SecNone})
	mb.symIdx[name] = i
	return i
}

// defineSymbol fills in (or creates) the definition for name.
func (mb *moduleBuilder) defineSymbol(sym objfile.Symbol) int32 {
	if i, ok := mb.symIdx[sym.Name]; ok {
		prev := &mb.obj.Symbols[i]
		if prev.Kind != objfile.SymUndef {
			panic(fmt.Sprintf("tcc: duplicate definition of %s in module %s", sym.Name, mb.obj.Name))
		}
		*prev = sym
		return i
	}
	i := mb.obj.AddSymbol(sym)
	mb.symIdx[sym.Name] = i
	return i
}

// litaSlot interns a GAT slot for sym+addend and returns its index.
func (mb *moduleBuilder) litaSlot(sym string, addend int64) int {
	k := litaKey{sym, addend}
	if s, ok := mb.litaKeys[k]; ok {
		return s
	}
	s := len(mb.litaTgts)
	mb.litaKeys[k] = s
	mb.litaTgts = append(mb.litaTgts, k)
	return s
}

// finishLita materializes the .lita section and its REFQUAD relocations.
func (mb *moduleBuilder) finishLita() {
	lita := &mb.obj.Sections[objfile.SecLita]
	lita.Data = make([]byte, 8*len(mb.litaTgts))
	lita.Size = uint64(len(lita.Data))
	for slot, k := range mb.litaTgts {
		mb.obj.Relocs = append(mb.obj.Relocs, objfile.Reloc{
			Kind:    objfile.RRefQuad,
			Section: objfile.SecLita,
			Offset:  uint64(slot * 8),
			Symbol:  mb.symbolIndex(k.sym),
			Addend:  k.addend,
		})
	}
}

// dropIndirectUses clears every LITUSE link of a literal that has a use not
// reached directly by the load's register: a use behind a call or another
// write of that register reads a reloaded copy (tcc spills live temporaries
// across calls), so the loaded value also reaches an unmarked reader, the
// spill store. A linker trusting the remaining links would delete the load
// under that reader.
func dropIndirectUses(f *Frag) {
	litAt := make(map[int]int)
	for i, mi := range f.Insts {
		if mi.Lit != nil {
			litAt[mi.Lit.ID] = i
		}
	}
	indirect := make(map[int]bool)
	for i, mi := range f.Insts {
		if mi.Use == nil {
			continue
		}
		li, ok := litAt[mi.Use.LitID]
		if !ok {
			continue // emitFrag reports the dangling link
		}
		if li > i {
			indirect[mi.Use.LitID] = true
			continue
		}
		r := f.Insts[li].In.Ra
		for _, mj := range f.Insts[li+1 : i] {
			if op := mj.In.Op; op == axp.JSR || op == axp.BSR || mj.CallSym != "" || mj.In.Writes() == r {
				indirect[mi.Use.LitID] = true
				break
			}
		}
	}
	for _, mi := range f.Insts {
		if mi.Use != nil && indirect[mi.Use.LitID] {
			mi.Use = nil
		}
	}
}

// emitFrag appends the fragment to .text, producing the procedure symbol and
// all relocations. exported and usesGP describe the procedure.
func (mb *moduleBuilder) emitFrag(f *Frag, exported bool) error {
	dropIndirectUses(f)
	text := &mb.obj.Sections[objfile.SecText]
	base := uint64(len(text.Data))

	// Map labels and literal ids to instruction indices.
	labelAt := make(map[int]int)
	litAt := make(map[int]int)
	callAt := make(map[int]int)
	for i, mi := range f.Insts {
		for _, l := range mi.Labels {
			if prev, dup := labelAt[l]; dup {
				return fmt.Errorf("tcc: %s: label %d attached at %d and %d", f.Name, l, prev, i)
			}
			labelAt[l] = i
		}
		if mi.Lit != nil {
			litAt[mi.Lit.ID] = i
		}
		if mi.CallID > 0 && (mi.In.Op == axp.JSR || mi.In.Op == axp.BSR) {
			callAt[mi.CallID] = i
		}
	}

	off := func(i int) uint64 { return base + uint64(i*4) }

	usesGP := false
	for i, mi := range f.Insts {
		in := mi.In
		// Resolve intra-procedure branch displacements.
		if mi.Target >= 0 {
			ti, ok := labelAt[mi.Target]
			if !ok {
				return fmt.Errorf("tcc: %s: undefined label %d", f.Name, mi.Target)
			}
			in.Disp = int32(ti - (i + 1))
		}
		w, err := axp.Encode(in)
		if err != nil {
			return fmt.Errorf("tcc: %s: instruction %d: %w", f.Name, i, err)
		}
		var wb [4]byte
		objfile.PutUint32(wb[:], 0, w)
		text.Data = append(text.Data, wb[:]...)

		switch {
		case mi.GPR != nil:
			mb.obj.Relocs = append(mb.obj.Relocs, objfile.Reloc{
				Kind:    objfile.RGPRel16,
				Section: objfile.SecText,
				Offset:  off(i),
				Symbol:  mb.symbolIndex(mi.GPR.Sym),
				Addend:  mi.GPR.Addend,
			})
			usesGP = true
		case mi.Lit != nil:
			slot := mb.litaSlot(mi.Lit.Sym, mi.Lit.Addend)
			mb.obj.Relocs = append(mb.obj.Relocs, objfile.Reloc{
				Kind:    objfile.RLiteral,
				Section: objfile.SecText,
				Offset:  off(i),
				Symbol:  mb.symbolIndex(mi.Lit.Sym),
				Addend:  mi.Lit.Addend,
				Extra:   uint64(slot),
			})
		case mi.Use != nil:
			li, ok := litAt[mi.Use.LitID]
			if !ok {
				return fmt.Errorf("tcc: %s: lituse at %d references missing literal %d", f.Name, i, mi.Use.LitID)
			}
			kind := objfile.RLituseBase
			if mi.Use.JSR {
				kind = objfile.RLituseJSR
			}
			mb.obj.Relocs = append(mb.obj.Relocs, objfile.Reloc{
				Kind:    kind,
				Section: objfile.SecText,
				Offset:  off(i),
				Symbol:  -1,
				Extra:   off(li),
			})
		case mi.GPD != nil && mi.GPD.High:
			usesGP = true
			// Find the paired lda.
			lo := -1
			for j, mj := range f.Insts {
				if mj.GPD != nil && !mj.GPD.High && mj.GPD.PairID == mi.GPD.PairID {
					lo = j
					break
				}
			}
			if lo < 0 {
				return fmt.Errorf("tcc: %s: unpaired gpdisp %d", f.Name, mi.GPD.PairID)
			}
			var anchor uint64
			switch mi.GPD.Anchor {
			case AnchorEntry:
				anchor = base
			case AnchorAfterCall:
				ci, ok := callAt[mi.GPD.CallID]
				if !ok {
					return fmt.Errorf("tcc: %s: gpdisp %d references missing call %d", f.Name, mi.GPD.PairID, mi.GPD.CallID)
				}
				anchor = off(ci) + 4
			}
			mb.obj.Relocs = append(mb.obj.Relocs, objfile.Reloc{
				Kind:    objfile.RGPDisp,
				Section: objfile.SecText,
				Offset:  off(i),
				Symbol:  -1,
				Addend:  int64(anchor),
				Extra:   off(lo),
			})
		case mi.CallSym != "":
			var addend int64
			if mi.CallLocalEntry {
				addend = 8
			}
			mb.obj.Relocs = append(mb.obj.Relocs, objfile.Reloc{
				Kind:    objfile.RBrAddr,
				Section: objfile.SecText,
				Offset:  off(i),
				Symbol:  mb.symbolIndex(mi.CallSym),
				Addend:  addend,
			})
		}
	}

	text.Size = uint64(len(text.Data))
	mb.defineSymbol(objfile.Symbol{
		Name:     f.Name,
		Kind:     objfile.SymProc,
		Section:  objfile.SecText,
		Value:    base,
		End:      text.Size,
		Exported: exported,
		UsesGP:   usesGP,
	})
	return nil
}

// addData appends bytes to a data section at 8-byte alignment and returns
// the offset.
func (mb *moduleBuilder) addData(sec objfile.SectionKind, data []byte) uint64 {
	s := &mb.obj.Sections[sec]
	for len(s.Data)%8 != 0 {
		s.Data = append(s.Data, 0)
	}
	off := uint64(len(s.Data))
	s.Data = append(s.Data, data...)
	s.Size = uint64(len(s.Data))
	return off
}

// addBss reserves size bytes in a bss section and returns the offset.
func (mb *moduleBuilder) addBss(sec objfile.SectionKind, size uint64) uint64 {
	s := &mb.obj.Sections[sec]
	s.Size = (s.Size + 7) &^ 7
	off := s.Size
	s.Size += size
	return off
}
