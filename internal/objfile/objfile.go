// Package objfile defines the relocatable object format produced by the tcc
// compiler and consumed by the standard linker and by OM.
//
// The format is a simplified ECOFF: named sections (.text, .data, .sdata,
// .bss, .lita), a symbol table that records procedure boundaries and linkage,
// and relocation records. Crucially it carries the three relocation kinds the
// paper identifies as the "hints" that make link-time analysis tractable:
//
//   - R_LITERAL marks an address load (ldq rX, slot(gp)) and names the .lita
//     slot it reads.
//   - R_LITUSE links each use of a loaded address (the subsequent load, store,
//     or jsr) back to its address load.
//   - R_GPDISP marks the ldah/lda pair that establishes GP from a code
//     address (PV on entry, RA after a call).
package objfile

import (
	"fmt"
	"sync/atomic"
)

// SectionKind identifies one of the fixed sections of an object module.
type SectionKind uint8

const (
	SecText  SectionKind = iota // instructions
	SecData                     // initialized data
	SecSData                    // small initialized data (near-GAT candidates)
	SecBss                      // uninitialized data (size only)
	SecSBss                     // small uninitialized data
	SecLita                     // the module's global address table (GAT)
	NumSections
	// SecNone marks symbols not defined in any section (undefined/common).
	SecNone SectionKind = 0xFF
)

var sectionNames = [NumSections]string{".text", ".data", ".sdata", ".bss", ".sbss", ".lita"}

// String returns the conventional section name.
func (k SectionKind) String() string {
	if k < NumSections {
		return sectionNames[k]
	}
	if k == SecNone {
		return "*none*"
	}
	return fmt.Sprintf(".sec%d", uint8(k))
}

// IsBss reports whether the section has no file contents (size only).
func (k SectionKind) IsBss() bool { return k == SecBss || k == SecSBss }

// Section holds one section's contents. For bss sections Data is empty and
// Size gives the allocation size; otherwise Size == len(Data).
type Section struct {
	Data []byte
	Size uint64
}

// SymbolKind classifies symbol-table entries.
type SymbolKind uint8

const (
	SymProc   SymbolKind = iota // procedure in .text
	SymData                     // variable in a data/bss section
	SymCommon                   // uninitialized global without a home yet
	SymUndef                    // reference to a symbol in another module
)

// String returns the symbol-kind name.
func (k SymbolKind) String() string {
	switch k {
	case SymProc:
		return "proc"
	case SymData:
		return "data"
	case SymCommon:
		return "common"
	case SymUndef:
		return "undef"
	}
	return fmt.Sprintf("sym%d", uint8(k))
}

// Symbol is one symbol-table entry. For SymProc, Value and End delimit the
// procedure's half-open byte range within .text, and UsesGP records whether
// the procedure establishes GP in its prologue. For SymData, Value is the
// offset within Section. For SymCommon, Size is the required allocation and
// Align its alignment. SymUndef entries carry only a name.
type Symbol struct {
	Name     string
	Kind     SymbolKind
	Section  SectionKind
	Value    uint64
	End      uint64
	Size     uint64
	Align    uint64
	Exported bool
	UsesGP   bool
}

// RelocKind identifies a relocation action.
type RelocKind uint8

const (
	// RLiteral: the instruction at Offset is an address load ldq rX,?(gp).
	// Extra is the slot index within this module's .lita; Symbol/Addend
	// mirror the slot's target for convenience.
	RLiteral RelocKind = iota
	// RLituseBase: the instruction at Offset uses, as its base register, the
	// address loaded by the RLiteral whose instruction offset is Extra.
	RLituseBase
	// RLituseJSR: the jsr at Offset jumps through the PV loaded by the
	// RLiteral at Extra.
	RLituseJSR
	// RGPDisp: the ldah at Offset and the lda at Extra together add a 32-bit
	// displacement to a base register holding the final address of text
	// offset Addend (the anchor); the pair must be patched so the result is
	// the procedure's GP value.
	RGPDisp
	// RBrAddr: the branch at Offset targets Symbol+Addend (bytes).
	RBrAddr
	// RRefQuad: the 8 bytes at Offset in Section hold the address of
	// Symbol+Addend.
	RRefQuad
	// RGPRel16: the instruction at Offset addresses Symbol+Addend directly
	// through GP with a 16-bit displacement (optimistic compilation, like
	// the MIPS -G convention). The linker must verify reachability and
	// refuse to link otherwise.
	RGPRel16
)

// String returns the relocation-kind name.
func (k RelocKind) String() string {
	switch k {
	case RLiteral:
		return "LITERAL"
	case RLituseBase:
		return "LITUSE_BASE"
	case RLituseJSR:
		return "LITUSE_JSR"
	case RGPDisp:
		return "GPDISP"
	case RBrAddr:
		return "BRADDR"
	case RRefQuad:
		return "REFQUAD"
	case RGPRel16:
		return "GPREL16"
	}
	return fmt.Sprintf("reloc%d", uint8(k))
}

// Reloc is one relocation record. Offset is a byte offset within Section.
// Symbol indexes the module symbol table, or is -1 when unused.
type Reloc struct {
	Kind    RelocKind
	Section SectionKind
	Offset  uint64
	Symbol  int32
	Addend  int64
	Extra   uint64
}

// Object is one relocatable module.
type Object struct {
	Name     string
	Sections [NumSections]Section
	Symbols  []Symbol
	Relocs   []Reloc

	// hash memoizes the module's content address (see Hash). atomic.Value
	// rather than a mutex so an Object stays trivially copyable.
	hash atomic.Value
}

// New returns an empty object module with the given name.
func New(name string) *Object {
	return &Object{Name: name}
}

// AddSymbol appends sym and returns its index.
func (o *Object) AddSymbol(sym Symbol) int32 {
	o.Symbols = append(o.Symbols, sym)
	return int32(len(o.Symbols) - 1)
}

// FindSymbol returns the index of the first symbol with the given name, or -1.
func (o *Object) FindSymbol(name string) int32 {
	for i := range o.Symbols {
		if o.Symbols[i].Name == name {
			return int32(i)
		}
	}
	return -1
}

// LitaSlots returns the number of 8-byte GAT slots in the module.
func (o *Object) LitaSlots() int {
	return len(o.Sections[SecLita].Data) / 8
}

// Validate performs structural checks: section sizes, symbol ranges, and
// relocation targets. The linker and OM both call this on input modules.
func (o *Object) Validate() error {
	for k := SectionKind(0); k < NumSections; k++ {
		s := &o.Sections[k]
		if s.Size > maxBlob {
			return fmt.Errorf("%s: %w: section %v declares %d bytes", o.Name, ErrTooLarge, k, s.Size)
		}
		if k.IsBss() {
			if len(s.Data) != 0 {
				return fmt.Errorf("%s: %w: bss section %v has %d bytes of data", o.Name, ErrBadSection, k, len(s.Data))
			}
		} else if s.Size != uint64(len(s.Data)) {
			return fmt.Errorf("%s: %w: section %v size %d != data length %d", o.Name, ErrBadSection, k, s.Size, len(s.Data))
		}
	}
	if len(o.Sections[SecText].Data)%4 != 0 {
		return fmt.Errorf("%s: %w: .text length %d not instruction-aligned", o.Name, ErrBadSection, len(o.Sections[SecText].Data))
	}
	if len(o.Sections[SecLita].Data)%8 != 0 {
		return fmt.Errorf("%s: %w: .lita length %d not slot-aligned", o.Name, ErrBadSection, len(o.Sections[SecLita].Data))
	}
	for i, sym := range o.Symbols {
		// A declared alignment must be a power of two within reason: the
		// layout's rounding arithmetic ((addr+a-1) &^ (a-1)) is only sound
		// for powers of two, and a huge alignment would let one symbol
		// inflate the data segment without bound.
		if sym.Align != 0 && (sym.Align&(sym.Align-1) != 0 || sym.Align > maxAlign) {
			return fmt.Errorf("%s: %w: symbol %s alignment %d (want a power of two <= %d)",
				o.Name, ErrBadSymbol, sym.Name, sym.Align, maxAlign)
		}
		switch sym.Kind {
		case SymProc:
			if sym.Section != SecText {
				return fmt.Errorf("%s: %w: proc %s not in .text", o.Name, ErrBadSymbol, sym.Name)
			}
			if sym.End < sym.Value || sym.End > o.Sections[SecText].Size {
				return fmt.Errorf("%s: %w: proc %s range [%d,%d) outside .text (%d bytes)",
					o.Name, ErrBadSymbol, sym.Name, sym.Value, sym.End, o.Sections[SecText].Size)
			}
			if sym.Value%4 != 0 || sym.End%4 != 0 {
				return fmt.Errorf("%s: %w: proc %s range [%d,%d) not instruction-aligned",
					o.Name, ErrBadSymbol, sym.Name, sym.Value, sym.End)
			}
		case SymData:
			if sym.Section >= NumSections {
				return fmt.Errorf("%s: %w: data symbol %s in bad section", o.Name, ErrBadSymbol, sym.Name)
			}
			size := o.Sections[sym.Section].Size
			if sym.Value > size || sym.Size > size-sym.Value {
				return fmt.Errorf("%s: %w: data symbol %s [%d,+%d) outside %v",
					o.Name, ErrBadSymbol, sym.Name, sym.Value, sym.Size, sym.Section)
			}
		case SymCommon:
			if sym.Size == 0 {
				return fmt.Errorf("%s: %w: common %s has zero size", o.Name, ErrBadSymbol, sym.Name)
			}
			if sym.Size > maxBlob {
				return fmt.Errorf("%s: %w: common %s declares %d bytes", o.Name, ErrTooLarge, sym.Name, sym.Size)
			}
		case SymUndef:
			// name only
		default:
			return fmt.Errorf("%s: %w: symbol %d has unknown kind %v", o.Name, ErrBadSymbol, i, sym.Kind)
		}
	}
	for i, r := range o.Relocs {
		if r.Symbol >= int32(len(o.Symbols)) || r.Symbol < -1 {
			return fmt.Errorf("%s: %w: reloc %d references symbol %d of %d", o.Name, ErrBadReloc, i, r.Symbol, len(o.Symbols))
		}
		var sec SectionKind
		switch r.Kind {
		case RLiteral, RLituseBase, RLituseJSR, RGPDisp, RBrAddr, RGPRel16:
			sec = SecText
			if r.Section != SecText {
				return fmt.Errorf("%s: %w: reloc %d (%v) not in .text", o.Name, ErrBadReloc, i, r.Kind)
			}
			if r.Offset%4 != 0 {
				return fmt.Errorf("%s: %w: reloc %d (%v) misaligned offset %d", o.Name, ErrBadReloc, i, r.Kind, r.Offset)
			}
		case RRefQuad:
			sec = r.Section
			if sec >= NumSections || sec.IsBss() || sec == SecText {
				return fmt.Errorf("%s: %w: reloc %d REFQUAD in %v", o.Name, ErrBadReloc, i, sec)
			}
			if r.Offset%8 != 0 {
				return fmt.Errorf("%s: %w: reloc %d REFQUAD misaligned offset %d", o.Name, ErrBadReloc, i, r.Offset)
			}
		default:
			return fmt.Errorf("%s: %w: reloc %d has unknown kind %v", o.Name, ErrBadReloc, i, r.Kind)
		}
		if r.Offset >= o.Sections[sec].Size && !(r.Offset == 0 && o.Sections[sec].Size == 0) {
			return fmt.Errorf("%s: %w: reloc %d (%v) offset %d outside %v (%d bytes)",
				o.Name, ErrBadReloc, i, r.Kind, r.Offset, sec, o.Sections[sec].Size)
		}
		// Resolving kinds dereference Symbol; Extra indexes a structure the
		// consumer trusts. Both must be bounded here so the linker and OM can
		// index without rechecking.
		switch r.Kind {
		case RLiteral:
			if r.Symbol < 0 {
				return fmt.Errorf("%s: %w: reloc %d LITERAL without a symbol", o.Name, ErrBadReloc, i)
			}
			if r.Extra >= uint64(o.LitaSlots()) {
				return fmt.Errorf("%s: %w: reloc %d LITERAL slot %d of %d", o.Name, ErrBadReloc, i, r.Extra, o.LitaSlots())
			}
		case RLituseBase, RLituseJSR, RGPDisp:
			if r.Extra%4 != 0 || r.Extra >= o.Sections[SecText].Size {
				return fmt.Errorf("%s: %w: reloc %d (%v) partner offset %d outside .text (%d bytes)",
					o.Name, ErrBadReloc, i, r.Kind, r.Extra, o.Sections[SecText].Size)
			}
			if r.Kind == RGPDisp && (r.Addend < 0 || uint64(r.Addend) > o.Sections[SecText].Size) {
				return fmt.Errorf("%s: %w: reloc %d GPDISP anchor %d outside .text (%d bytes)",
					o.Name, ErrBadReloc, i, r.Addend, o.Sections[SecText].Size)
			}
		case RBrAddr, RGPRel16, RRefQuad:
			if r.Symbol < 0 {
				return fmt.Errorf("%s: %w: reloc %d (%v) without a symbol", o.Name, ErrBadReloc, i, r.Kind)
			}
		}
	}
	return nil
}

// maxAlign bounds a symbol's declared alignment (a corruption guard: layout
// rounds addresses up to the alignment, so an absurd value would inflate the
// image).
const maxAlign = 1 << 20
