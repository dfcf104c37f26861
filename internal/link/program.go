// Package link implements the traditional ("standard") linker of the
// reproduction: it merges relocatable modules, combines their GATs as
// literal pools (removing duplicate addresses and merging the individual
// GATs into one large GAT when possible), lays out memory, and resolves
// relocations into an executable image.
//
// The merged-but-not-yet-laid-out form (Program) is also the input to OM:
// the optimizer consumes the same resolved modules with relocations intact.
package link

import (
	"fmt"
	"sync/atomic"

	"repro/internal/objfile"
)

// TargetKind classifies what a resolved symbol reference points at.
type TargetKind uint8

const (
	// TDef is a procedure or data definition in some module.
	TDef TargetKind = iota
	// TCommon is a merged common block.
	TCommon
)

// Target is the resolution of one symbol reference.
type Target struct {
	Kind   TargetKind
	Mod    int   // defining module (TDef)
	Sym    int32 // symbol index within the defining module (TDef)
	Common int32 // index into Program.Commons (TCommon)
	Name   string
}

// Common is a merged common block (uninitialized exported data).
type Common struct {
	Name  string
	Size  uint64
	Align uint64
}

// Program is the set of merged modules with a resolved symbol space.
type Program struct {
	Objects []*objfile.Object
	// resolved[m][s] is the resolution of module m's symbol s.
	resolved [][]Target
	// Commons lists merged common blocks in first-appearance order.
	Commons []*Common
	// EntryName is the start symbol; defaults to "__start".
	EntryName string
	// Shared marks modules that belong to a dynamically-linked shared
	// library: their code and data are laid out in a far region with their
	// own global address tables, and no link-time optimizer may shorten
	// calls into them ("calls to dynamically linked library routines cannot
	// be optimized as statically linked calls can", §6). nil means all
	// modules are statically linked.
	Shared []bool

	// targets memoizes TargetsOf, which otherwise rescans every relocation
	// on each layout round of the OM fixpoint. It is an atomic.Value so a
	// merged Program stays safe to share read-only across concurrent links.
	targets atomic.Value
}

// IsShared reports whether module m is part of a shared library.
func (p *Program) IsShared(m int) bool {
	return p.Shared != nil && m < len(p.Shared) && p.Shared[m]
}

// MarkShared flags the named modules as dynamically linked. It is the one
// post-Merge mutation of a Program: callers sharing a Program across
// concurrent links must finish marking before the first Run.
func (p *Program) MarkShared(moduleNames ...string) {
	if p.Shared == nil {
		p.Shared = make([]bool, len(p.Objects))
	}
	for _, name := range moduleNames {
		for m, obj := range p.Objects {
			if obj.Name == name {
				p.Shared[m] = true
			}
		}
	}
}

// Resolve returns the resolution of module m's symbol s.
func (p *Program) Resolve(m int, s int32) Target { return p.resolved[m][s] }

// DefSymbol returns the defining objfile.Symbol for a TDef target.
func (p *Program) DefSymbol(t Target) *objfile.Symbol {
	return &p.Objects[t.Mod].Symbols[t.Sym]
}

// FindCommon returns the merged common with the given name.
func (p *Program) FindCommon(name string) *Common {
	for _, c := range p.Commons {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// FindProc locates an exported procedure definition by name.
func (p *Program) FindProc(name string) (Target, bool) {
	for m, obj := range p.Objects {
		for s := range obj.Symbols {
			sym := &obj.Symbols[s]
			if sym.Name == name && sym.Kind == objfile.SymProc {
				return Target{Kind: TDef, Mod: m, Sym: int32(s), Name: name}, true
			}
		}
	}
	return Target{}, false
}

// Merge validates and merges the modules, resolving every symbol reference.
// Resolution rules follow classic Unix linking: exported definitions win
// over commons; commons of the same name merge to the largest size; an
// undefined exported reference is an error.
func Merge(objects []*objfile.Object) (*Program, error) {
	p := &Program{Objects: objects, EntryName: "__start"}

	type def struct {
		mod int
		sym int32
	}
	exported := make(map[string]def)
	commons := make(map[string]*Common)

	for m, obj := range objects {
		if err := obj.Validate(); err != nil {
			return nil, fmt.Errorf("link: module %d: %w", m, err)
		}
		for s := range obj.Symbols {
			sym := &obj.Symbols[s]
			switch sym.Kind {
			case objfile.SymProc, objfile.SymData:
				if !sym.Exported {
					// Module-local; still must not collide with another
					// module's local of the same name, since names are the
					// global key for mangled statics.
					continue
				}
				if prev, ok := exported[sym.Name]; ok {
					return nil, fmt.Errorf("link: %s multiply defined (modules %s and %s)",
						sym.Name, objects[prev.mod].Name, obj.Name)
				}
				exported[sym.Name] = def{m, int32(s)}
			case objfile.SymCommon:
				c, ok := commons[sym.Name]
				if !ok {
					c = &Common{Name: sym.Name, Size: sym.Size, Align: max64(8, sym.Align)}
					commons[sym.Name] = c
					p.Commons = append(p.Commons, c)
				} else {
					c.Size = max64(c.Size, sym.Size)
					c.Align = max64(c.Align, sym.Align)
				}
			}
		}
	}

	// A definition anywhere suppresses the common of the same name.
	if len(p.Commons) > 0 {
		kept := p.Commons[:0]
		for _, c := range p.Commons {
			if _, defined := exported[c.Name]; !defined {
				kept = append(kept, c)
			}
		}
		p.Commons = kept
	}
	commonIdx := make(map[string]int32, len(p.Commons))
	for i, c := range p.Commons {
		commonIdx[c.Name] = int32(i)
	}

	// Resolve every symbol of every module.
	p.resolved = make([][]Target, len(objects))
	for m, obj := range objects {
		p.resolved[m] = make([]Target, len(obj.Symbols))
		for s := range obj.Symbols {
			sym := &obj.Symbols[s]
			switch sym.Kind {
			case objfile.SymProc, objfile.SymData:
				p.resolved[m][s] = Target{Kind: TDef, Mod: m, Sym: int32(s), Name: sym.Name}
			case objfile.SymCommon, objfile.SymUndef:
				if d, ok := exported[sym.Name]; ok {
					p.resolved[m][s] = Target{Kind: TDef, Mod: d.mod, Sym: d.sym, Name: sym.Name}
					continue
				}
				if c, ok := commonIdx[sym.Name]; ok {
					p.resolved[m][s] = Target{Kind: TCommon, Common: c, Name: sym.Name}
					continue
				}
				if sym.Kind == objfile.SymUndef {
					return nil, fmt.Errorf("link: undefined symbol %s (referenced from %s)", sym.Name, obj.Name)
				}
				// A common suppressed by a definition was handled above;
				// reaching here means the definition exists.
				p.resolved[m][s] = Target{Kind: TCommon, Common: -1, Name: sym.Name}
			}
		}
	}
	return p, nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// TargetKey returns a stable identity for a resolved target plus addend,
// used to deduplicate GAT slots.
type TargetKey struct {
	Kind   TargetKind
	Mod    int
	Sym    int32
	Common int32
	Name   string
	Addend int64
}

// Key builds the dedup key for target+addend. Name is carried for
// diagnostics on both kinds; (Mod, Sym) is the identity for definitions,
// Common for commons.
func Key(t Target, addend int64) TargetKey {
	if t.Kind == TCommon {
		return TargetKey{Kind: TCommon, Common: t.Common, Name: t.Name, Addend: addend}
	}
	return TargetKey{Kind: TDef, Mod: t.Mod, Sym: t.Sym, Name: t.Name, Addend: addend}
}
