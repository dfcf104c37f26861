package om

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/axp"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/progen"
	"repro/internal/rtlib"
	"repro/internal/spec"
	"repro/internal/tcc"
)

// requireLiftMatchesRef lifts every module of p with liftModule and with the
// map-indexed reference, and requires deep-equal symbolic forms (procedures,
// instructions, annotations and pending calls) or identical errors.
func requireLiftMatchesRef(t *testing.T, name string, p *link.Program) {
	t.Helper()
	for m, obj := range p.Objects {
		got, gerr := liftModule(p, m, obj)
		want, werr := liftModuleRef(p, m, obj)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s: module %s: lift error %v, reference %v", name, obj.Name, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: module %s: lifted form differs from the reference", name, obj.Name)
		}
	}
}

// TestLiftMatchesMapReference is the oracle for the offset-ordered
// relocation walk: on the nineteen SPEC programs and on progen programs at
// 1x and 4x, every module lifts to exactly the reference's symbolic form.
func TestLiftMatchesMapReference(t *testing.T) {
	for _, b := range spec.All() {
		requireLiftMatchesRef(t, b.Name, buildProgram(t, b.Modules))
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, scale := range []int{1, 4} {
			cfg := progen.DefaultConfig()
			cfg.FuncsPerMod *= scale
			name := fmt.Sprintf("progen seed %d %dx", seed, scale)
			requireLiftMatchesRef(t, name, buildProgram(t, progen.Generate(seed, cfg)))
		}
	}
}

// TestLiftRelocationOrderAndDuplicates lifts a hand-built module whose
// relocation table is out of offset order and carries duplicates at one
// offset: two LITERALs (the later names the slot lift keeps) and a
// LITUSE_BASE followed by a LITUSE_JSR (the JSR wins the shared use role).
func TestLiftRelocationOrderAndDuplicates(t *testing.T) {
	insts, _, err := axp.Assemble(`
	ldah  gp, 0(pv)
	lda   gp, 0(gp)
	ldq   t0, 0(gp)
	ldq   t1, 0(t0)
	ldq   pv, 8(gp)
	jsr   ra, (pv)
	ldah  gp, 0(ra)
	lda   gp, 0(gp)
	bsr   ra, +1
	ret   zero, (ra)
	ret   zero, (ra)
`)
	if err != nil {
		t.Fatal(err)
	}
	text, err := axp.EncodeAll(insts)
	if err != nil {
		t.Fatal(err)
	}
	o := objfile.New("hand")
	o.Sections[objfile.SecText] = objfile.Section{Data: text, Size: uint64(len(text))}
	o.Sections[objfile.SecData] = objfile.Section{Data: make([]byte, 16), Size: 16}
	o.Sections[objfile.SecLita] = objfile.Section{Data: make([]byte, 24), Size: 24}
	f := o.AddSymbol(objfile.Symbol{Name: "f", Kind: objfile.SymProc, Section: objfile.SecText, Value: 0, End: 40, Exported: true, UsesGP: true})
	g := o.AddSymbol(objfile.Symbol{Name: "g", Kind: objfile.SymProc, Section: objfile.SecText, Value: 40, End: 44, Exported: true})
	v := o.AddSymbol(objfile.Symbol{Name: "v", Kind: objfile.SymData, Section: objfile.SecData, Value: 0, Size: 8, Exported: true})
	w := o.AddSymbol(objfile.Symbol{Name: "w", Kind: objfile.SymData, Section: objfile.SecData, Value: 8, Size: 8, Exported: true})
	tx := objfile.SecText
	o.Relocs = []objfile.Reloc{
		{Kind: objfile.RGPDisp, Section: tx, Offset: 24, Symbol: f, Addend: 24, Extra: 28},
		{Kind: objfile.RBrAddr, Section: tx, Offset: 32, Symbol: g},
		{Kind: objfile.RLituseBase, Section: tx, Offset: 20, Symbol: -1, Extra: 16},
		{Kind: objfile.RLiteral, Section: tx, Offset: 16, Symbol: g, Extra: 2},
		{Kind: objfile.RLiteral, Section: tx, Offset: 8, Symbol: v, Extra: 0},
		{Kind: objfile.RLituseBase, Section: tx, Offset: 12, Symbol: -1, Extra: 8},
		{Kind: objfile.RLiteral, Section: tx, Offset: 8, Symbol: w, Extra: 1},
		{Kind: objfile.RLituseJSR, Section: tx, Offset: 20, Symbol: -1, Extra: 16},
		{Kind: objfile.RGPDisp, Section: tx, Offset: 0, Symbol: f, Addend: 0, Extra: 4},
		{Kind: objfile.RRefQuad, Section: objfile.SecLita, Offset: 0, Symbol: v},
		{Kind: objfile.RRefQuad, Section: objfile.SecLita, Offset: 8, Symbol: w},
		{Kind: objfile.RRefQuad, Section: objfile.SecLita, Offset: 16, Symbol: g},
	}
	p, err := link.Merge([]*objfile.Object{o})
	if err != nil {
		t.Fatal(err)
	}
	requireLiftMatchesRef(t, "hand-built", p)

	lm, err := liftModule(p, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	pf := lm.procs[0]
	if lit := pf.Insts[2].Lit; lit == nil || lit.Key != link.Key(p.Resolve(0, w), 0) {
		t.Errorf("duplicate LITERAL at +8: got %+v, want the later one (w)", lit)
	}
	if use := pf.Insts[3].Use; use == nil || use.Lit != pf.Insts[2] || use.JSR {
		t.Errorf("LITUSE_BASE at +12: got %+v", use)
	}
	if use := pf.Insts[5].Use; use == nil || !use.JSR || pf.Insts[5].PVLit != pf.Insts[4] {
		t.Errorf("LITUSE_BASE then LITUSE_JSR at +20: got %+v, want the JSR", use)
	}
	if gpd := pf.Insts[6].GPD; gpd == nil || gpd.AfterCall != pf.Insts[5] || gpd.Partner != pf.Insts[7] {
		t.Errorf("GPDISP after the call: got %+v", gpd)
	}
	if gpd := pf.Insts[0].GPD; gpd == nil || !gpd.Entry || gpd.Partner != pf.Insts[1] {
		t.Errorf("prologue GPDISP: got %+v", gpd)
	}
	if len(lm.pending) != 1 || lm.pending[0].inst != pf.Insts[8] || pf.Insts[8].Target != -1 {
		t.Errorf("BRADDR call: pending %+v, target %d", lm.pending, pf.Insts[8].Target)
	}
}

// TestMisalignedProcedureRejected moves the boundary between two compiled
// procedures by half an instruction. Lift decodes a procedure's instructions
// by word index but matches relocations by byte offset, so such a symbol
// table must be refused as malformed input before it reaches lift.
func TestMisalignedProcedureRejected(t *testing.T) {
	obj, err := tcc.Compile("prog", []tcc.Source{{Name: "prog", Text: testProgram}}, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	split := false
outer:
	for a := range obj.Symbols {
		for b := range obj.Symbols {
			sa, sb := &obj.Symbols[a], &obj.Symbols[b]
			if sa.Kind == objfile.SymProc && sb.Kind == objfile.SymProc && a != b && sa.End == sb.Value {
				sa.End -= 2
				sb.Value -= 2
				split = true
				break outer
			}
		}
	}
	if !split {
		t.Fatal("no adjacent procedures to split")
	}
	if err := obj.Validate(); !errors.Is(err, objfile.ErrBadSymbol) {
		t.Errorf("Validate: got %v, want ErrBadSymbol", err)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.Merge(append([]*objfile.Object{obj}, lib...)); !errors.Is(err, objfile.ErrBadSymbol) {
		t.Errorf("Merge: got %v, want ErrBadSymbol", err)
	}
}

// liftModuleRef is the map-indexed module lifter that liftModule replaced,
// kept verbatim as the oracle for the offset-ordered relocation walk: it
// indexes each relocation role in its own offset map, so a later duplicate
// at one offset overwrites an earlier one.
func liftModuleRef(p *link.Program, m int, obj *objfile.Object) (*liftedModule, error) {
	lm := &liftedModule{}
	text := obj.Sections[objfile.SecText].Data
	insts, err := axp.DecodeAll(text)
	if err != nil {
		return nil, fmt.Errorf("om: lift %s: %w", obj.Name, err)
	}
	// Index relocations by offset.
	litAt := make(map[uint64]*objfile.Reloc)
	useAt := make(map[uint64]*objfile.Reloc)
	gpdAt := make(map[uint64]*objfile.Reloc)
	brAt := make(map[uint64]*objfile.Reloc)
	gprAt := make(map[uint64]*objfile.Reloc)
	for i := range obj.Relocs {
		r := &obj.Relocs[i]
		if r.Section != objfile.SecText {
			continue
		}
		switch r.Kind {
		case objfile.RLiteral:
			litAt[r.Offset] = r
		case objfile.RLituseBase, objfile.RLituseJSR:
			useAt[r.Offset] = r
		case objfile.RGPDisp:
			gpdAt[r.Offset] = r
		case objfile.RBrAddr:
			brAt[r.Offset] = r
		case objfile.RGPRel16:
			gprAt[r.Offset] = r
		}
	}

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
		// One contiguous slab per procedure: emission walks the
		// instructions of resident memoized forms on every warm relink,
		// and the collector rescans them on every cycle, so locality and
		// object count matter more than in a one-shot link.
		pr.Insts = make([]*SInst, n)
		backing := make([]SInst, n)
		for i := 0; i < n; i++ {
			backing[i] = SInst{In: insts[int(base/4)+i], Target: -1}
			pr.Insts[i] = &backing[i]
		}

		// Pass 1: labels for intra-procedure branch targets.
		labelAt := make(map[int]int)
		for i, si := range pr.Insts {
			off := base + uint64(i*4)
			if !si.In.Op.IsBranch() {
				continue
			}
			if _, isCall := brAt[off]; isCall {
				continue
			}
			targetOff := int64(off) + 4 + int64(si.In.Disp)*4
			ti := (targetOff - int64(base)) / 4
			if ti < 0 || ti >= int64(n) {
				return nil, fmt.Errorf("om: lift %s: %s branch at +%#x leaves the procedure",
					obj.Name, sym.Name, off-base)
			}
			l, ok := labelAt[int(ti)]
			if !ok {
				l = pr.NewLabel()
				labelAt[int(ti)] = l
				pr.Insts[ti].Labels = append(pr.Insts[ti].Labels, l)
			}
			si.Target = l
		}

		// Pass 2: relocation annotations.
		sidxAt := func(off uint64) (*SInst, bool) {
			i := (int64(off) - int64(base)) / 4
			if i < 0 || i >= int64(n) {
				return nil, false
			}
			return pr.Insts[i], true
		}
		for i, si := range pr.Insts {
			off := base + uint64(i*4)
			if r, ok := litAt[off]; ok {
				si.Lit = &LitInfo{Key: link.Key(p.Resolve(m, r.Symbol), r.Addend)}
			}
			if r, ok := gprAt[off]; ok {
				// Optimistically compiled GP-relative reference: already
				// in OM's target form; re-anchor it to the final layout.
				si.GPRel = &GPRelInfo{
					Kind:  GPRelUseDirect,
					Key:   link.Key(p.Resolve(m, r.Symbol), 0),
					Extra: r.Addend,
				}
			}
			if r, ok := useAt[off]; ok {
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
			if r, ok := gpdAt[off]; ok {
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
			if r, ok := brAt[off]; ok {
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
