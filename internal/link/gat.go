package link

import (
	"fmt"

	"repro/internal/objfile"
)

// GATPlan is the result of merging module literal pools into global address
// tables: which GAT each module uses, and which slot of its GAT holds each
// target. Targets appear as the dense ids of the Program's Targets, so
// module m's local slot s lives at SlotOf[ModuleGAT[m]][Targets.Slots[m][s]]
// (-1 when a keep filter dropped it).
type GATPlan struct {
	// Keys maps a target id to its target (the Program's Targets.Keys).
	Keys []TargetKey
	// Slots[g] lists GAT g's deduplicated target ids in slot order.
	Slots [][]int32
	// SlotOf[g][id] is target id's slot in GAT g, or -1 when GAT g does not
	// hold it.
	SlotOf [][]int32
	// ModuleGAT[m] is the GAT index serving module m.
	ModuleGAT []int
	// GATShared[g] marks tables belonging to shared-library modules; they
	// are laid out in the shared data region.
	GATShared []bool
}

// Targets interns the GAT targets of a Program: every distinct target plus
// addend that a literal-pool relocation names gets a dense int32 id, in
// order of first appearance (module order, then relocation order). GAT
// assignment and OM's layout plan index slices by these ids instead of
// hashing TargetKeys.
type Targets struct {
	// Keys[id] is the target with that id.
	Keys []TargetKey
	// Slots[m][s] is the id of module m's literal-pool slot s.
	Slots [][]int32
	// ids finds a target's id by identity (see ident).
	ids map[targetIdent]int32
}

// targetIdent is a target's identity without its Name: (module, symbol,
// addend) for a definition, (-1, common index, addend) for a common.
type targetIdent struct {
	mod, sym int32
	addend   int64
}

// ident returns k's identity. Merge resolves every common reference to a
// placed common, so a common's index identifies it.
func ident(k TargetKey) targetIdent {
	if k.Kind == TCommon {
		return targetIdent{mod: -1, sym: k.Common, addend: k.Addend}
	}
	return targetIdent{mod: int32(k.Mod), sym: k.Sym, addend: k.Addend}
}

// TargetsOf returns the Program's interned GAT targets. They depend only on
// the merged program, never on the optimization state, yet every layout
// round of the OM fixpoint needs them — so they are computed once per
// Program and memoized. Callers must treat the result as read-only.
func TargetsOf(p *Program) (*Targets, error) {
	if r, ok := p.targets.Load().(*targetsResult); ok {
		return r.t, r.err
	}
	t, err := computeTargets(p)
	p.targets.Store(&targetsResult{t, err})
	return t, err
}

// targetsResult caches one computation of TargetsOf on its Program.
type targetsResult struct {
	t   *Targets
	err error
}

// computeTargets scans every module's .lita relocations. A slot written by
// two relocations takes the later one.
func computeTargets(p *Program) (*Targets, error) {
	total := 0
	for _, obj := range p.Objects {
		total += obj.LitaSlots()
	}
	t := &Targets{
		Keys:  make([]TargetKey, 0, total),
		Slots: make([][]int32, len(p.Objects)),
		ids:   make(map[targetIdent]int32, total),
	}
	flat := make([]int32, total)
	for m, obj := range p.Objects {
		n := obj.LitaSlots()
		ids := flat[:n:n]
		flat = flat[n:]
		for i := range ids {
			ids[i] = -1
		}
		for _, r := range obj.Relocs {
			if r.Kind == objfile.RRefQuad && r.Section == objfile.SecLita {
				ids[r.Offset/8] = t.intern(Key(p.Resolve(m, r.Symbol), r.Addend))
			}
		}
		for i, id := range ids {
			if id < 0 {
				return nil, fmt.Errorf("link: module %s: GAT slot %d has no REFQUAD", obj.Name, i)
			}
		}
		t.Slots[m] = ids
	}
	return t, nil
}

// intern returns k's id, assigning the next one to a new target.
func (t *Targets) intern(k TargetKey) int32 {
	id := ident(k)
	if i, ok := t.ids[id]; ok {
		return i
	}
	i := int32(len(t.Keys))
	t.ids[id] = i
	t.Keys = append(t.Keys, k)
	return i
}

// ID returns the id of target k as named by an address load of module m
// whose LITERAL relocation points at literal-pool slot hint: the slot's
// target when it is k (always, in compiled code), else k's id found by
// identity. It returns -1 when no literal pool names k, or on a nil
// Targets.
func (t *Targets) ID(k TargetKey, m int, hint uint64) int32 {
	if t == nil {
		return -1
	}
	if slots := t.Slots[m]; hint < uint64(len(slots)) && ident(t.Keys[slots[hint]]) == ident(k) {
		return slots[hint]
	}
	if i, ok := t.ids[ident(k)]; ok {
		return i
	}
	return -1
}

// AssignGATs merges module literal pools into as few GATs as fit the GP
// window, deduplicating identical targets. keep, if non-nil, filters which
// module slots survive (GAT reduction): keep(m, slot) false drops the slot.
func AssignGATs(p *Program, keep func(m, slot int) bool) (*GATPlan, error) {
	t, err := TargetsOf(p)
	if err != nil {
		return nil, err
	}
	plan := &GATPlan{Keys: t.Keys, ModuleGAT: make([]int, len(p.Objects))}
	// The open GAT is the plan's last; slotOf is its SlotOf row.
	var slots, slotOf []int32
	open := func() {
		n := min(len(t.Keys), MaxGATSlots)
		buf := make([]int32, n+len(t.Keys))
		slots, slotOf = buf[:0:n], buf[n:]
		for i := range slotOf {
			slotOf[i] = -1
		}
		plan.Slots = append(plan.Slots, slots)
		plan.SlotOf = append(plan.SlotOf, slotOf)
		plan.GATShared = append(plan.GATShared, false)
	}
	open()
	for m := range p.Objects {
		ids := t.Slots[m]
		fresh := 0
		for s, id := range ids {
			if keep != nil && !keep(m, s) {
				continue
			}
			if slotOf[id] < 0 {
				fresh++
			}
		}
		// A shared library never shares a GAT with the static part (or with
		// a different library region), and tables split on overflow.
		g := len(plan.Slots) - 1
		if (plan.GATShared[g] != p.IsShared(m) && len(slots) > 0) ||
			len(slots)+fresh > MaxGATSlots {
			if fresh > MaxGATSlots {
				return nil, fmt.Errorf("link: module %s needs %d GAT slots; max is %d",
					p.Objects[m].Name, fresh, MaxGATSlots)
			}
			open()
			g++
		}
		plan.GATShared[g] = p.IsShared(m)
		plan.ModuleGAT[m] = g
		for s, id := range ids {
			if slotOf[id] < 0 && (keep == nil || keep(m, s)) {
				slotOf[id] = int32(len(slots))
				slots = append(slots, id)
			}
		}
		plan.Slots[g] = slots
	}
	return plan, nil
}
