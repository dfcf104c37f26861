package om

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/axp"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/profile"
	"repro/internal/progen"
	"repro/internal/spec"
)

// TestStatsMatchReference is the oracle for lift-time before-statistics
// and map-free GAT planning. Every Run's Stats must equal what the
// map-based collectors this package used to run compute from the same
// program: collectBeforeRef on the pristine lifted form, the byte size of
// a map-deduplicated GAT assignment, and collectAfterRef on the final form
// under the final plan. Every plan the observer sees must also hold the
// same GATs, slot for slot, as the map-based assignment under a map-based
// liveness filter, and resolve every kept address load to the same slot.
// The programs are the golden-matrix benchmarks, progen seeds 1-3 at 4x, a
// program with a shared library, and one whose literal pools overflow a
// single GAT; the configurations are OM-none, OM-simple, OM-full,
// OM-full+sched, each ablation switch and OM-full with a profile.
func TestStatsMatchReference(t *testing.T) {
	type program struct {
		name string
		p    *link.Program
	}
	var programs []program
	for _, name := range []string{"spice", "compress"} {
		b, ok := spec.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %s", name)
		}
		programs = append(programs, program{name, buildProgram(t, b.Modules)})
	}
	for _, seed := range []int64{1, 2, 3} {
		cfg := progen.DefaultConfig()
		cfg.FuncsPerMod *= 4
		programs = append(programs, program{fmt.Sprintf("progen seed %d 4x", seed),
			buildProgram(t, progen.Generate(seed, cfg))})
	}
	programs = append(programs, program{"shared library", sharedProgram(t)})
	multi := multiGATProgram(t, 4200)
	if gat, err := link.AssignGATs(multi, nil); err != nil {
		t.Fatal(err)
	} else if len(gat.Slots) < 2 {
		t.Fatalf("multi-GAT program: %d GATs, want at least 2", len(gat.Slots))
	}
	programs = append(programs, program{"multi-GAT", multi})

	type config struct {
		name string
		opts []Option
	}
	configs := []config{
		{"none", []Option{WithLevel(LevelNone)}},
		{"simple", []Option{WithLevel(LevelSimple)}},
		{"full", []Option{WithLevel(LevelFull)}},
		{"full+sched", []Option{WithLevel(LevelFull), WithSchedule(true)}},
	}
	for _, ab := range Ablations() {
		configs = append(configs, config{"full" + ab.Name(), []Option{WithAblation(ab)}})
	}

	for _, prog := range programs {
		prof := syntheticProfile(t, prog.p)
		cfgs := append(configs, config{"full+profile", []Option{WithLevel(LevelFull), WithProfile(prof)}})
		for _, cfg := range cfgs {
			var want Stats
			plans := 0
			check := func(stage ProgStage, pg *Prog, pl *Plan) error {
				plans++
				gatBytes, err := requirePlanMatchesRef(pg, pl)
				if err != nil {
					return fmt.Errorf("%s plan: %w", stage, err)
				}
				switch stage {
				case StageLifted:
					// The lifted stage's plan is the unreduced assignment.
					collectBeforeRef(pg, &want)
					want.GATBytesBefore = gatBytes
				case StageOptimized:
					collectAfterRef(pg, &want)
					want.GATBytesAfter = gatBytes
				}
				return nil
			}
			res, err := Run(context.Background(), prog.p, append(cfg.opts, WithProgObserver(check))...)
			if err != nil {
				t.Fatalf("%s %s: %v", prog.name, cfg.name, err)
			}
			if plans != 2 {
				t.Fatalf("%s %s: observer saw %d plans, want 2", prog.name, cfg.name, plans)
			}
			if *res.Stats != want {
				t.Errorf("%s %s:\n got %+v\nwant %+v", prog.name, cfg.name, *res.Stats, want)
			}
		}
	}
}

// syntheticProfile weights every procedure of p by a fixed hash of its
// position and chains consecutive procedures with call edges, so
// profile-guided layout reorders the program.
func syntheticProfile(t *testing.T, p *link.Program) *profile.Profile {
	t.Helper()
	pg, err := Lift(p)
	if err != nil {
		t.Fatal(err)
	}
	prof := &profile.Profile{SchemaV: profile.Schema, Source: "synthetic"}
	seen := make(map[string]bool)
	var names []string
	for _, pr := range pg.Procs {
		if !seen[pr.Name] {
			seen[pr.Name] = true
			names = append(names, pr.Name)
		}
	}
	for i, name := range names {
		w := uint64(i*7919) % 101
		prof.Procs = append(prof.Procs, profile.ProcCount{Name: name, Entries: w, Weight: w * 3})
		if i > 0 && w%3 != 0 {
			prof.Edges = append(prof.Edges, profile.Edge{Caller: names[i-1], Callee: name, Weight: w})
		}
	}
	return prof
}

// requirePlanMatchesRef checks pl's GAT assignment against the map-based
// one under the plan's own policy, slot for slot, and that every address
// load still reading the GAT finds its target's slot. It returns the
// reference assignment's size in bytes.
func requirePlanMatchesRef(pg *Prog, pl *Plan) (uint64, error) {
	var keep func(m, slot int) bool
	if pl.opts.reduceGAT {
		keys, err := moduleKeysRef(pg.P)
		if err != nil {
			return 0, err
		}
		live := make([]map[link.TargetKey]bool, len(pg.P.Objects))
		for i := range live {
			live[i] = make(map[link.TargetKey]bool)
		}
		for _, pr := range pg.Procs {
			for _, si := range pr.Insts {
				if si.Deleted || si.Lit == nil || si.Lit.Converted || si.Lit.Nullified {
					continue
				}
				live[pr.Mod][si.Lit.Key] = true
			}
		}
		keep = func(m, slot int) bool { return live[m][keys[m][slot]] }
	}
	slots, moduleGAT, err := assignGATsRef(pg.P, keep)
	if err != nil {
		return 0, err
	}
	if len(slots) != len(pl.gat.Slots) {
		return 0, fmt.Errorf("%d GATs, reference %d", len(pl.gat.Slots), len(slots))
	}
	for g := range slots {
		if len(slots[g]) != len(pl.gat.Slots[g]) {
			return 0, fmt.Errorf("GAT %d: %d slots, reference %d", g, len(pl.gat.Slots[g]), len(slots[g]))
		}
		for i, k := range slots[g] {
			if got := pl.gat.Keys[pl.gat.Slots[g][i]]; got != k {
				return 0, fmt.Errorf("GAT %d slot %d: %+v, reference %+v", g, i, got, k)
			}
		}
	}
	for m, g := range moduleGAT {
		if pl.gat.ModuleGAT[m] != g {
			return 0, fmt.Errorf("module %d: GAT %d, reference %d", m, pl.gat.ModuleGAT[m], g)
		}
	}
	for _, pr := range pg.Procs {
		g := pl.GPGroup(pr)
		for _, si := range pr.Insts {
			if si.Lit == nil || si.Lit.Converted || si.Lit.Nullified {
				continue
			}
			want := -1
			for i, k := range slots[g] {
				if k == si.Lit.Key {
					want = i
					break
				}
			}
			addr, ok := pl.SlotAddr(g, si.Lit.ID)
			if !ok && want < 0 {
				continue
			}
			if !ok || want < 0 || addr != pl.gatStart[g]+uint64(want)*8 {
				return 0, fmt.Errorf("%s: slot of %+v at %#x (found %v), reference slot %d",
					pr.Name, si.Lit.Key, addr, ok, want)
			}
		}
	}
	var n uint64
	for _, s := range slots {
		n += uint64(len(s)) * 8
	}
	return n, nil
}

// moduleKeysRef extracts each module's literal-pool targets in slot order,
// as link.ModuleKeys did before targets were interned.
func moduleKeysRef(p *link.Program) ([][]link.TargetKey, error) {
	keys := make([][]link.TargetKey, len(p.Objects))
	for m, obj := range p.Objects {
		ks := make([]link.TargetKey, obj.LitaSlots())
		seen := make([]bool, obj.LitaSlots())
		for _, r := range obj.Relocs {
			if r.Kind == objfile.RRefQuad && r.Section == objfile.SecLita {
				slot := int(r.Offset / 8)
				ks[slot] = link.Key(p.Resolve(m, r.Symbol), r.Addend)
				seen[slot] = true
			}
		}
		for i, ok := range seen {
			if !ok {
				return nil, fmt.Errorf("link: module %s: GAT slot %d has no REFQUAD", obj.Name, i)
			}
		}
		keys[m] = ks
	}
	return keys, nil
}

// assignGATsRef is link.AssignGATs as it was before targets were interned:
// each GAT deduplicates its targets through a map keyed by TargetKey. It
// returns each GAT's targets in slot order and each module's GAT.
func assignGATsRef(p *link.Program, keep func(m, slot int) bool) ([][]link.TargetKey, []int, error) {
	moduleKeys, err := moduleKeysRef(p)
	if err != nil {
		return nil, nil, err
	}
	moduleGAT := make([]int, len(p.Objects))
	type gat struct {
		slots  []link.TargetKey
		index  map[link.TargetKey]int
		shared bool
	}
	g := &gat{index: make(map[link.TargetKey]int)}
	gats := []*gat{g}
	for m := range p.Objects {
		fresh := 0
		for s, k := range moduleKeys[m] {
			if keep != nil && !keep(m, s) {
				continue
			}
			if _, ok := g.index[k]; !ok {
				fresh++
			}
		}
		if (g.shared != p.IsShared(m) && len(g.slots) > 0) || len(g.slots)+fresh > link.MaxGATSlots {
			if fresh > link.MaxGATSlots {
				return nil, nil, fmt.Errorf("link: module %s needs %d GAT slots; max is %d",
					p.Objects[m].Name, fresh, link.MaxGATSlots)
			}
			g = &gat{index: make(map[link.TargetKey]int)}
			gats = append(gats, g)
		}
		g.shared = p.IsShared(m)
		moduleGAT[m] = len(gats) - 1
		for s, k := range moduleKeys[m] {
			if keep != nil && !keep(m, s) {
				continue
			}
			if _, ok := g.index[k]; !ok {
				g.index[k] = len(g.slots)
				g.slots = append(g.slots, k)
			}
		}
	}
	var slots [][]link.TargetKey
	for _, g := range gats {
		slots = append(slots, g.slots)
	}
	return slots, moduleGAT, nil
}

// collectBeforeRef is the pre-optimization collector lift replaced: one
// walk over the lifted form, with a map of reset-anchored calls per
// procedure.
func collectBeforeRef(pg *Prog, s *Stats) {
	for _, pr := range pg.Procs {
		resets := liveResetIndexRef(pr)
		for _, si := range pr.Insts {
			s.Instructions++
			if si.Lit != nil {
				s.AddressLoads++
			}
			if !isCallSite(si) {
				continue
			}
			s.CallSites++
			if si.Indirect {
				s.IndirectCalls++
			}
			if si.Indirect || si.PVLit != nil {
				s.PVBefore++
			}
			if si.In.Op == axp.JSR {
				s.JSRBefore++
			}
			if resets[si] {
				s.GPResetBefore++
			}
		}
	}
}

// collectAfterRef is collectAfter, less the GAT size, with the map of
// reset-anchored calls it used before instructions were looked up by
// ordinal.
func collectAfterRef(pg *Prog, s *Stats) {
	for _, pr := range pg.Procs {
		resets := liveResetIndexRef(pr)
		for _, si := range pr.Insts {
			if si.Lit != nil {
				if si.Lit.Converted {
					s.AddrConverted++
				} else if si.Lit.Nullified {
					s.AddrNullified++
				}
			}
			if si.Deleted {
				s.Deleted++
				continue
			}
			if si.In.IsNop() && si.In.Op == axp.BIS {
				s.Nullified++
			}
			if !isCallSite(si) {
				continue
			}
			if si.In.Op == axp.JSR {
				s.JSRAfter++
			}
			if pvStillNeeded(si) {
				s.PVAfter++
			}
			if resets[si] {
				s.GPResetAfter++
			}
		}
	}
}

// liveResetIndexRef maps each call instruction to whether a live GP-reset
// pair is anchored to it.
func liveResetIndexRef(pr *Proc) map[*SInst]bool {
	m := make(map[*SInst]bool)
	for _, si := range pr.Insts {
		if si.Deleted || si.GPD == nil || !si.GPD.High || si.GPD.Entry {
			continue
		}
		if !si.In.IsNop() {
			m[si.GPD.AfterCall] = true
		}
	}
	return m
}
