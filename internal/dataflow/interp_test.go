package dataflow

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/axp"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/progen"
	"repro/internal/rtlib"
	"repro/internal/spec"
	"repro/internal/tcc"
)

// mustAnalyze is Analyze for a test: the fixpoint must converge.
func mustAnalyze(tb testing.TB, p *Program) *Report {
	tb.Helper()
	rep, err := Analyze(p)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// sourceObjects compiles each module on its own and appends the runtime
// library.
func sourceObjects(tb testing.TB, srcs []tcc.Source) []*objfile.Object {
	tb.Helper()
	var objs []*objfile.Object
	for _, m := range srcs {
		obj, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		objs = append(objs, obj)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		tb.Fatal(err)
	}
	return append(objs, lib...)
}

// stageModels links the objects at lvl and returns the dataflow models of
// the lifted program, the optimized program and the image, with their CFGs
// built, named by stage.
func stageModels(tb testing.TB, objs []*objfile.Object, lvl om.Level) ([]*Program, []string) {
	tb.Helper()
	p, err := link.Merge(objs)
	if err != nil {
		tb.Fatal(err)
	}
	var models []*Program
	var names []string
	res, err := om.Run(context.Background(), p, om.WithLevel(lvl),
		om.WithProgObserver(func(stage om.ProgStage, pg *om.Prog, pl *om.Plan) error {
			m, err := FromProg(pg, pl)
			models = append(models, m)
			names = append(names, string(stage))
			return err
		}))
	if err != nil {
		tb.Fatal(err)
	}
	im, err := FromImage(res.Image)
	if err != nil {
		tb.Fatal(err)
	}
	models = append(models, im)
	names = append(names, "image")
	for _, m := range models {
		for _, pr := range m.Procs {
			pr.BuildCFG()
		}
	}
	return models, names
}

// solveRoundRobin is the reference solver: every round re-analyzes every
// procedure from every block it has reached, until a round changes no
// entry state and no exit GP. The worklist solver must reach its
// fixpoint exactly.
func (ip *interp) solveRoundRobin() {
	for round := 0; round < ip.maxRounds; round++ {
		ip.allExit, ip.anyPreserve = ip.exitSummary()
		entry, exitGP := slices.Clone(ip.entry), slices.Clone(ip.exitGP)
		for i := range ip.p.Procs {
			ip.analyzeProc(i)
		}
		if slices.Equal(entry, ip.entry) && slices.Equal(exitGP, ip.exitGP) {
			return
		}
	}
}

// requireRoundRobinFixpoint solves p with the worklist and with the
// reference solver and requires the same fixpoint, procedure by procedure:
// entry states, exit GPs, block in-states and reached flags. It returns
// the worklist's interpretation.
func requireRoundRobinFixpoint(t *testing.T, name string, p *Program) *interp {
	t.Helper()
	got, want := newInterp(p), newInterp(p)
	if err := got.solve(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want.solveRoundRobin()
	for i, pr := range p.Procs {
		switch {
		case got.entry[i] != want.entry[i]:
			t.Errorf("%s: %s entry states differ", name, pr.Name)
		case got.exitGP[i] != want.exitGP[i]:
			t.Errorf("%s: %s exit GP %v, want %v", name, pr.Name, got.exitGP[i], want.exitGP[i])
		case !slices.Equal(got.blockIn[i], want.blockIn[i]):
			t.Errorf("%s: %s block in-states differ", name, pr.Name)
		case !slices.Equal(got.reached[i], want.reached[i]):
			t.Errorf("%s: %s reached blocks differ", name, pr.Name)
		}
	}
	return got
}

// TestWorklistMatchesRoundRobin is the oracle for the dirty-procedure
// worklist: on the nineteen suite programs and progen seeds 1-3 at 1x, 4x
// and 16x, linked at OM none, simple and full, every lifted, optimized and
// image model solves to exactly the round-robin fixpoint.
func TestWorklistMatchesRoundRobin(t *testing.T) {
	type program struct {
		name string
		srcs []tcc.Source
	}
	var progs []program
	for _, b := range spec.All() {
		progs = append(progs, program{b.Name, b.Modules})
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, scale := range []int{1, 4, 16} {
			cfg := progen.DefaultConfig()
			cfg.FuncsPerMod *= scale
			progs = append(progs, program{fmt.Sprintf("progen seed %d %dx", seed, scale), progen.Generate(seed, cfg)})
		}
	}
	models := 0
	for _, prog := range progs {
		objs := sourceObjects(t, prog.srcs)
		for _, lvl := range []om.Level{om.LevelNone, om.LevelSimple, om.LevelFull} {
			stages, names := stageModels(t, objs, lvl)
			for k, p := range stages {
				requireRoundRobinFixpoint(t, fmt.Sprintf("%s %v %s", prog.name, lvl, names[k]), p)
				models++
			}
		}
	}
	if want := len(progs) * 3 * 3; models != want {
		t.Fatalf("compared %d models, want %d", models, want)
	}
}

// TestFanCallerSeesLateExitGP builds the case the computed-call rule
// exists for. fan's computed call resolves through PV to mid, which fan
// does not call directly; mid's exit GP is settled only in round 2, by
// which time the meet of all exit GPs already holds that value, so
// allExit does not change. Only marking every computed caller dirty on any
// exit-GP change makes fan see mid's exit.
func TestFanCallerSeesLateExitGP(t *testing.T) {
	fan := synth(t,
		Inst{In: axp.MemInst(axp.LDQ, axp.PV, axp.GP, 0), LoadVal: &Value{Kind: KAddr, N: 1}},
		Inst{In: axp.JumpInst(axp.JSR, axp.RA, axp.PV), Call: true, Fan: true, BranchTo: -1},
		ret(),
	)
	mid := synth(t,
		Inst{In: axp.BranchInst(axp.BSR, axp.RA, 0), Call: true, Targets: []CallTarget{{Proc: 2}}, BranchTo: -1},
		ret(),
	)
	leaf := synth(t,
		Inst{In: axp.MemInst(axp.LDA, axp.GP, axp.Zero, 16)},
		ret(),
	)
	fan.Name, mid.Name, leaf.Name = "fan", "mid", "leaf"
	p := &Program{Source: "prog", Procs: []*Proc{fan, mid, leaf}, Clusters: 1}
	ip := requireRoundRobinFixpoint(t, "fan/mid/leaf", p)
	if want := (Value{Kind: KConst, C: 16}); ip.exitGP[0] != want {
		t.Errorf("fan exits with GP %v, want %v", ip.exitGP[0], want)
	}
}

// TestSolveRounds pins the worklist's round count on progen seeds 1-3 at
// 1x, 4x and 16x, for every stage at OM none and full: one round analyzes
// every procedure and a second re-analyzes the few whose inputs changed,
// far inside the lattice bound. A solver that needed the bound fails with
// ErrNoFixpoint: cut to one round, it does.
func TestSolveRounds(t *testing.T) {
	const want = 2
	for _, seed := range []int64{1, 2, 3} {
		for _, scale := range []int{1, 4, 16} {
			cfg := progen.DefaultConfig()
			cfg.FuncsPerMod *= scale
			objs := sourceObjects(t, progen.Generate(seed, cfg))
			for _, lvl := range []om.Level{om.LevelNone, om.LevelFull} {
				stages, names := stageModels(t, objs, lvl)
				for k, p := range stages {
					name := fmt.Sprintf("seed %d %dx %v %s", seed, scale, lvl, names[k])
					ip := newInterp(p)
					if err := ip.solve(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if ip.rounds != want {
						t.Errorf("%s: %d rounds, want %d", name, ip.rounds, want)
					}
					ip = newInterp(p)
					ip.maxRounds = want - 1
					if err := ip.solve(); !errors.Is(err, ErrNoFixpoint) {
						t.Errorf("%s: solve capped at %d rounds returned %v, want ErrNoFixpoint", name, want-1, err)
					}
				}
			}
		}
	}
}
