package spec

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/rtlib"
	"repro/internal/sim"
	"repro/internal/tcc"
)

// compileEach builds one object per module (the paper's compile-each mode).
func compileEach(t *testing.T, b Benchmark) []*objfile.Object {
	t.Helper()
	var objs []*objfile.Object
	for _, m := range b.Modules {
		obj, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: compile %s: %v", b.Name, m.Name, err)
		}
		objs = append(objs, obj)
	}
	return objs
}

// compileAll builds all modules as one interprocedurally optimized unit.
func compileAll(t *testing.T, b Benchmark) []*objfile.Object {
	t.Helper()
	obj, err := tcc.Compile(b.Name+"_all", b.Modules, tcc.InterprocOptions())
	if err != nil {
		t.Fatalf("%s: compile-all: %v", b.Name, err)
	}
	return []*objfile.Object{obj}
}

func withLib(t *testing.T, objs []*objfile.Object) []*objfile.Object {
	t.Helper()
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	return append(objs, lib...)
}

func TestAllBenchmarksRunIdenticallyEverywhere(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			eachObjs := withLib(t, compileEach(t, b))
			baseIm, err := link.Link(eachObjs)
			if err != nil {
				t.Fatalf("link: %v", err)
			}
			want, err := sim.Run(baseIm, sim.Config{MaxInstructions: 200_000_000})
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			if want.Exit != 0 {
				t.Fatalf("baseline exit = %d, output %v", want.Exit, want.Output)
			}
			if len(want.Output) == 0 {
				t.Fatal("benchmark produced no output")
			}

			check := func(label string, im *objfile.Image) {
				got, err := sim.Run(im, sim.Config{MaxInstructions: 200_000_000})
				if err != nil {
					t.Fatalf("%s run: %v", label, err)
				}
				if got.Exit != want.Exit || fmt.Sprint(got.Output) != fmt.Sprint(want.Output) {
					t.Errorf("%s: output %v exit %d, want %v exit %d",
						label, got.Output, got.Exit, want.Output, want.Exit)
				}
			}

			// compile-all must agree.
			allIm, err := link.Link(withLib(t, compileAll(t, b)))
			if err != nil {
				t.Fatalf("link compile-all: %v", err)
			}
			check("compile-all", allIm)

			// Every OM level on both compilation modes must agree.
			for _, mode := range []string{"each", "all"} {
				for _, cfg := range []struct {
					Level    om.Level
					Schedule bool
				}{
					{Level: om.LevelSimple},
					{Level: om.LevelFull},
					{Level: om.LevelFull, Schedule: true},
				} {
					var objs []*objfile.Object
					if mode == "each" {
						objs = withLib(t, compileEach(t, b))
					} else {
						objs = withLib(t, compileAll(t, b))
					}
					p, err := link.Merge(objs)
					if err != nil {
						t.Fatalf("merge (%s): %v", mode, err)
					}
					res, err := om.Run(context.Background(), p,
						om.WithLevel(cfg.Level), om.WithSchedule(cfg.Schedule))
					if err != nil {
						t.Fatalf("om %v (%s): %v", cfg.Level, mode, err)
					}
					check(fmt.Sprintf("%v/%s/sched=%v", cfg.Level, mode, cfg.Schedule), res.Image)
				}
			}
		})
	}
}

func TestBenchmarkRegistry(t *testing.T) {
	names := map[string]bool{}
	for i, b := range All() {
		if b.Name != suite[i].name {
			t.Errorf("suite entry %d is listed as %s but builds %s", i, suite[i].name, b.Name)
		}
		if names[b.Name] {
			t.Errorf("duplicate benchmark %s", b.Name)
		}
		names[b.Name] = true
		if len(b.Modules) < 3 {
			t.Errorf("%s has only %d modules; compile-each needs several", b.Name, len(b.Modules))
		}
		if b.Character == "" {
			t.Errorf("%s has no character description", b.Name)
		}
	}
	if len(names) != 19 {
		t.Errorf("suite has %d benchmarks, want 19", len(names))
	}
	if _, ok := ByName("spice"); !ok {
		t.Error("ByName(spice) failed")
	}
	if _, ok := ByName("gcc"); ok {
		t.Error("gcc should be absent (32-bit only, as in the paper)")
	}
}
