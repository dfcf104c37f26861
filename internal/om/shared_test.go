package om

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/rtlib"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/tcc"
)

// sharedProgram builds a program whose math and util library modules are
// marked as a dynamically-linked shared library.
func sharedProgram(t *testing.T) *link.Program {
	t.Helper()
	user := `
long grid[32];
long total = 0;

long fill(long n) {
	long i;
	for (i = 0; i < n; i = i + 1) {
		grid[i] = lhash(i) % 100;   // lhash lives in the shared library
		total = total + grid[i];
	}
	return total;
}

long main() {
	fill(32);
	print(total);                  // print is statically linked
	print_fixed(dsqrt(total));     // dsqrt is in the shared library
	print(xrand() > 0);            // xrand too
	srand48(7);
	return 0;
}
`
	obj, err := tcc.Compile("user", []tcc.Source{{Name: "user", Text: user}}, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	p, err := link.Merge(append([]*objfile.Object{obj}, lib...))
	if err != nil {
		t.Fatal(err)
	}
	p.MarkShared("libmath", "libutil")
	return p
}

func TestSharedLibraryLayout(t *testing.T) {
	im, err := sharedProgram(t).Layout()
	if err != nil {
		t.Fatal(err)
	}
	if len(im.Segments) != 4 {
		t.Fatalf("expected 4 segments, got %d", len(im.Segments))
	}
	// Shared procedures land in the far region; static ones do not.
	dsqrt, ok := im.FindSymbol("dsqrt")
	if !ok || dsqrt.Addr < objfile.SharedTextBase {
		t.Errorf("dsqrt at %#x, want in shared text", dsqrt.Addr)
	}
	pr, ok := im.FindSymbol("print")
	if !ok || pr.Addr >= objfile.SharedTextBase {
		t.Errorf("print at %#x, want in static text", pr.Addr)
	}
	// Two GP domains, one per region.
	if len(im.GATs) < 2 {
		t.Fatalf("expected at least 2 GATs, got %d", len(im.GATs))
	}
	var haveShared, haveStatic bool
	for _, g := range im.GATs {
		if g.Start >= objfile.SharedDataBase {
			haveShared = true
		} else {
			haveStatic = true
		}
	}
	if !haveShared || !haveStatic {
		t.Error("expected GATs in both regions")
	}
	// Shared procedures carry the shared-region GP.
	if dsqrt.GP < objfile.SharedDataBase {
		t.Errorf("dsqrt GP %#x not in shared data region", dsqrt.GP)
	}
}

func TestSharedLibrarySemanticsAndConservatism(t *testing.T) {
	baseIm, err := sharedProgram(t).Layout()
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, baseIm)

	for _, cfg := range []struct {
		Level    Level
		Schedule bool
	}{
		{Level: LevelNone},
		{Level: LevelSimple},
		{Level: LevelFull},
		{Level: LevelFull, Schedule: true},
	} {
		res, err := Run(context.Background(), sharedProgram(t),
			WithLevel(cfg.Level), WithSchedule(cfg.Schedule))
		if err != nil {
			t.Fatalf("%v: %v", cfg.Level, err)
		}
		im, st := res.Image, res.Stats
		got := run(t, im)
		if fmt.Sprint(got.Output) != fmt.Sprint(want.Output) || got.Exit != want.Exit {
			t.Errorf("%v: output %v exit %d, want %v exit %d",
				cfg.Level, got.Output, got.Exit, want.Output, want.Exit)
		}
		if cfg.Level == LevelFull {
			// Cross-boundary calls must keep their jsr, PV load, and reset.
			if st.JSRAfter == 0 {
				t.Error("full: every jsr was converted despite the shared library")
			}
			if st.GPResetAfter == 0 {
				t.Error("full: every GP reset vanished despite the shared library")
			}
			if st.PVAfter <= st.IndirectCalls {
				t.Errorf("full: PV loads (%d) should exceed indirect calls (%d): shared-library calls keep theirs",
					st.PVAfter, st.IndirectCalls)
			}
		}
	}
}

func TestSharedLibraryStaticSideStillOptimized(t *testing.T) {
	// The statically linked part keeps its full benefit: intra-static calls
	// become bsr, static data goes GP-relative.
	res, err := Run(context.Background(), sharedProgram(t), WithLevel(LevelFull))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.AddrConverted+st.AddrNullified == 0 {
		t.Fatal("no address loads removed at all")
	}
	// GAT shrinks but cannot disappear: shared-library entries survive.
	if st.GATBytesAfter == 0 {
		t.Error("GAT empty: shared-library references should persist")
	}
	if st.GATBytesAfter >= st.GATBytesBefore {
		t.Errorf("GAT not reduced: %d -> %d", st.GATBytesBefore, st.GATBytesAfter)
	}
}

// TestSharedLibrarySuite links every benchmark with libmath and libutil
// marked shared at each level and runs it against the unoptimized layout.
// GAT reduction can empty the static GAT before the first shared module is
// assigned; the shared library must still get a GAT of its own, or the
// static procedures' GP moves into the shared data region and their
// GP-relative references stop fitting. The simulator runs one goroutine,
// so under the race detector, which slows it most, the test only links.
func TestSharedLibrarySuite(t *testing.T) {
	for _, b := range spec.All() {
		t.Run(b.Name, func(t *testing.T) {
			shared := func() *link.Program {
				p := buildProgram(t, b.Modules)
				p.MarkShared("libmath", "libutil")
				return p
			}
			base, err := shared().Layout()
			if err != nil {
				t.Fatal(err)
			}
			var want *sim.Result
			if !raceEnabled {
				want = run(t, base)
			}
			for _, level := range []Level{LevelNone, LevelSimple, LevelFull} {
				res, err := Run(context.Background(), shared(), WithLevel(level))
				if err != nil {
					t.Fatalf("%v: %v", level, err)
				}
				if want == nil {
					continue
				}
				if got := run(t, res.Image); fmt.Sprint(got.Exit, got.Output) != fmt.Sprint(want.Exit, want.Output) {
					t.Errorf("%v: exit %d output %v, want exit %d output %v",
						level, got.Exit, got.Output, want.Exit, want.Output)
				}
			}
		})
	}
}
