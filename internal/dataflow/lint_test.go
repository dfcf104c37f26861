package dataflow

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/rtlib"
	"repro/internal/tcc"
)

// lintFixture exercises every address-calculation shape the checks prove:
// global data in several sections, direct and indirect calls through the
// runtime, floating-point literals, and enough procedures to populate the
// call graph.
const lintFixture = `
long table[40];
long sum = 0;
double ratio = 1.5;
long pad[6];

long down(long a, long b) { return b - a; }

static long twist(long v) { return v * 5 + 1; }

long fill(long n) {
	long i;
	for (i = 0; i < n; i = i + 1) {
		table[i] = lhash(i + 3) % 89 + twist(i);
		sum = sum + table[i];
	}
	return sum;
}

long main() {
	fill(40);
	qsort8(table, 0, 39, down);
	print(issorted(table, 40, down));
	print(sum);
	print_fixed(ratio * 4.0);
	pad[2] = sum % 500;
	print(pad[2] + table[0]);
	return 0;
}
`

func fixtureObjects(t *testing.T) []*objfile.Object {
	t.Helper()
	obj, err := tcc.Compile("prog", []tcc.Source{{Name: "prog", Text: lintFixture}}, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	return append([]*objfile.Object{obj}, lib...)
}

// TestImageCleanAcrossLevels is the acceptance criterion's golden half:
// every optimization level's image analyzes to zero error findings.
func TestImageCleanAcrossLevels(t *testing.T) {
	objs := fixtureObjects(t)
	for _, lvl := range []om.Level{om.LevelNone, om.LevelSimple, om.LevelFull} {
		for _, sched := range []bool{false, true} {
			p, err := link.Merge(objs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := om.Run(context.Background(), p,
				om.WithLevel(lvl), om.WithSchedule(sched))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := AnalyzeImage(res.Image)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Errors() != 0 {
				for _, f := range rep.Findings {
					if f.Severity == SevError {
						t.Errorf("%v sched=%v: %s", lvl, sched, f.String())
					}
				}
				t.Fatalf("%v sched=%v: %d static errors on a golden image", lvl, sched, rep.Errors())
			}
			if rep.Checked == 0 {
				t.Fatalf("%v sched=%v: clean report proved zero check sites", lvl, sched)
			}
			if rep.Source != "image" {
				t.Fatalf("image report source %q", rep.Source)
			}
		}
	}
}

// TestProgObserverStages analyzes the symbolic form at both observer
// stages: the lifted program carries the redundant GP resets OM-full
// removes (the missed-optimization report), and both stages stay free of
// error findings.
func TestProgObserverStages(t *testing.T) {
	objs := fixtureObjects(t)
	p, err := link.Merge(objs)
	if err != nil {
		t.Fatal(err)
	}
	reports := map[om.ProgStage]*Report{}
	_, err = om.Run(context.Background(), p, om.WithLevel(om.LevelFull),
		om.WithProgObserver(func(stage om.ProgStage, pg *om.Prog, pl *om.Plan) error {
			rep, err := AnalyzeProg(pg, pl, string(stage))
			if err != nil {
				return err
			}
			reports[stage] = rep
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	lifted, optimized := reports[om.StageLifted], reports[om.StageOptimized]
	if lifted == nil || optimized == nil {
		t.Fatalf("observer stages missing: %v", reports)
	}
	for stage, rep := range reports {
		if rep.Errors() != 0 {
			for _, f := range rep.Findings {
				t.Logf("%s: %s", stage, f.String())
			}
			t.Fatalf("stage %s: %d error findings on a correct program", stage, rep.Errors())
		}
		if rep.Stage != string(stage) {
			t.Fatalf("report stage %q, want %q", rep.Stage, stage)
		}
	}
	// OM-full's GP-reset optimization removes what DF004 flags: the lifted
	// program must carry redundant resets and the optimized one must not.
	if n := lifted.ByID()["DF004"]; n == 0 {
		t.Fatal("lifted program reports no redundant GP resets to optimize")
	}
	if n := optimized.ByID()["DF004"]; n != 0 {
		t.Fatalf("optimized program still reports %d redundant GP resets", n)
	}
}

// TestFaultHookCaughtStatically is the acceptance criterion's adversarial
// half: the fault-injection hook (a kept address load silently deleted
// after the passes) must be caught by the program-level analysis alone —
// no simulator, no decision journal.
func TestFaultHookCaughtStatically(t *testing.T) {
	defer om.SetFaultHookForTesting(func(pg *om.Prog) { om.DeleteKeptLoad(pg) })()

	objs := fixtureObjects(t)
	p, err := link.Merge(objs)
	if err != nil {
		t.Fatal(err)
	}
	var post *Report
	_, err = om.Run(context.Background(), p, om.WithLevel(om.LevelFull),
		om.WithProgObserver(func(stage om.ProgStage, pg *om.Prog, pl *om.Plan) error {
			if stage != om.StageOptimized {
				return nil
			}
			rep, err := AnalyzeProg(pg, pl, string(stage))
			if err != nil {
				return err
			}
			post = rep
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if post == nil {
		t.Fatal("optimized-stage observer never fired")
	}
	if post.Errors() == 0 {
		t.Fatal("static analysis missed the injected fault")
	}
	if post.ByID()["DF008"] == 0 {
		t.Fatalf("fault not attributed to DF008 dangling-link: %v", post.ByID())
	}
}

// TestCheckCatalog pins the stable check IDs: removing or re-grading a
// check is a findings-document compatibility break.
func TestCheckCatalog(t *testing.T) {
	want := map[string]Severity{
		"DF001": SevError,
		"DF002": SevInfo,
		"DF003": SevInfo,
		"DF004": SevInfo,
		"DF005": SevError,
		"DF006": SevError,
		"DF007": SevError,
		"DF008": SevError,
		"DF009": SevError,
	}
	got := Checks()
	if len(got) != len(want) {
		t.Fatalf("catalog has %d checks, want %d", len(got), len(want))
	}
	for _, c := range got {
		sev, ok := want[c.ID]
		if !ok {
			t.Fatalf("unknown check %s in catalog", c.ID)
		}
		if c.Severity != sev {
			t.Fatalf("check %s severity %s, want %s", c.ID, c.Severity, sev)
		}
		if c.Name == "" || c.Doc == "" {
			t.Fatalf("check %s missing name or doc", c.ID)
		}
	}
}

func TestReportRoundTrip(t *testing.T) {
	objs := fixtureObjects(t)
	p, err := link.Merge(objs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := om.Run(context.Background(), p, om.WithLevel(om.LevelSimple))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeImage(res.Image)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.Checked != rep.Checked ||
		len(got.Findings) != len(rep.Findings) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, rep)
	}
	// A wrong schema must be rejected.
	if _, err := ReadReport(bytes.NewBufferString(`{"schema":"nope/v9"}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}
}
