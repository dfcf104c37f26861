package verify

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/rtlib"
	"repro/internal/tcc"
)

// fixture is a small program exercising every site category: cross-module
// calls, an indirect call through a function pointer, global and small
// data, doubles, and enough call depth for layout to matter.
const fixture = `
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

// fixtureObjects compiles the fixture plus the runtime library.
func fixtureObjects(t *testing.T) []*objfile.Object {
	t.Helper()
	obj, err := tcc.Compile("prog", []tcc.Source{{Name: "prog", Text: fixture}}, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	return append([]*objfile.Object{obj}, lib...)
}

// TestMatrixClean is the subsystem's core property: every cell of the
// golden level × sched × ablation × profile matrix must translation-
// validate with zero verdict failures.
func TestMatrixClean(t *testing.T) {
	objs := fixtureObjects(t)
	entries := RunMatrix(context.Background(), "fixture", objs, MatrixCells())
	if len(entries) != len(MatrixCells()) {
		t.Fatalf("got %d entries, want %d", len(entries), len(MatrixCells()))
	}
	for _, e := range entries {
		if e.Err != "" {
			t.Errorf("%s: %s", e.Cell, e.Err)
			continue
		}
		if e.Failed != 0 {
			t.Errorf("%s: %d/%d verdicts failed", e.Cell, e.Failed, e.Checked)
		}
		if e.Checked == 0 {
			t.Errorf("%s: validated nothing", e.Cell)
		}
	}
}

// TestVerdictCoverage pins the reason codes a full traced run must cover
// and the journal/verdict cross-check.
func TestVerdictCoverage(t *testing.T) {
	objs := fixtureObjects(t)
	r, err := RunCell(context.Background(), objs, Cell{Level: om.LevelFull}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check.Err(); err != nil {
		t.Fatal(err)
	}
	if err := r.Check.Verify.Check(); err != nil {
		t.Fatal(err)
	}
	if err := r.Check.Verify.CrossCheck(r.Journal); err != nil {
		t.Fatal(err)
	}
	for _, reason := range []string{
		om.ReasonAddrConvertedLDA,
		om.ReasonAddrNullifiedPV,
		om.ReasonCallConvertedNoProl,
		om.ReasonCallKeptIndirect,
		om.ReasonResetRemoved,
	} {
		if r.Check.Verify.ByReason[reason] == 0 {
			t.Errorf("full run covers no %s events (ByReason: %v)", reason, r.Check.Verify.ByReason)
		}
	}
}

// TestDocRoundTrip: CheckDoc's Write/ReadCheckDoc preserve the document,
// and ReadCheckDoc rejects foreign schemas, unknown levels and a verdict
// document whose totals disagree with its verdicts.
func TestDocRoundTrip(t *testing.T) {
	objs := fixtureObjects(t)
	r, err := RunCell(context.Background(), objs, Cell{Level: om.LevelSimple}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Check.Write(&buf); err != nil {
		t.Fatal(err)
	}
	want := buf.String()
	got, err := ReadCheckDoc(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := got.Write(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != want {
		t.Fatalf("round trip changed the document:\n got %s\nwant %s", again.String(), want)
	}
	if got.Verify == nil || got.Verify.Checked != r.Check.Verify.Checked {
		t.Fatalf("round trip lost the verdicts: %+v", got.Verify)
	}
	for _, bad := range []string{
		`{"schema":"om-journal/v1"}`,
		`{"schema":"om-verify/v1","checked":0,"failed":0,"reason_counts":null,"verdicts":null}`,
		`{"schema":"om-check/v1","level":"lint","reports":[]}`,
		`{"schema":"om-check/v1","level":"full","reports":[],"verify":{"schema":"om-verify/v1","checked":1,"failed":0,"reason_counts":null,"verdicts":[]}}`,
	} {
		if _, err := ReadCheckDoc(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadCheckDoc accepted %s", bad)
		}
	}
}

// TestCrossCheckDetectsDivergence: a verdict document must not silently
// pass against a journal with a different event population.
func TestCrossCheckDetectsDivergence(t *testing.T) {
	objs := fixtureObjects(t)
	r, err := RunCell(context.Background(), objs, Cell{Level: om.LevelFull}, nil)
	if err != nil {
		t.Fatal(err)
	}
	j := *r.Journal
	j.Counts = map[string]uint64{}
	for k, v := range r.Journal.Counts {
		j.Counts[k] = v
	}
	j.Counts[om.ReasonAddrConvertedLDA]++
	if err := r.Check.Verify.CrossCheck(&j); err == nil {
		t.Fatal("CrossCheck accepted a journal with an extra event")
	}
}

// TestBrokenPassCaught is the acceptance criterion's fault injection: a
// deliberately-broken OM pass (a kept address load silently deleted after
// the passes) must be caught by the translation validator AND by the
// differential runner.
func TestBrokenPassCaught(t *testing.T) {
	defer om.SetFaultHookForTesting(func(pg *om.Prog) { om.DeleteKeptLoad(pg) })()

	objs := fixtureObjects(t)

	// Pillar (a): the translation validator sees a kept load with no
	// surviving GAT-load witness.
	r, err := RunCell(context.Background(), objs, Cell{Level: om.LevelFull}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Check.Verify.Failed == 0 {
		t.Fatal("translation validator missed the injected fault")
	}

	// Pillar (b): the differential runner sees the behavior change. The
	// deleted load leaves a stale register behind, so the optimized run
	// crashes or diverges from the baseline.
	baseIm, err := link.Link(objs)
	if err != nil {
		t.Fatal(err)
	}
	base, err := execute(baseIm, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	rep := &DiffReport{}
	opt, err := execute(r.Image, 100_000_000)
	if err == nil {
		compare(rep, 0, "om-full", base, opt)
	}
	if err == nil && len(rep.Mismatches) == 0 {
		t.Fatal("differential runner missed the injected fault")
	}
}

// TestDifferentialProperty runs a handful of generated programs through
// the quick matrix; behavior and verdicts must both hold.
func TestDifferentialProperty(t *testing.T) {
	cases := 4
	if testing.Short() {
		cases = 1
	}
	rep, err := Differential(context.Background(), DiffOptions{Cases: cases, Seed: 7000})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Checked == 0 || rep.Runs < cases*2 {
		t.Fatalf("differential run too shallow: %+v", rep)
	}
}

// TestTranslateRejectsForeignJournal: malformed journals are input errors,
// not verdicts.
func TestTranslateRejectsForeignJournal(t *testing.T) {
	objs := fixtureObjects(t)
	im, err := link.Link(objs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunCell(context.Background(), objs, Cell{Level: om.LevelFull}, nil)
	if err != nil {
		t.Fatal(err)
	}
	j := *r.Journal
	j.Schema = "om-journal/v0"
	if _, err := Translate(im, &j); err == nil {
		t.Fatal("Translate accepted a journal with a bad schema")
	}
}

// TestCellNames pins the matrix cell naming downstream reports rely on.
func TestCellNames(t *testing.T) {
	got := fmt.Sprint(
		Cell{Level: om.LevelNone}.Name(), " ",
		Cell{Level: om.LevelFull, Schedule: true}.Name(), " ",
		Cell{Level: om.LevelFull, Schedule: true, Ablation: om.Ablation{NoGATReduction: true}}.Name(), " ",
		Cell{Level: om.LevelFull, Profile: true}.Name(),
	)
	want := "om-none om-full+sched om-full-gat-reduction+sched om-full+pgo"
	if got != want {
		t.Fatalf("cell names changed:\n got %s\nwant %s", got, want)
	}
}
