package verify

import (
	"context"
	"testing"

	"repro/internal/axp"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/profile"
	"repro/internal/rtlib"
	"repro/internal/tcc"
)

// TestSharedLibCrossClusterGPReset pins the GP-flow edge the paper's §6
// carves out: calls into a dynamically-linked library cross GAT clusters, so
// the caller's GP-reset after the call must survive, and the validator's
// same-gat/diff-gat rules must prove both sides of the split.
func TestSharedLibCrossClusterGPReset(t *testing.T) {
	objs := fixtureObjects(t)
	r, err := RunCell(context.Background(), objs, Cell{Level: om.LevelFull}, nil,
		"libmath", "libutil")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check.Err(); err != nil {
		t.Fatalf("shared-lib image fails verification: %v", err)
	}
	if r.Check.Verify.ByReason[om.ReasonResetKeptDiffGAT] == 0 {
		t.Errorf("no gpreset survived the cross-cluster split (ByReason: %v)", r.Check.Verify.ByReason)
	}
	if r.Check.Verify.ByReason[om.ReasonResetRemoved] == 0 {
		t.Errorf("no gpreset was removed inside a cluster (ByReason: %v)", r.Check.Verify.ByReason)
	}
	if r.Check.Verify.ByReason[om.ReasonCallKeptCrossReg] == 0 {
		t.Errorf("no cross-region call was kept indirect (ByReason: %v)", r.Check.Verify.ByReason)
	}
	if len(r.Image.GATs) < 2 {
		t.Fatalf("expected split GATs, got %d", len(r.Image.GATs))
	}
	if err := r.Check.Verify.CrossCheck(r.Journal); err != nil {
		t.Fatal(err)
	}
}

// TestIndirectJSRThroughGAT: an indirect call through a function pointer has
// no decodable callee, so it must stay a jsr at every level and the
// validator must find a jsr witness for it — a conversion here would be
// caught as a missing witness.
func TestIndirectJSRThroughGAT(t *testing.T) {
	const prog = `
long mul2(long v) { return v * 2; }
long mul3(long v) { return v * 3; }

long apply(fnptr f, long v) { return f(v); }

long main() {
	print(apply(mul2, 10) + apply(mul3, 10));
	return 0;
}
`
	obj, err := tcc.Compile("fp", []tcc.Source{{Name: "fp", Text: prog}}, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	objs := append([]*objfile.Object{obj}, lib...)
	for _, level := range []om.Level{om.LevelNone, om.LevelSimple, om.LevelFull} {
		r, err := RunCell(context.Background(), objs, Cell{Level: level}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Check.Err(); err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		if r.Check.Verify.ByReason[om.ReasonCallKeptIndirect] == 0 {
			t.Errorf("%s: no indirect call survived (ByReason: %v)", level, r.Check.Verify.ByReason)
		}
	}
}

// fillerObject hand-builds a module whose single procedure is nwords of
// no-ops: bulk that pushes a hot caller and a cold callee more than a bsr's
// ±4MB apart under profile-guided layout.
func fillerObject(t *testing.T, nwords int) *objfile.Object {
	t.Helper()
	o := objfile.New("filler")
	text := make([]byte, 4*nwords)
	unop := axp.MustEncode(axp.Unop())
	for i := 0; i < len(text); i += 4 {
		objfile.PutUint32(text, uint64(i), unop)
	}
	o.Sections[objfile.SecText].Data = text
	o.Sections[objfile.SecText].Size = uint64(len(text))
	o.AddSymbol(objfile.Symbol{
		Name: "filler", Kind: objfile.SymProc, Section: objfile.SecText,
		Value: 0, End: uint64(len(text)), Exported: true,
	})
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestLayoutFallbackVerified forces the layout:fallback-jsr-range path: a
// synthetic profile makes caller_far hot and the 4.4MB filler warm, sinking
// callee_far beyond bsr reach, so the already-converted call must revert to
// its GAT-indirect jsr — and the reverted image must still verify and run.
func TestLayoutFallbackVerified(t *testing.T) {
	callerSrc := `
long callee_far(long v);

long caller_far(long v) { return callee_far(v) + 1; }
`
	mainSrc := `
long caller_far(long v);

long callee_far(long v) { return v * 3; }

long main() {
	print(caller_far(13));
	return 0;
}
`
	caller, err := tcc.Compile("a", []tcc.Source{{Name: "a", Text: callerSrc}}, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	main, err := tcc.Compile("c", []tcc.Source{{Name: "c", Text: mainSrc}}, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	objs := append([]*objfile.Object{caller, fillerObject(t, 1_100_000), main}, lib...)

	prof := &profile.Profile{
		SchemaV: profile.Schema,
		Source:  "synthetic",
		Procs: []profile.ProcCount{
			{Name: "caller_far", Entries: 10, Weight: 1000},
			{Name: "filler", Entries: 5, Weight: 500},
		},
	}
	r, err := RunCell(context.Background(), objs, Cell{Level: om.LevelFull, Profile: true}, prof)
	if err != nil {
		t.Fatal(err)
	}
	if r.Journal.Counts[om.ReasonLayoutFallback] == 0 {
		t.Fatalf("layout produced no fallback events (counts: %v)", r.Journal.Counts)
	}
	if r.Check.Verify.ByReason[om.ReasonCallKeptLayout] == 0 {
		t.Errorf("no call was kept for layout range (ByReason: %v)", r.Check.Verify.ByReason)
	}
	if err := r.Check.Err(); err != nil {
		t.Fatalf("fallback image fails verification: %v", err)
	}

	// The reverted call must still be sound: the optimized image computes the
	// same result as the plain link.
	baseIm, err := link.Link(objs)
	if err != nil {
		t.Fatal(err)
	}
	base, err := execute(baseIm, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := execute(r.Image, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	rep := &DiffReport{}
	compare(rep, 0, "layout-fallback", base, opt)
	if len(rep.Mismatches) != 0 {
		t.Fatalf("fallback image diverges: %+v", rep.Mismatches)
	}
}
