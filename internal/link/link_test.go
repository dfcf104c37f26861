package link

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/axp"
	"repro/internal/objfile"
	"repro/internal/tcc"
)

// obj builds a minimal module with one procedure and the given extras.
func obj(t *testing.T, name, src string) *objfile.Object {
	t.Helper()
	o, err := tcc.Compile(name, []tcc.Source{{Name: name, Text: src}}, tcc.DefaultOptions())
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return o
}

func TestMergeDuplicateDefinition(t *testing.T) {
	a := obj(t, "a", "long f() { return 1; }")
	b := obj(t, "b", "long f() { return 2; }")
	if _, err := Merge([]*objfile.Object{a, b}); err == nil ||
		!strings.Contains(err.Error(), "multiply defined") {
		t.Fatalf("expected multiply-defined error, got %v", err)
	}
}

func TestMergeUndefinedSymbol(t *testing.T) {
	a := obj(t, "a", "long g(long x); long f() { return g(1); }")
	if _, err := Merge([]*objfile.Object{a}); err == nil ||
		!strings.Contains(err.Error(), "undefined symbol") {
		t.Fatalf("expected undefined-symbol error, got %v", err)
	}
}

func TestMergeCommons(t *testing.T) {
	// The same common in two modules merges to the largest size.
	a := obj(t, "a", "long shared[4]; long fa() { return shared[0]; }")
	b := obj(t, "b", "long shared[16]; long fb() { return shared[1]; }")
	p, err := Merge([]*objfile.Object{a, b})
	if err != nil {
		t.Fatal(err)
	}
	c := p.FindCommon("shared")
	if c == nil || c.Size != 128 {
		t.Fatalf("common shared = %+v, want 128 bytes", c)
	}

	// A definition suppresses the common.
	d := obj(t, "d", "long shared2 = 7;")
	e := obj(t, "e", "long shared2[8]; long fe() { return shared2[0]; }")
	p2, err := Merge([]*objfile.Object{d, e})
	if err != nil {
		t.Fatal(err)
	}
	if p2.FindCommon("shared2") != nil {
		t.Fatal("definition should suppress the common")
	}
	// And the common reference resolves to the definition.
	tg, ok := p2.FindProc("fe")
	if !ok {
		t.Fatal("no fe")
	}
	_ = tg
}

func TestLinkStaticsDoNotCollide(t *testing.T) {
	// Two modules with same-named statics must coexist (mangled).
	a := obj(t, "a", "static long s = 1; long fa() { return s; }")
	b := obj(t, "b", "static long s = 2; long fb() { return s; }")
	if _, err := Link([]*objfile.Object{a, b, crt(t, "fa")}); err != nil {
		t.Fatal(err)
	}
}

// crt builds a __start that calls the named function.
func crt(t *testing.T, callee string) *objfile.Object {
	return obj(t, "crt", `
long `+callee+`();
long __start() {
	__halt(`+callee+`());
	return 0;
}
`)
}

func TestLayoutInvariants(t *testing.T) {
	a := obj(t, "a", `
long g1 = 5;
long big[2000];
double d = 1.5;
static long loc[4];
long fa() { loc[0] = g1; big[3] = loc[0]; return big[3]; }
`)
	im, err := Link([]*objfile.Object{a, crt(t, "fa")})
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
	// GP window must cover the whole GAT.
	for _, g := range im.GATs {
		if int64(g.Start)-int64(g.GP) < axp.MemDispMin ||
			int64(g.End-8)-int64(g.GP) > axp.MemDispMax {
			t.Errorf("GAT [%#x,%#x) not covered by GP %#x", g.Start, g.End, g.GP)
		}
	}
	// Symbols land inside their segments; procedures carry a GP.
	text := im.TextSegment()
	data := im.DataSegment()
	for _, s := range im.Symbols {
		switch s.Kind {
		case objfile.SymProc:
			if s.Addr < text.Addr || s.Addr+s.Size > text.End() {
				t.Errorf("proc %s outside text", s.Name)
			}
			if s.GP == 0 {
				t.Errorf("proc %s has no GP", s.Name)
			}
		case objfile.SymData:
			if s.Size > 0 && (s.Addr < data.Addr || s.Addr+s.Size > data.End()) {
				t.Errorf("data %s [%#x,+%d) outside data segment", s.Name, s.Addr, s.Size)
			}
		}
	}
	// Text decodes.
	if _, err := axp.DecodeAll(text.Data); err != nil {
		t.Fatal(err)
	}
}

func TestMissingEntry(t *testing.T) {
	a := obj(t, "a", "long f() { return 0; }")
	if _, err := Link([]*objfile.Object{a}); err == nil ||
		!strings.Contains(err.Error(), "__start") {
		t.Fatalf("expected missing-entry error, got %v", err)
	}
}

func TestSplitGPDispQuick(t *testing.T) {
	f := func(v int32) bool {
		hi, lo, err := SplitGPDisp(int64(v))
		if err != nil {
			// Only values near the edges of int32 may fail.
			return v > 0x7FFF0000 || v < -0x7FFF0000
		}
		return int64(hi)*65536+int64(lo) == int64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignGATsDedup(t *testing.T) {
	// Two modules referencing the same exported global: the merged GAT
	// dedups the slot.
	a := obj(t, "a", "long shared = 3; long fa() { return shared; }")
	b := obj(t, "b", "extern long shared; long fb() { return shared + 1; }")
	p, err := Merge([]*objfile.Object{a, b})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := AssignGATs(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Slots) != 1 {
		t.Fatalf("expected one GAT, got %d", len(plan.Slots))
	}
	// shared must appear exactly once.
	count := 0
	for _, id := range plan.Slots[0] {
		if k := plan.Keys[id]; k.Kind == TDef && p.Objects[k.Mod].Symbols[k.Sym].Name == "shared" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("shared appears %d times in the GAT, want 1", count)
	}
}

func TestAssignGATsKeepFilter(t *testing.T) {
	a := obj(t, "a", "long g1 = 1; long g2 = 2; long fa() { return g1 + g2; }")
	p, err := Merge([]*objfile.Object{a})
	if err != nil {
		t.Fatal(err)
	}
	full, err := AssignGATs(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	none, err := AssignGATs(p, func(m, slot int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if len(none.Slots[0]) != 0 {
		t.Fatalf("keep=false left %d slots", len(none.Slots[0]))
	}
	if len(full.Slots[0]) == 0 {
		t.Fatal("no slots without filter")
	}
	for _, s := range none.SlotOf[0] {
		if s != -1 {
			t.Fatal("dropped target should map to slot -1")
		}
	}
}
