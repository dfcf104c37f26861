package om

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/axp"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/progen"
	"repro/internal/rtlib"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/tcc"
)

// buildObjects compiles user sources (one unit each) and appends the
// runtime library's modules, in link order.
func buildObjects(t *testing.T, srcs []tcc.Source) []*objfile.Object {
	t.Helper()
	var objs []*objfile.Object
	for _, s := range srcs {
		obj, err := tcc.Compile(s.Name, []tcc.Source{s}, tcc.DefaultOptions())
		if err != nil {
			t.Fatalf("compile %s: %v", s.Name, err)
		}
		objs = append(objs, obj)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	return append(objs, lib...)
}

// buildProgram compiles user sources (one unit each) plus the runtime
// library and merges them.
func buildProgram(t *testing.T, srcs []tcc.Source) *link.Program {
	t.Helper()
	p, err := link.Merge(buildObjects(t, srcs))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t *testing.T, im *objfile.Image) *sim.Result {
	t.Helper()
	res, err := sim.Run(im, sim.Config{MaxInstructions: 100_000_000})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

const testProgram = `
long grid[50];
long total = 0;
double weight = 2.5;
long spare[4];

long up(long a, long b) { return a - b; }

static long scale3(long v) { return v * 3; }

long accumulate(long n) {
	long i;
	for (i = 0; i < n; i = i + 1) {
		grid[i] = lhash(i) % 97 + scale3(i);
		total = total + grid[i];
	}
	return total;
}

long main() {
	accumulate(50);
	qsort8(grid, 0, 49, up);
	print(issorted(grid, 50, up));
	print(total);
	print_fixed(weight * 2.0);
	print(grid[0] + grid[49]);
	spare[1] = total % 1000;
	print(spare[1]);
	return 0;
}
`

// optimizeAt runs OM at the given level and returns image + stats.
func optimizeAt(t *testing.T, p *link.Program, level Level, sched bool) (*objfile.Image, *Stats) {
	t.Helper()
	res, err := Run(context.Background(), p, WithLevel(level), WithSchedule(sched))
	if err != nil {
		t.Fatalf("om %v: %v", level, err)
	}
	return res.Image, res.Stats
}

func freshProgram(t *testing.T) *link.Program {
	return buildProgram(t, []tcc.Source{{Name: "prog", Text: testProgram}})
}

func TestSemanticsPreservedAcrossLevels(t *testing.T) {
	baseIm, err := freshProgram(t).Layout()
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, baseIm)
	if len(want.Output) == 0 || want.Output[0] != 1 {
		t.Fatalf("baseline output suspicious: %v", want.Output)
	}
	configs := []struct {
		level Level
		sched bool
	}{
		{LevelNone, false},
		{LevelSimple, false},
		{LevelFull, false},
		{LevelFull, true},
	}
	for _, c := range configs {
		// Each level needs a fresh lift (transforms mutate the program).
		im, _ := optimizeAt(t, freshProgram(t), c.level, c.sched)
		got := run(t, im)
		if got.Exit != want.Exit {
			t.Errorf("%v sched=%v: exit %d, want %d", c.level, c.sched, got.Exit, want.Exit)
		}
		if fmt.Sprint(got.Output) != fmt.Sprint(want.Output) {
			t.Errorf("%v sched=%v: output %v, want %v", c.level, c.sched, got.Output, want.Output)
		}
	}
}

func TestStatsShapes(t *testing.T) {
	_, none := optimizeAt(t, freshProgram(t), LevelNone, false)
	_, simple := optimizeAt(t, freshProgram(t), LevelSimple, false)
	_, full := optimizeAt(t, freshProgram(t), LevelFull, false)

	if none.AddressLoads == 0 || none.AddrConverted != 0 || none.AddrNullified != 0 {
		t.Errorf("no-opt stats wrong: %+v", none)
	}
	if none.Instructions == 0 || none.Nullified != 0 || none.Deleted != 0 {
		t.Errorf("no-opt instruction stats wrong: %+v", none)
	}

	// OM-simple removes a substantial fraction of address loads.
	if simple.AddrConverted+simple.AddrNullified == 0 {
		t.Error("OM-simple removed no address loads")
	}
	if simple.Deleted != 0 {
		t.Errorf("OM-simple must not delete instructions, deleted %d", simple.Deleted)
	}
	if simple.Nullified == 0 {
		t.Error("OM-simple nullified nothing")
	}

	// OM-full removes at least as many address loads and deletes code.
	if full.AddrConverted+full.AddrNullified < simple.AddrConverted+simple.AddrNullified {
		t.Errorf("OM-full (%d) removed fewer address loads than OM-simple (%d)",
			full.AddrConverted+full.AddrNullified, simple.AddrConverted+simple.AddrNullified)
	}
	if full.Deleted == 0 {
		t.Error("OM-full deleted nothing")
	}
	// Single GAT here: every GP reset disappears and PV loads remain only
	// at indirect call sites.
	if full.GPResetAfter != 0 {
		t.Errorf("OM-full left %d GP resets on a single-GAT program", full.GPResetAfter)
	}
	if full.PVAfter != full.IndirectCalls {
		t.Errorf("OM-full PV loads = %d, want %d (indirect calls only)", full.PVAfter, full.IndirectCalls)
	}
	if full.JSRAfter != full.IndirectCalls {
		t.Errorf("OM-full jsr sites = %d, want %d", full.JSRAfter, full.IndirectCalls)
	}
	// GAT reduction by a large factor.
	if full.GATBytesAfter*2 > full.GATBytesBefore {
		t.Errorf("GAT only reduced %d -> %d bytes", full.GATBytesBefore, full.GATBytesAfter)
	}
	if simple.GATBytesAfter != simple.GATBytesBefore {
		t.Errorf("OM-simple changed the GAT size: %d -> %d", simple.GATBytesBefore, simple.GATBytesAfter)
	}

	// The test program makes indirect calls (qsort8's comparator).
	if full.IndirectCalls == 0 {
		t.Error("expected indirect call sites in the test program")
	}
}

func TestFullSmallerThanBaseline(t *testing.T) {
	baseIm, err := freshProgram(t).Layout()
	if err != nil {
		t.Fatal(err)
	}
	fullIm, _ := optimizeAt(t, freshProgram(t), LevelFull, false)
	baseText := len(baseIm.TextSegment().Data)
	fullText := len(fullIm.TextSegment().Data)
	if fullText >= baseText {
		t.Errorf("OM-full text %d bytes >= baseline %d", fullText, baseText)
	}
	if fullIm.GATBytes() >= baseIm.GATBytes() {
		t.Errorf("OM-full GAT %d >= baseline %d", fullIm.GATBytes(), baseIm.GATBytes())
	}
}

func TestFullFasterThanBaseline(t *testing.T) {
	baseIm, err := freshProgram(t).Layout()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	base, err := sim.Run(baseIm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	simpleIm, _ := optimizeAt(t, freshProgram(t), LevelSimple, false)
	simple, err := sim.Run(simpleIm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fullIm, _ := optimizeAt(t, freshProgram(t), LevelFull, false)
	full, err := sim.Run(fullIm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if simple.Stats.Cycles > base.Stats.Cycles {
		t.Errorf("OM-simple slower: %d > %d cycles", simple.Stats.Cycles, base.Stats.Cycles)
	}
	if full.Stats.Cycles >= base.Stats.Cycles {
		t.Errorf("OM-full not faster: %d >= %d cycles", full.Stats.Cycles, base.Stats.Cycles)
	}
	if full.Stats.Instructions >= base.Stats.Instructions {
		t.Errorf("OM-full executed as many instructions: %d >= %d",
			full.Stats.Instructions, base.Stats.Instructions)
	}
}

func TestIdempotence(t *testing.T) {
	// Optimizing an already-optimized program should find ~nothing: lift
	// the OM-full output? OM consumes relocatable programs, so instead we
	// check the fixpoint property: a second runFull round reports no
	// changes. This is enforced inside runFull; here we just verify the
	// pass converged (stats stable under a rerun of the pass set).
	p := freshProgram(t)
	pg, err := Lift(p)
	if err != nil {
		t.Fatal(err)
	}
	pl, _, err := runFull(context.Background(), pg, Ablation{})
	if err != nil {
		t.Fatal(err)
	}
	if applyAddressOpts(pg, pl, true) {
		t.Error("address opts still find work after fixpoint")
	}
	if applyCallOpts(pg, pl, true) {
		t.Error("call opts still find work after fixpoint")
	}
	if applyGPResetOpts(pg, pl, true) {
		t.Error("reset opts still find work after fixpoint")
	}
}

// TestFullFixpointRounds pins the OM-full fixpoint's round count: one
// productive round and one confirming round, recorded once per Run in the
// om/passes/rounds counter, on the test program, li and a progen program.
// A program that needed the round cap would fail with ErrNoFixpoint.
func TestFullFixpointRounds(t *testing.T) {
	li, ok := spec.ByName("li")
	if !ok {
		t.Fatal("no li benchmark")
	}
	for _, tc := range []struct {
		name string
		srcs []tcc.Source
	}{
		{"testProgram", []tcc.Source{{Name: "prog", Text: testProgram}}},
		{"li", li.Modules},
		{"progen seed 1", progen.Generate(1, progen.DefaultConfig())},
	} {
		reg := obs.NewRegistry()
		for run := 1; run <= 2; run++ {
			if _, err := Run(context.Background(), buildProgram(t, tc.srcs),
				WithLevel(LevelFull), WithMetrics(reg)); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if got := reg.Counter("om/passes/rounds").Value(); got != uint64(2*run) {
				t.Errorf("%s: %d rounds after %d Runs, want %d", tc.name, got, run, 2*run)
			}
		}
	}
}

// multiGATProgram builds a program whose literal pools overflow one GAT:
// two modules of nglobals arrays each. The arrays' addresses escape into
// library calls, so OM cannot rewrite the accesses GP-relatively once the
// data is beyond 16-bit reach — the GAT stays large and split.
func multiGATProgram(t *testing.T, nglobals int) *link.Program {
	t.Helper()
	genModule := func(name string, caller bool) string {
		var b strings.Builder
		for i := 0; i < nglobals; i++ {
			fmt.Fprintf(&b, "long %s_g%d[2];\n", name, i)
		}
		fmt.Fprintf(&b, "long %s_sum() {\n long s = 0;\n", name)
		for i := 0; i < nglobals; i++ {
			fmt.Fprintf(&b, " %s_g%d[0] = %d;\n", name, i, i%13)
			fmt.Fprintf(&b, " s = s + lsum(%s_g%d, 2);\n", name, i)
		}
		b.WriteString(" return s;\n}\n")
		if caller {
			b.WriteString(`
long b_sum();
long main() {
	long a = a_sum();
	long b = b_sum();
	print(a);
	print(b);
	return 0;
}
long a_sum();
`)
		}
		return b.String()
	}
	srcs := []tcc.Source{
		{Name: "a", Text: genModule("a", true)},
		{Name: "b", Text: genModule("b", false)},
	}
	// Skip the compile-time scheduler: these are single giant basic blocks
	// and the O(n^2) dependence scan would dominate the test.
	opts := tcc.DefaultOptions()
	opts.Schedule = false
	var objs []*objfile.Object
	for _, src := range srcs {
		obj, err := tcc.Compile(src.Name, []tcc.Source{src}, opts)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		objs = append(objs, obj)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	p, err := link.Merge(append(objs, lib...))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMultiGAT(t *testing.T) {
	build := func() *link.Program { return multiGATProgram(t, 6000) }
	baseIm, err := build().Layout()
	if err != nil {
		t.Fatal(err)
	}
	if len(baseIm.GATs) < 2 {
		t.Fatalf("expected multiple GATs, got %d", len(baseIm.GATs))
	}
	want := run(t, baseIm)

	for _, level := range []Level{LevelSimple, LevelFull} {
		im, st := optimizeAt(t, build(), level, false)
		got := run(t, im)
		if fmt.Sprint(got.Output) != fmt.Sprint(want.Output) || got.Exit != want.Exit {
			t.Errorf("%v: output %v exit %d, want %v exit %d",
				level, got.Output, got.Exit, want.Output, want.Exit)
		}
		if level == LevelSimple {
			// OM-simple never reduces the GAT: both tables survive, and the
			// resets after cross-GAT calls must too.
			if len(im.GATs) < 2 {
				t.Errorf("simple: expected multiple GATs, got %d", len(im.GATs))
			}
			if st.GPResetAfter == 0 {
				t.Errorf("simple: expected surviving GP resets across GATs")
			}
		} else {
			// OM-full's ldah/lda materialization empties the GAT of data
			// keys; the whole program collapses into one table, so every
			// reset legitimately disappears.
			if st.GATBytesAfter >= st.GATBytesBefore {
				t.Errorf("full: GAT not reduced: %d -> %d", st.GATBytesBefore, st.GATBytesAfter)
			}
		}
	}
}

func TestLiftRejectsNothingOnRealModules(t *testing.T) {
	p := freshProgram(t)
	pg, err := Lift(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.Procs) < 10 {
		t.Errorf("lifted only %d procedures", len(pg.Procs))
	}
	// Every literal's uses point back at it.
	for _, pr := range pg.Procs {
		for _, si := range pr.Insts {
			if si.Use != nil && si.Use.Lit.Lit == nil {
				t.Fatalf("%s: use linked to non-literal", pr.Name)
			}
			if si.Lit != nil {
				for _, u := range si.Lit.Uses {
					if u.Use == nil || u.Use.Lit != si {
						t.Fatalf("%s: inconsistent use chain", pr.Name)
					}
				}
			}
		}
	}
}

func TestSimpleKeepsInstructionCount(t *testing.T) {
	p := freshProgram(t)
	pg, err := Lift(p)
	if err != nil {
		t.Fatal(err)
	}
	before := 0
	for _, pr := range pg.Procs {
		before += len(pr.Insts)
	}
	if _, err := runSimple(pg); err != nil {
		t.Fatal(err)
	}
	after := 0
	for _, pr := range pg.Procs {
		for _, si := range pr.Insts {
			if si.Deleted {
				t.Fatalf("%s: OM-simple deleted an instruction", pr.Name)
			}
			after++
		}
	}
	if before != after {
		t.Fatalf("instruction count changed %d -> %d", before, after)
	}
}

func TestAlignmentPass(t *testing.T) {
	// Under om-full+sched every backward-branch target must be quadword
	// aligned in the emitted image.
	im, _ := optimizeAt(t, freshProgram(t), LevelFull, true)
	text := im.TextSegment()
	insts, err := axp.DecodeAll(text.Data)
	if err != nil {
		t.Fatal(err)
	}
	misaligned := 0
	for i, in := range insts {
		if !in.Op.IsBranch() || in.Op == axp.BSR {
			continue
		}
		addr := text.Addr + uint64(i*4)
		target := addr + 4 + uint64(int64(in.Disp)*4)
		if target <= addr && target%8 != 0 {
			misaligned++
			t.Errorf("backward branch at %#x targets misaligned %#x", addr, target)
		}
	}
	_ = misaligned
}

func TestFullRemovesAllGATLoads(t *testing.T) {
	// With the whole-program single GAT reduced away, no instruction may
	// still load through GP (lda/ldah through GP are fine; ldq is not,
	// except the indirect-call PV materializations that read variables).
	im, st := optimizeAt(t, freshProgram(t), LevelFull, false)
	if st.GATBytesAfter != 0 {
		t.Skipf("GAT not empty (%d bytes); program retains text keys", st.GATBytesAfter)
	}
	text := im.TextSegment()
	insts, err := axp.DecodeAll(text.Data)
	if err != nil {
		t.Fatal(err)
	}
	gp := im.GATs[0].GP
	for i, in := range insts {
		if in.Op == axp.LDQ && in.Rb == axp.GP {
			addr := gp + uint64(int64(in.Disp))
			// A GP-relative data load is fine; it must land in the data
			// segment, not in a (nonexistent) GAT.
			data := im.DataSegment()
			if addr < data.Addr || addr >= data.End() {
				t.Errorf("instruction %d: ldq via GP outside data segment (%#x)", i, addr)
			}
		}
	}
}

func TestAblatedStillCorrect(t *testing.T) {
	// Every single-component ablation must still preserve semantics.
	baseIm, err := freshProgram(t).Layout()
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, baseIm)
	for _, ab := range Ablations() {
		res, err := Run(context.Background(), freshProgram(t),
			WithAblation(ab), WithSchedule(true))
		if err != nil {
			t.Fatalf("%s: %v", ab.Name(), err)
		}
		got := run(t, res.Image)
		if fmt.Sprint(got.Output) != fmt.Sprint(want.Output) || got.Exit != want.Exit {
			t.Errorf("%s: output %v exit %d, want %v exit %d",
				ab.Name(), got.Output, got.Exit, want.Output, want.Exit)
		}
	}
}

func TestInstrumentation(t *testing.T) {
	// An instrumented program must produce identical output, and the block
	// counts must be consistent with execution.
	baseIm, err := freshProgram(t).Layout()
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, baseIm)

	ires, err := Run(context.Background(), freshProgram(t), WithInstrumentation())
	if err != nil {
		t.Fatal(err)
	}
	im, blocks := ires.Image, ires.Blocks
	if len(blocks) < 50 {
		t.Fatalf("only %d blocks instrumented", len(blocks))
	}
	res, err := sim.Run(im, sim.Config{MaxInstructions: 100_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Output) != fmt.Sprint(want.Output) || res.Exit != want.Exit {
		t.Fatalf("instrumented output %v exit %d, want %v exit %d",
			res.Output, res.Exit, want.Output, want.Exit)
	}
	if res.Profile == nil {
		t.Fatal("no profile collected")
	}
	// Per-procedure entry blocks: main executes exactly once; __start once;
	// the qsort comparator many times.
	byProcEntry := map[string]uint64{}
	for _, b := range blocks {
		if b.Index == 0 {
			byProcEntry[b.Proc] = res.Profile[b.ID]
		}
	}
	if byProcEntry["main"] != 1 {
		t.Errorf("main entry count = %d, want 1", byProcEntry["main"])
	}
	if byProcEntry["__start"] != 1 {
		t.Errorf("__start entry count = %d, want 1", byProcEntry["__start"])
	}
	if byProcEntry["up"] < 100 {
		t.Errorf("comparator entry count = %d, want many", byProcEntry["up"])
	}
	if byProcEntry["qsort8"] < 10 {
		t.Errorf("qsort8 entry count = %d, want recursive many", byProcEntry["qsort8"])
	}
	// Static helper called through a bsr to its local entry must still be
	// counted (the trap sits after the pinned GP pair).
	if byProcEntry["prog$scale3"] != 50 {
		t.Errorf("scale3 entry count = %d, want 50", byProcEntry["prog$scale3"])
	}
}
