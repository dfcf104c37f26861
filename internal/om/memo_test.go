package om

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/tcc"
)

// matrixPoint is one (options, profile) cell of the golden matrix.
type matrixPoint struct {
	name string
	opts []Option
	prof bool
}

func goldenMatrix() []matrixPoint {
	return []matrixPoint{
		{name: "none", opts: []Option{WithLevel(LevelNone)}},
		{name: "simple", opts: []Option{WithLevel(LevelSimple)}},
		{name: "full", opts: []Option{WithLevel(LevelFull)}},
		{name: "full+sched", opts: []Option{WithLevel(LevelFull), WithSchedule(true)}},
		{name: "ablate-gatred", opts: []Option{WithAblation(Ablation{NoGATReduction: true})}},
		{name: "ablate-call+sched", opts: []Option{WithAblation(Ablation{NoCallOpt: true}), WithSchedule(true)}},
		{name: "full+pgo", opts: []Option{WithLevel(LevelFull)}, prof: true},
		{name: "full+sched+pgo", opts: []Option{WithLevel(LevelFull), WithSchedule(true)}, prof: true},
	}
}

// TestWarmRunByteIdenticalMatrix is the warm path's invariant: for every
// (options, profile) point of the golden matrix, a Run that starts from the
// cached lifted form produces a byte-identical image to a cold memo-less
// Run. The sweep runs twice so every point is exercised both right after
// the first lift and after unrelated points have interleaved.
func TestWarmRunByteIdenticalMatrix(t *testing.T) {
	prof := collectProfile(t)
	memo := NewMemo(nil)
	ctx := context.Background()

	cold := make(map[string][]byte)
	for _, pt := range goldenMatrix() {
		opts := pt.opts
		if pt.prof {
			opts = append(append([]Option(nil), opts...), WithProfile(prof))
		}
		res, err := Run(ctx, freshProgram(t), opts...)
		if err != nil {
			t.Fatalf("%s: cold run: %v", pt.name, err)
		}
		cold[pt.name] = imageBytes(t, res.Image)
	}

	for sweep := 0; sweep < 2; sweep++ {
		for _, pt := range goldenMatrix() {
			opts := append([]Option{WithMemo(memo)}, pt.opts...)
			if pt.prof {
				opts = append(opts, WithProfile(prof))
			}
			res, err := Run(ctx, freshProgram(t), opts...)
			if err != nil {
				t.Fatalf("%s: warm run (sweep %d): %v", pt.name, sweep, err)
			}
			if got := imageBytes(t, res.Image); !bytes.Equal(got, cold[pt.name]) {
				t.Errorf("%s: sweep %d image differs from cold run (%d vs %d bytes)",
					pt.name, sweep, len(got), len(cold[pt.name]))
			}
			if res.Stats == nil {
				t.Fatalf("%s: warm run carried no stats", pt.name)
			}
		}
	}
	// One program: the first warm Run lifts it, every later one clones it.
	if st, want := memo.LiftStats(), uint64(2*len(goldenMatrix())-1); st.Hits != want || st.Misses != 1 {
		t.Errorf("lift store: %d hits / %d misses, want %d / 1", st.Hits, st.Misses, want)
	}
}

// TestWarmStatsMatchCold: a warm run's statistics, whose before-half comes
// from the lifted-form cache, equal the cold run's, field for field.
func TestWarmStatsMatchCold(t *testing.T) {
	ctx := context.Background()
	coldRes, err := Run(ctx, freshProgram(t), WithLevel(LevelFull), WithSchedule(true))
	if err != nil {
		t.Fatal(err)
	}
	memo := NewMemo(nil)
	for i := 0; i < 2; i++ {
		res, err := Run(ctx, freshProgram(t), WithLevel(LevelFull), WithSchedule(true), WithMemo(memo))
		if err != nil {
			t.Fatalf("warm run %d: %v", i, err)
		}
		if *res.Stats != *coldRes.Stats {
			t.Errorf("warm run %d stats diverge:\nwarm %+v\ncold %+v", i, *res.Stats, *coldRes.Stats)
		}
	}
}

// TestWarmRunSkipsDecodeLiftAndPasses proves the warm path's skip claims
// with the obs counters: a warm relink, under the same options or new ones,
// performs zero module decodes and zero procedure lifts, replays every
// lifted procedure from the cache, and runs the passes over all of them.
func TestWarmRunSkipsDecodeLiftAndPasses(t *testing.T) {
	ctx := context.Background()
	memo := NewMemo(nil)

	counters := func(opts ...Option) map[string]uint64 {
		reg := obs.NewRegistry()
		opts = append(opts, WithMemo(memo), WithMetrics(reg))
		if _, err := Run(ctx, freshProgram(t), opts...); err != nil {
			t.Fatal(err)
		}
		out := map[string]uint64{}
		for _, name := range []string{
			"om/decode/modules", "om/lift/procs", "om/lift/replayed", "om/passes/procs",
		} {
			out[name] = reg.Counter(name).Value()
		}
		return out
	}

	cold := counters(WithLevel(LevelFull))
	if cold["om/decode/modules"] == 0 || cold["om/lift/procs"] == 0 || cold["om/passes/procs"] == 0 {
		t.Fatalf("cold run did no work: %v", cold)
	}

	for name, opts := range map[string][]Option{
		"same-options": {WithLevel(LevelFull)},
		"new-options":  {WithLevel(LevelFull), WithSchedule(true)},
	} {
		warm := counters(opts...)
		if warm["om/decode/modules"] != 0 || warm["om/lift/procs"] != 0 {
			t.Errorf("warm %s relink re-decoded or re-lifted: %v", name, warm)
		}
		if warm["om/lift/replayed"] != cold["om/lift/procs"] {
			t.Errorf("warm %s relink replayed %d of %d lifted procedures",
				name, warm["om/lift/replayed"], cold["om/lift/procs"])
		}
		if warm["om/passes/procs"] != cold["om/passes/procs"] {
			t.Errorf("warm %s relink passed %d of %d procedures",
				name, warm["om/passes/procs"], cold["om/passes/procs"])
		}
	}
}

// TestMemoEvictionNeverStale: with the lift store sized below the working
// set, interleaved programs evict each other on every Run, and each must
// fall back to a fresh lift, never serve a stale or foreign form.
// Byte-identity against memo-less runs is the oracle.
func TestMemoEvictionNeverStale(t *testing.T) {
	ctx := context.Background()
	progA := func(t *testing.T) *link.Program { return freshProgram(t) }
	progB := func(t *testing.T) *link.Program {
		return buildProgram(t, []tcc.Source{{Name: "alt", Text: `
long twist(long v) { return v * 7 - 2; }
long main() {
	long i; long acc = 0;
	for (i = 0; i < 9; i = i + 1) acc = acc + twist(i);
	return acc;
}
`}})
	}

	want := map[string][]byte{}
	for name, mk := range map[string]func(*testing.T) *link.Program{"a": progA, "b": progB} {
		for _, sched := range []bool{false, true} {
			res, err := Run(ctx, mk(t), WithLevel(LevelFull), WithSchedule(sched))
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprintf("%s/%v", name, sched)] = imageBytes(t, res.Image)
		}
	}

	// Room for one lifted program of the two.
	memo := &Memo{lifts: buildcache.NewStageStore("lift", 1, 0, nil)}
	for round := 0; round < 3; round++ {
		for name, mk := range map[string]func(*testing.T) *link.Program{"a": progA, "b": progB} {
			for _, sched := range []bool{false, true} {
				res, err := Run(ctx, mk(t), WithLevel(LevelFull), WithSchedule(sched), WithMemo(memo))
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/%v", name, sched)
				if !bytes.Equal(imageBytes(t, res.Image), want[key]) {
					t.Fatalf("round %d: %s: image diverged under eviction pressure", round, key)
				}
			}
		}
	}
	if st := memo.LiftStats(); st.Evictions == 0 || st.Hits == 0 {
		t.Errorf("undersized lift store: %d hits, %d evictions; want both > 0", st.Hits, st.Evictions)
	}
}

// TestMemoTraceAndInstrumentBypass: traced runs rebuild their journal
// every time from the cached lifted form, and instrumentation runs still
// work with a memo attached.
func TestMemoTraceAndInstrumentBypass(t *testing.T) {
	ctx := context.Background()
	memo := NewMemo(nil)

	// Prime the lift store with an untraced run of the same options.
	if _, err := Run(ctx, freshProgram(t), WithLevel(LevelFull), WithMemo(memo)); err != nil {
		t.Fatal(err)
	}
	ref, err := Run(ctx, freshProgram(t), WithLevel(LevelFull), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := Run(ctx, freshProgram(t), WithLevel(LevelFull), WithTrace(), WithMemo(memo))
		if err != nil {
			t.Fatalf("traced warm run %d: %v", i, err)
		}
		if res.Journal == nil || len(res.Journal.Events) == 0 {
			t.Fatalf("traced warm run %d returned no journal", i)
		}
		if len(res.Journal.Events) != len(ref.Journal.Events) {
			t.Errorf("traced warm run %d: %d journal events, want %d",
				i, len(res.Journal.Events), len(ref.Journal.Events))
		}
		if !bytes.Equal(imageBytes(t, res.Image), imageBytes(t, ref.Image)) {
			t.Errorf("traced warm run %d image differs from memo-less traced run", i)
		}
	}

	ins, err := Run(ctx, freshProgram(t), WithInstrumentation(), WithMemo(memo))
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.Blocks) == 0 {
		t.Error("instrumented run with memo returned no block table")
	}
	insRef, err := Run(ctx, freshProgram(t), WithInstrumentation())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imageBytes(t, ins.Image), imageBytes(t, insRef.Image)) {
		t.Error("instrumented image differs with a memo attached")
	}
}

// TestCloneProgIsolation: a cloned program shares nothing mutable with its
// source — running the full pass pipeline on the clone leaves the source
// byte-for-byte reusable.
func TestCloneProgIsolation(t *testing.T) {
	ctx := context.Background()
	p := freshProgram(t)
	pg, err := lift(ctx, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	pg.par = 1

	emit := func(pg *Prog) []byte {
		pl, err := computePlan(pg, planOpts{})
		if err != nil {
			t.Fatal(err)
		}
		im, err := Emit(pg, pl, false)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := im.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Transform a clone with the most invasive pipeline; the pristine
	// original must still emit the unoptimized image afterwards.
	pristine := cloneProg(pg)
	before := emit(cloneProg(pristine))
	clone := cloneProg(pristine)
	if _, err := runFull(ctx, clone, Ablation{}); err != nil {
		t.Fatal(err)
	}
	after := emit(cloneProg(pristine))
	if !bytes.Equal(before, after) {
		t.Error("transforming a clone mutated the pristine program")
	}

	// The clone's cross-procedure links point into the clone, not the source.
	for pi, pr := range clone.Procs {
		for _, si := range pr.Insts {
			if si.Call != nil && si.Call.Target != nil {
				if clone.procByDef[[2]int32{int32(si.Call.Target.Mod), si.Call.Target.Sym}] != si.Call.Target {
					t.Fatalf("proc %d: call target escapes the clone", pi)
				}
			}
		}
	}
}

// TestEmitAllocsConstant pins emission's allocation profile: given a
// prepared program and plan, Emit allocates a small constant number of
// objects — the image and a fixed amount of bookkeeping — independent of
// how large the program is. The emit scratch (final-instruction slices,
// label positions, the scheduler, the address table) is pooled, so growing
// the program must not grow the allocation count.
func TestEmitAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	ctx := context.Background()
	probe := func(src string, sched bool) float64 {
		pg, err := lift(ctx, buildProgram(t, []tcc.Source{{Name: "prog", Text: src}}), 1)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := runFull(ctx, pg, Ablation{})
		if err != nil {
			t.Fatal(err)
		}
		pg.renumber()
		emit := func() {
			if _, err := Emit(pg, pl, sched); err != nil {
				t.Fatal(err)
			}
		}
		emit() // settle the pools
		return testing.AllocsPerRun(50, emit)
	}

	var big strings.Builder
	big.WriteString("long main() {\n\tlong i;\n\ti = 0;\n")
	for i := 0; i < 2000; i++ {
		big.WriteString("\ti = i + 1;\n")
	}
	big.WriteString("\treturn 0;\n}\n")
	for _, sched := range []bool{false, true} {
		small := probe("long main() { return 0; }\n", sched)
		bigAllocs := probe(big.String(), sched)
		if small > 32 {
			t.Errorf("sched=%v: Emit allocates %.0f objects, want a small constant", sched, small)
		}
		if diff := bigAllocs - small; diff > 2 || diff < -2 {
			t.Errorf("sched=%v: Emit allocations scale with program size: %.0f (small) vs %.0f (big)",
				sched, small, bigAllocs)
		}
	}
}
