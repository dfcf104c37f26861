package om

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

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

// TestSharedProgramRunsByteIdentical: Run never mutates its input. One
// merged program, shared read-only, serves every (options, profile) point of
// the golden matrix concurrently, and each Run's image is byte-identical to
// a Run over a program of its own. The shared program's modules' hashes and
// bytes and its commons are the same afterwards. Two concurrent sweeps make
// every point overlap with every other. This is what lets a caller merge
// once and link the same program under several option sets.
func TestSharedProgramRunsByteIdentical(t *testing.T) {
	prof := collectProfile(t)
	ctx := context.Background()
	optsOf := func(pt matrixPoint) []Option {
		if pt.prof {
			return append(append([]Option(nil), pt.opts...), WithProfile(prof))
		}
		return pt.opts
	}

	want := make(map[string][]byte)
	for _, pt := range goldenMatrix() {
		res, err := Run(ctx, freshProgram(t), optsOf(pt)...)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", pt.name, err)
		}
		want[pt.name] = imageBytes(t, res.Image)
		// Write's output is exactly as long as the encoder's sizing pass
		// said: the buffer Encode allocated never grew and was filled.
		if enc := res.Image.Encode(); len(enc) != cap(enc) || len(want[pt.name]) != cap(enc) {
			t.Errorf("%s: Write gave %d bytes, Encode %d of a %d-byte buffer",
				pt.name, len(want[pt.name]), len(enc), cap(enc))
		}
	}

	p := freshProgram(t)
	snapshot := func() ([]string, [][]byte, string) {
		hashes := make([]string, len(p.Objects))
		mods := make([][]byte, len(p.Objects))
		for i, obj := range p.Objects {
			hashes[i] = obj.Hash()
			var buf bytes.Buffer
			if err := obj.Write(&buf); err != nil {
				t.Fatal(err)
			}
			mods[i] = buf.Bytes()
		}
		var commons strings.Builder
		for _, c := range p.Commons {
			fmt.Fprintf(&commons, "%s/%d/%d;", c.Name, c.Size, c.Align)
		}
		return hashes, mods, commons.String()
	}
	hashes, mods, commons := snapshot()

	var wg sync.WaitGroup
	for sweep := 0; sweep < 2; sweep++ {
		for _, pt := range goldenMatrix() {
			wg.Add(1)
			go func(sweep int, pt matrixPoint) {
				defer wg.Done()
				res, err := Run(ctx, p, optsOf(pt)...)
				if err != nil {
					t.Errorf("%s: shared run (sweep %d): %v", pt.name, sweep, err)
					return
				}
				var got bytes.Buffer
				if err := res.Image.Write(&got); err != nil {
					t.Errorf("%s: write image: %v", pt.name, err)
				} else if !bytes.Equal(got.Bytes(), want[pt.name]) {
					t.Errorf("%s: sweep %d image differs from a fresh program's (%d vs %d bytes)",
						pt.name, sweep, got.Len(), len(want[pt.name]))
				}
			}(sweep, pt)
		}
	}
	wg.Wait()

	hashes2, mods2, commons2 := snapshot()
	for i := range mods {
		if hashes2[i] != hashes[i] {
			t.Errorf("module %s hash changed: %s -> %s", p.Objects[i].Name, hashes[i], hashes2[i])
		}
		if !bytes.Equal(mods[i], mods2[i]) {
			t.Errorf("module %s of the shared program changed under concurrent Runs", p.Objects[i].Name)
		}
	}
	if commons2 != commons {
		t.Errorf("shared program commons changed: %s -> %s", commons, commons2)
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
		pg, err := Lift(buildProgram(t, []tcc.Source{{Name: "prog", Text: src}}))
		if err != nil {
			t.Fatal(err)
		}
		pl, _, err := runFull(ctx, pg, Ablation{})
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
