package verify

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/progen"
	"repro/internal/rtlib"
	"repro/internal/spec"
	"repro/internal/tcc"
)

// zeroExtentCorpus compiles the golden-matrix programs (spice and compress,
// compiled per module and as one interprocedural unit) and progen programs
// at 1x and 4x, each with the runtime library.
func zeroExtentCorpus(t *testing.T) map[string][]*objfile.Object {
	t.Helper()
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	compileEach := func(srcs []tcc.Source) []*objfile.Object {
		var objs []*objfile.Object
		for _, s := range srcs {
			obj, err := tcc.Compile(s.Name, []tcc.Source{s}, tcc.DefaultOptions())
			if err != nil {
				t.Fatalf("compile %s: %v", s.Name, err)
			}
			objs = append(objs, obj)
		}
		return append(objs, lib...)
	}
	corpus := make(map[string][]*objfile.Object)
	for _, name := range []string{"spice", "compress"} {
		b, ok := spec.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %s", name)
		}
		corpus[name+"/each"] = compileEach(b.Modules)
		all, err := tcc.Compile(name+"_all", b.Modules, tcc.InterprocOptions())
		if err != nil {
			t.Fatal(err)
		}
		corpus[name+"/all"] = append([]*objfile.Object{all}, lib...)
	}
	for _, seed := range []int64{1, 2} {
		for _, scale := range []int{1, 4} {
			cfg := progen.DefaultConfig()
			cfg.FuncsPerMod *= scale
			corpus[fmt.Sprintf("progen%d/%dx", seed, scale)] = compileEach(progen.Generate(seed, cfg))
		}
	}
	return corpus
}

// unsplit merges each run of contiguous data segments back into one whose
// Data spells out the zeros — the image the same link made before Emit
// shipped long zero extents as ZeroSize.
func unsplit(im *objfile.Image) *objfile.Image {
	out := *im
	out.Segments = nil
	for _, seg := range im.Segments {
		if n := len(out.Segments); n > 0 && out.Segments[n-1].Name == seg.Name && out.Segments[n-1].End() == seg.Addr {
			last := &out.Segments[n-1]
			data := append([]byte(nil), last.Data...)
			data = append(data, make([]byte, last.ZeroSize)...)
			last.Data = append(data, seg.Data...)
			last.ZeroSize = seg.ZeroSize
			continue
		}
		out.Segments = append(out.Segments, seg)
	}
	return &out
}

// TestZeroExtentImages checks every OM image of the corpus at every level,
// with and without scheduling: no data segment's Data holds a zero run
// Emit should have shipped as ZeroSize, every GAT lies in initialized
// Data, the image round-trips through Write and ReadImage, and the
// check=full document is byte-identical to the one for the same image with
// its zero extents spelled out — so the checkers, including a GAT slot
// that points into a ZeroSize tail, cannot tell the two apart.
func TestZeroExtentImages(t *testing.T) {
	var cells []Cell
	for _, l := range []om.Level{om.LevelNone, om.LevelSimple, om.LevelFull} {
		for _, sched := range []bool{false, true} {
			cells = append(cells, Cell{Level: l, Schedule: sched})
		}
	}
	split, tailSlots := 0, 0
	for name, objs := range zeroExtentCorpus(t) {
		for _, c := range cells {
			what := name + " " + c.Name()
			cr, err := RunCell(context.Background(), objs, c, nil)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			im := cr.Image
			if err := im.Validate(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			var buf bytes.Buffer
			if err := im.Write(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := objfile.ReadImage(&buf)
			if err != nil {
				t.Fatalf("%s: read back: %v", what, err)
			}
			if !reflect.DeepEqual(back, im) {
				t.Fatalf("%s: image does not round-trip through Write/ReadImage", what)
			}

			data := 0
			for _, seg := range im.Segments {
				if seg.Name != ".data" && seg.Name != ".data.so" {
					continue
				}
				data++
				run := 0
				for off := 0; off+8 <= len(seg.Data); off += 8 {
					if objfile.Uint64At(seg.Data, uint64(off)) != 0 {
						run = 0
						continue
					}
					if run += 8; run >= om.ZeroSplitMin {
						t.Fatalf("%s: %s at %#x holds %d zero bytes from %#x in Data",
							what, seg.Name, seg.Addr, run, seg.Addr+uint64(off+8-run))
					}
				}
			}
			if data > 1 {
				split++
			}
			for _, g := range im.GATs {
				if g.End == g.Start {
					continue
				}
				inData := false
				for _, seg := range im.Segments {
					inData = inData || (g.Start >= seg.Addr && g.End <= seg.Addr+uint64(len(seg.Data)))
				}
				if !inData {
					t.Fatalf("%s: GAT [%#x,%#x) is not in initialized data", what, g.Start, g.End)
				}
				for a := g.Start; a < g.End; a += 8 {
					v := readQuad(im, a)
					for _, seg := range im.Segments {
						if z := seg.Addr + uint64(len(seg.Data)); seg.ZeroSize > 0 && v >= z && v < seg.End() {
							tailSlots++
						}
					}
				}
			}

			flat := unsplit(im)
			img, err := dataflow.AnalyzeImage(flat)
			if err != nil {
				t.Fatalf("%s: analyze unsplit image: %v", what, err)
			}
			ver, err := Translate(flat, cr.Journal)
			if err != nil {
				t.Fatalf("%s: translate against unsplit image: %v", what, err)
			}
			want := &CheckDoc{Schema: cr.Check.Schema, Level: cr.Check.Level,
				Reports: append(cr.Check.Reports[:2:2], img), Verify: ver}
			gj, _ := json.Marshal(cr.Check)
			wj, _ := json.Marshal(want)
			if !bytes.Equal(gj, wj) {
				t.Fatalf("%s: check document differs from the unsplit image's:\n got %s\nwant %s", what, gj, wj)
			}
			if err := cr.Check.Err(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}
	// The corpus must exercise what it guards: split images, and GAT
	// slots addressing a ZeroSize tail.
	if split == 0 || tailSlots == 0 {
		t.Fatalf("corpus has %d split images and %d GAT slots into a ZeroSize tail; want some of each", split, tailSlots)
	}
	t.Logf("%d split images, %d GAT slots into a ZeroSize tail", split, tailSlots)
}

// readQuad reads an initialized quadword of the image.
func readQuad(im *objfile.Image, addr uint64) uint64 {
	for _, seg := range im.Segments {
		if addr >= seg.Addr && addr+8 <= seg.Addr+uint64(len(seg.Data)) {
			return objfile.Uint64At(seg.Data, addr-seg.Addr)
		}
	}
	return 0
}
