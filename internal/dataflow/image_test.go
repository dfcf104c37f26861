package dataflow

import (
	"context"
	"testing"

	"repro/internal/axp"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
)

// TestImageStructureRules corrupts a clean OM-full image once per
// structural rule the image front-end proves and requires an error finding
// with the rule's ID; the clean image must carry none. The image keeps
// every GAT slot (no GAT reduction), so it has slots nothing loads.
func TestImageStructureRules(t *testing.T) {
	objs := fixtureObjects(t)
	build := func() *objfile.Image {
		p, err := link.Merge(objs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := om.Run(context.Background(), p, om.WithLevel(om.LevelFull),
			om.WithAblation(om.Ablation{NoGATReduction: true}))
		if err != nil {
			t.Fatal(err)
		}
		return res.Image
	}
	clean := build()
	if rep, err := AnalyzeImage(clean); err != nil || rep.Errors() != 0 {
		t.Fatalf("clean image: %v %v", err, rep)
	}
	mainSym, _ := clean.FindSymbol("main")
	text := clean.TextSegment()
	g := clean.GATs[0]
	if len(clean.GATs) != 1 {
		t.Fatalf("fixture image has %d GATs, want 1", len(clean.GATs))
	}
	// The first GAT slot some ldq loads, and the first none does.
	insts, err := axp.DecodeAll(text.Data)
	if err != nil {
		t.Fatal(err)
	}
	used := map[uint64]bool{}
	for _, in := range insts {
		if in.Op == axp.LDQ && in.Rb == axp.GP {
			used[g.GP+uint64(int64(in.Disp))] = true
		}
	}
	slot := map[bool]uint64{}
	for s := g.End - 8; s >= g.Start; s -= 8 {
		slot[used[s]] = s
	}
	if len(slot) != 2 {
		t.Fatal("fixture image lacks a loaded or an unloaded GAT slot")
	}
	putInst := func(im *objfile.Image, addr uint64, in axp.Inst) {
		w, err := axp.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		objfile.PutUint32(im.TextSegment().Data, addr-text.Addr, w)
	}
	putSlot := func(im *objfile.Image, addr uint64) {
		d := im.DataSegment()
		objfile.PutUint64(d.Data, addr-d.Addr, 0xdead_beef_0000)
	}

	cases := []struct {
		name, id string
		corrupt  func(im *objfile.Image)
	}{
		{"image validates", "DF009", func(im *objfile.Image) { im.Entry = im.DataSegment().Addr }},
		{"entry is a procedure", "DF009", func(im *objfile.Image) { im.Entry = mainSym.Addr + 4 }},
		{"procedure GP names a GAT", "DF009", func(im *objfile.Image) {
			for i := range im.Symbols {
				if im.Symbols[i].Name == "fill" {
					im.Symbols[i].GP += 0x100
				}
			}
		}},
		{"text decodes", "DF009", func(im *objfile.Image) {
			objfile.PutUint32(im.TextSegment().Data, mainSym.Addr+8-text.Addr, 0x04000000)
		}},
		{"branch lands in text", "DF009", func(im *objfile.Image) {
			putInst(im, mainSym.Addr+8, axp.BranchInst(axp.BR, axp.Zero, int32((text.End()+64-mainSym.Addr-12)/4)))
		}},
		{"bsr lands on an entry", "DF005", func(im *objfile.Image) {
			putInst(im, mainSym.Addr+8, axp.BranchInst(axp.BSR, axp.RA, 2))
		}},
		{"loaded GAT slot in the image", "DF007", func(im *objfile.Image) { putSlot(im, slot[true]) }},
		{"unloaded GAT slot in the image", "DF007", func(im *objfile.Image) { putSlot(im, slot[false]) }},
		{"GAT slot backed by data", "DF007", func(im *objfile.Image) {
			d := im.DataSegment()
			im.GATs[0].End = d.Addr + uint64(len(d.Data)) + 8
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			im := build()
			tc.corrupt(im)
			rep, err := AnalyzeImage(im)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ByID()[tc.id] == 0 || rep.Errors() == 0 {
				t.Fatalf("no %s error finding; findings: %v", tc.id, rep.Findings)
			}
		})
	}
}

// TestImageLoadNearAddressTop: a load off the zero register with a negative
// displacement addresses the top of the 64-bit space. The GAT-slot lookup
// must not let that address wrap into a segment (it used to, and read
// the segment at an offset near 2^64).
func TestImageLoadNearAddressTop(t *testing.T) {
	p, err := link.Merge(fixtureObjects(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := om.Run(context.Background(), p, om.WithLevel(om.LevelFull))
	if err != nil {
		t.Fatal(err)
	}
	im := res.Image
	mainSym, _ := im.FindSymbol("main")
	text := im.TextSegment()
	w, err := axp.Encode(axp.MemInst(axp.LDQ, axp.T0, axp.Zero, -7))
	if err != nil {
		t.Fatal(err)
	}
	objfile.PutUint32(text.Data, mainSym.Addr+8-text.Addr, w)
	if _, err := AnalyzeImage(im); err != nil {
		t.Fatal(err)
	}
}
