package objfile

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleObject() *Object {
	o := New("mod1")
	o.Sections[SecText].Data = make([]byte, 64)
	o.Sections[SecText].Size = 64
	o.Sections[SecLita].Data = make([]byte, 16)
	o.Sections[SecLita].Size = 16
	o.Sections[SecSData].Data = []byte{1, 2, 3, 4, 5, 6, 7, 8}
	o.Sections[SecSData].Size = 8
	o.Sections[SecBss].Size = 128
	pi := o.AddSymbol(Symbol{Name: "f", Kind: SymProc, Section: SecText, Value: 0, End: 64, Exported: true, UsesGP: true})
	vi := o.AddSymbol(Symbol{Name: "v", Kind: SymData, Section: SecSData, Value: 0, Size: 8, Exported: true, Align: 8})
	ui := o.AddSymbol(Symbol{Name: "g", Kind: SymUndef, Section: SecNone})
	o.AddSymbol(Symbol{Name: "c", Kind: SymCommon, Section: SecNone, Size: 40, Align: 8})
	o.Relocs = append(o.Relocs,
		Reloc{Kind: RRefQuad, Section: SecLita, Offset: 0, Symbol: vi},
		Reloc{Kind: RRefQuad, Section: SecLita, Offset: 8, Symbol: ui, Addend: 16},
		Reloc{Kind: RLiteral, Section: SecText, Offset: 8, Symbol: vi, Extra: 0},
		Reloc{Kind: RLituseBase, Section: SecText, Offset: 12, Symbol: -1, Extra: 8},
		Reloc{Kind: RGPDisp, Section: SecText, Offset: 0, Symbol: pi, Addend: 0, Extra: 4},
		Reloc{Kind: RBrAddr, Section: SecText, Offset: 20, Symbol: pi},
	)
	return o
}

func TestObjectRoundTrip(t *testing.T) {
	o := sampleObject()
	if err := o.Validate(); err != nil {
		t.Fatalf("sample object invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := o.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if enc := o.Encode(); len(enc) != cap(enc) || len(enc) != buf.Len() {
		t.Errorf("Write gave %d bytes, Encode %d of a %d-byte buffer", buf.Len(), len(enc), cap(enc))
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, back) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", o, back)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not an object file at all")); err == nil {
		t.Fatal("expected error for garbage input")
	}
	if _, err := Read(strings.NewReader("AXPO")); err == nil {
		t.Fatal("expected error for truncated input")
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleObject().Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail, never panic.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		n := r.Intn(len(full))
		if _, err := Read(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes unexpectedly parsed", n, len(full))
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Object)
	}{
		{"ragged text", func(o *Object) {
			o.Sections[SecText].Data = o.Sections[SecText].Data[:62]
			o.Sections[SecText].Size = 62
		}},
		{"ragged lita", func(o *Object) {
			o.Sections[SecLita].Data = o.Sections[SecLita].Data[:12]
			o.Sections[SecLita].Size = 12
		}},
		{"size mismatch", func(o *Object) { o.Sections[SecData].Size = 5 }},
		{"bss with data", func(o *Object) { o.Sections[SecBss].Data = []byte{1} }},
		{"proc out of range", func(o *Object) { o.Symbols[0].End = 1000 }},
		{"proc wrong section", func(o *Object) { o.Symbols[0].Section = SecData }},
		{"data out of range", func(o *Object) { o.Symbols[1].Size = 100 }},
		{"zero-size common", func(o *Object) { o.Symbols[3].Size = 0 }},
		{"reloc bad symbol", func(o *Object) { o.Relocs[0].Symbol = 99 }},
		{"literal outside text", func(o *Object) { o.Relocs[2].Section = SecData }},
		{"misaligned literal", func(o *Object) { o.Relocs[2].Offset = 10 }},
		{"refquad in text", func(o *Object) { o.Relocs[0].Section = SecText }},
		{"misaligned refquad", func(o *Object) { o.Relocs[0].Offset = 4 }},
		{"reloc past end", func(o *Object) { o.Relocs[2].Offset = 64 }},
	}
	for _, c := range cases {
		o := sampleObject()
		c.mutate(o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestFindSymbol(t *testing.T) {
	o := sampleObject()
	if i := o.FindSymbol("v"); i != 1 {
		t.Errorf("FindSymbol(v) = %d, want 1", i)
	}
	if i := o.FindSymbol("nosuch"); i != -1 {
		t.Errorf("FindSymbol(nosuch) = %d, want -1", i)
	}
	if n := o.LitaSlots(); n != 2 {
		t.Errorf("LitaSlots = %d, want 2", n)
	}
}

func sampleImage() *Image {
	text := make([]byte, 32)
	data := make([]byte, 24)
	return &Image{
		Entry: TextBase,
		Segments: []Segment{
			{Name: ".text", Addr: TextBase, Data: text},
			{Name: ".data", Addr: DataBase, Data: data, ZeroSize: 64},
		},
		Symbols: []ImageSymbol{
			{Name: "main", Addr: TextBase, Size: 32, Kind: SymProc, GP: DataBase + 32752},
			{Name: "v", Addr: DataBase + 8, Size: 8, Kind: SymData},
		},
		GATs: []GATRange{{Start: DataBase, End: DataBase + 8, GP: DataBase + 32752}},
	}
}

func TestImageRoundTrip(t *testing.T) {
	im := sampleImage()
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := im.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(im, back) {
		t.Fatalf("image round trip mismatch:\n in=%+v\nout=%+v", im, back)
	}
	if got := back.GATBytes(); got != 8 {
		t.Errorf("GATBytes = %d, want 8", got)
	}
}

func TestImageQueries(t *testing.T) {
	im := sampleImage()
	if s, ok := im.FindSymbol("main"); !ok || s.Addr != TextBase {
		t.Errorf("FindSymbol(main) = %+v, %v", s, ok)
	}
	if _, ok := im.FindSymbol("nosuch"); ok {
		t.Error("FindSymbol(nosuch) should fail")
	}
	if im.TextSegment() == nil || im.DataSegment() == nil {
		t.Error("segment lookups failed")
	}
}

func TestImageValidateErrors(t *testing.T) {
	im := sampleImage()
	im.Segments[1].Addr = TextBase + 16 // overlap text
	if err := im.Validate(); err == nil {
		t.Error("expected overlap error")
	}
	im = sampleImage()
	im.Entry = DataBase
	if err := im.Validate(); err == nil {
		t.Error("expected entry-outside-text error")
	}
	im = sampleImage()
	im.Segments = im.Segments[:0]
	if err := im.Validate(); err == nil {
		t.Error("expected no-segments error")
	}
}

func TestByteHelpersQuick(t *testing.T) {
	f := func(v uint64, w uint32) bool {
		buf := make([]byte, 16)
		PutUint64(buf, 0, v)
		PutUint32(buf, 8, w)
		return Uint64At(buf, 0) == v && Uint32At(buf, 8) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
