package objfile

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestReadTruncatedEveryPrefix cuts a valid object and a valid image at
// every byte: each proper prefix must fail with ErrTruncated, never panic
// and never decode. Fixed-width fields are read in place from the reader's
// buffer, so this pins the short-read path of every field.
func TestReadTruncatedEveryPrefix(t *testing.T) {
	var obj, img bytes.Buffer
	if err := sampleObject().Write(&obj); err != nil {
		t.Fatal(err)
	}
	if err := sampleImage().Write(&img); err != nil {
		t.Fatal(err)
	}
	decoders := []struct {
		name string
		data []byte
		read func([]byte) error
	}{
		{"object", obj.Bytes(), func(b []byte) error { _, err := Read(bytes.NewReader(b)); return err }},
		{"image", img.Bytes(), func(b []byte) error { _, err := ReadImage(bytes.NewReader(b)); return err }},
	}
	for _, d := range decoders {
		if err := d.read(d.data); err != nil {
			t.Fatalf("%s: full input rejected: %v", d.name, err)
		}
		for n := 0; n < len(d.data); n++ {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%s: %d-byte prefix panicked: %v", d.name, n, p)
					}
				}()
				if err := d.read(d.data[:n]); !errors.Is(err, ErrTruncated) {
					t.Fatalf("%s: %d-byte prefix of %d: got %v, want ErrTruncated", d.name, n, len(d.data), err)
				}
			}()
		}
	}
}

// objectWith builds a valid object with nsym named data symbols and nrel
// data relocations.
func objectWith(nsym, nrel int) []byte {
	o := New("alloc")
	o.Sections[SecData] = Section{Data: make([]byte, 8*nrel), Size: uint64(8 * nrel)}
	for i := 0; i < nsym; i++ {
		o.AddSymbol(Symbol{Name: fmt.Sprintf("s%d", i), Kind: SymData, Section: SecData, Size: 8})
	}
	for i := 0; i < nrel; i++ {
		o.Relocs = append(o.Relocs, Reloc{Kind: RRefQuad, Section: SecData, Offset: uint64(8 * i), Symbol: int32(i % nsym)})
	}
	var buf bytes.Buffer
	if err := o.Write(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestReadAllocsPerField pins Read's allocations: a fixed nine (input
// reader, buffered reader and its buffer, decoder, object, module name,
// section data, the two tables) plus one string per symbol name. Decoding the fixed-width fields of symbols and relocations must
// allocate nothing, so neither table's length moves the count otherwise.
func TestReadAllocsPerField(t *testing.T) {
	allocs := func(data []byte) int {
		return int(testing.AllocsPerRun(20, func() {
			if _, err := Read(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		}))
	}
	base := allocs(objectWith(4, 4))
	if base > 9+4 {
		t.Errorf("Read of a 4-symbol, 4-reloc object: %d allocs, want at most %d", base, 9+4)
	}
	if got := allocs(objectWith(64, 4)); got != base+60 {
		t.Errorf("60 more symbols: %d allocs, want %d (one per name)", got, base+60)
	}
	if got := allocs(objectWith(4, 256)); got != base {
		t.Errorf("252 more relocations: %d allocs, want %d", got, base)
	}
}
