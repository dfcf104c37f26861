package objfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
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

// TestReadHugeDeclaredSection: a 40-byte object whose first section
// declares 1 GiB of data must fail as truncated after allocating about what
// it holds, not the declared length.
func TestReadHugeDeclaredSection(t *testing.T) {
	var b []byte
	b = append(b, objMagic...)
	b = binary.LittleEndian.AppendUint32(b, version)
	b = binary.LittleEndian.AppendUint64(b, 1)
	b = append(b, 'h')
	b = binary.LittleEndian.AppendUint64(b, maxBlob) // section size
	b = binary.LittleEndian.AppendUint64(b, maxBlob) // declared data length
	b = append(b, "abcdefg"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("%d-byte object declaring %d bytes: got %v, want ErrTruncated", len(b), maxBlob, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("%d-byte object allocated %d bytes, want under 1 MB", len(b), got)
	}
}

// TestReadLargeBlobChunked: byte arrays longer than one chunk decode
// intact, at exact and inexact multiples of it.
func TestReadLargeBlobChunked(t *testing.T) {
	for _, n := range []int{blobChunk, blobChunk + 1, 3*blobChunk + 5} {
		o := New("big")
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 7)
		}
		o.Sections[SecData] = Section{Data: data, Size: uint64(n)}
		var buf bytes.Buffer
		if err := o.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%d-byte section: %v", n, err)
		}
		if !bytes.Equal(got.Sections[SecData].Data, data) || cap(got.Sections[SecData].Data) != n {
			t.Errorf("%d-byte section: decoded %d bytes (cap %d), want the input exactly",
				n, len(got.Sections[SecData].Data), cap(got.Sections[SecData].Data))
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
