package objfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Canonical Alpha/OSF memory layout bases used by the linker and OM.
const (
	// TextBase is the load address of the text segment.
	TextBase uint64 = 0x1_2000_0000
	// DataBase is the load address of the data segment (.lita, .sdata,
	// .data, .sbss, .bss in that order).
	DataBase uint64 = 0x1_4000_0000
	// SharedTextBase / SharedDataBase are the load regions of
	// dynamically-linked shared libraries, far from the static part (a
	// shared library "may be mapped to an address far from the table for
	// the rest of the program").
	SharedTextBase uint64 = 0x1_6000_0000
	SharedDataBase uint64 = 0x1_8000_0000
	// StackTop is the initial stack pointer handed to programs.
	StackTop uint64 = 0x1_2000_0000 - 0x10000
	// StackSize is the reserved stack extent below StackTop.
	StackSize uint64 = 1 << 22
)

// ImageSymbol names an address in a linked executable. Procedures carry the
// GP value their code expects.
type ImageSymbol struct {
	Name string
	Addr uint64
	Size uint64
	Kind SymbolKind
	GP   uint64 // procedures only: the GP value for this procedure
}

// Segment is a contiguous loadable region.
type Segment struct {
	Name string
	Addr uint64
	Data []byte
	// ZeroSize extends the segment with zero-initialized bytes (bss).
	ZeroSize uint64
}

// End returns the first address past the segment, including bss extent.
func (s *Segment) End() uint64 { return s.Addr + uint64(len(s.Data)) + s.ZeroSize }

// Image is a fully linked executable: loadable segments, an entry point, and
// a symbol table retained for simulation, statistics, and disassembly.
type Image struct {
	Entry    uint64
	Segments []Segment
	Symbols  []ImageSymbol
	// GATs records each global address table's [start,end) address range
	// and its GP value; statistics and the paper's GAT-size numbers read
	// this.
	GATs []GATRange
}

// GATRange describes one global address table in the linked image.
type GATRange struct {
	Start, End uint64
	GP         uint64
}

// GATBytes returns the total size of all GATs in the image.
func (im *Image) GATBytes() uint64 {
	var n uint64
	for _, g := range im.GATs {
		n += g.End - g.Start
	}
	return n
}

// TextSegment returns the segment named ".text", or nil.
func (im *Image) TextSegment() *Segment { return im.segment(".text") }

// DataSegment returns the segment named ".data", or nil.
func (im *Image) DataSegment() *Segment { return im.segment(".data") }

func (im *Image) segment(name string) *Segment {
	for i := range im.Segments {
		if im.Segments[i].Name == name {
			return &im.Segments[i]
		}
	}
	return nil
}

// FindSymbol returns the image symbol with the given name.
func (im *Image) FindSymbol(name string) (ImageSymbol, bool) {
	for _, s := range im.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return ImageSymbol{}, false
}

// SortSymbols orders the symbol table by address then name, for stable output.
func (im *Image) SortSymbols() {
	sort.Slice(im.Symbols, func(i, j int) bool {
		if im.Symbols[i].Addr != im.Symbols[j].Addr {
			return im.Symbols[i].Addr < im.Symbols[j].Addr
		}
		return im.Symbols[i].Name < im.Symbols[j].Name
	})
}

// Validate checks segment sanity: sorted, non-overlapping, text present.
func (im *Image) Validate() error {
	if len(im.Segments) == 0 {
		return fmt.Errorf("image: no segments")
	}
	for i := range im.Segments {
		if i > 0 && im.Segments[i].Addr < im.Segments[i-1].End() {
			return fmt.Errorf("image: segment %s (%#x) overlaps %s (ends %#x)",
				im.Segments[i].Name, im.Segments[i].Addr,
				im.Segments[i-1].Name, im.Segments[i-1].End())
		}
	}
	if im.TextSegment() == nil {
		return fmt.Errorf("image: no .text segment")
	}
	for i := range im.Segments {
		seg := &im.Segments[i]
		if isTextName(seg.Name) && im.Entry >= seg.Addr && im.Entry < seg.End() {
			return nil
		}
	}
	return fmt.Errorf("image: entry %#x outside every text segment", im.Entry)
}

func isTextName(name string) bool {
	return len(name) >= 5 && name[:5] == ".text"
}

// TextSegments returns every executable segment (".text" and ".text.so").
func (im *Image) TextSegments() []*Segment {
	var out []*Segment
	for i := range im.Segments {
		if isTextName(im.Segments[i].Name) {
			out = append(out, &im.Segments[i])
		}
	}
	return out
}

// Encode returns the image's serialized form in one buffer of exactly its
// length.
func (im *Image) Encode() []byte { return encode(im.encode) }

// Write writes the image's serialized form (Encode) to w.
func (im *Image) Write(w io.Writer) error {
	_, err := w.Write(im.Encode())
	return err
}

func (im *Image) encode(e *encoder) {
	e.raw(imgMagic)
	e.u32(version)
	e.u64(im.Entry)
	e.u64(uint64(len(im.Segments)))
	for _, s := range im.Segments {
		e.str(s.Name)
		e.u64(s.Addr)
		e.bytes(s.Data)
		e.u64(s.ZeroSize)
	}
	e.u64(uint64(len(im.Symbols)))
	for _, s := range im.Symbols {
		e.str(s.Name)
		e.u64(s.Addr)
		e.u64(s.Size)
		e.u8(uint8(s.Kind))
		e.u64(s.GP)
	}
	e.u64(uint64(len(im.GATs)))
	for _, g := range im.GATs {
		e.u64(g.Start)
		e.u64(g.End)
		e.u64(g.GP)
	}
}

// ReadImage deserializes an image written by Write.
func ReadImage(r io.Reader) (*Image, error) {
	rd := &reader{r: bufio.NewReader(r)}
	magic := rd.magic()
	if rd.err == nil && string(magic[:]) != imgMagic {
		return nil, fmt.Errorf("objfile: %w: bad image magic %q", ErrBadMagic, magic[:])
	}
	if v := rd.u32(); rd.err == nil && v != version {
		return nil, fmt.Errorf("objfile: %w: unsupported image version %d", ErrBadMagic, v)
	}
	im := &Image{Entry: rd.u64()}
	nseg := rd.u64()
	im.Segments = prealloc[Segment](nseg)
	for i := uint64(0); i < nseg && rd.err == nil; i++ {
		var s Segment
		s.Name = rd.str()
		s.Addr = rd.u64()
		s.Data = rd.bytes(maxBlob)
		s.ZeroSize = rd.u64()
		im.Segments = append(im.Segments, s)
	}
	nsym := rd.u64()
	im.Symbols = prealloc[ImageSymbol](nsym)
	for i := uint64(0); i < nsym && rd.err == nil; i++ {
		var s ImageSymbol
		s.Name = rd.str()
		s.Addr = rd.u64()
		s.Size = rd.u64()
		s.Kind = SymbolKind(rd.u8())
		s.GP = rd.u64()
		im.Symbols = append(im.Symbols, s)
	}
	ngat := rd.u64()
	im.GATs = prealloc[GATRange](ngat)
	for i := uint64(0); i < ngat && rd.err == nil; i++ {
		var g GATRange
		g.Start = rd.u64()
		g.End = rd.u64()
		g.GP = rd.u64()
		im.GATs = append(im.GATs, g)
	}
	if rd.err != nil {
		return nil, fmt.Errorf("objfile: read image: %w", rd.err)
	}
	if err := im.Validate(); err != nil {
		return nil, err
	}
	return im, nil
}

// PutUint64 stores v little-endian at data[off:].
func PutUint64(data []byte, off uint64, v uint64) {
	binary.LittleEndian.PutUint64(data[off:], v)
}

// Uint64At reads a little-endian quadword at data[off:].
func Uint64At(data []byte, off uint64) uint64 {
	return binary.LittleEndian.Uint64(data[off:])
}

// PutUint32 stores v little-endian at data[off:].
func PutUint32(data []byte, off uint64, v uint32) {
	binary.LittleEndian.PutUint32(data[off:], v)
}

// Uint32At reads a little-endian word at data[off:].
func Uint32At(data []byte, off uint64) uint32 {
	return binary.LittleEndian.Uint32(data[off:])
}
