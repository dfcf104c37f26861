package objfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary format constants.
const (
	objMagic = "AXPO"
	imgMagic = "AXPX"
	version  = 1
)

// encoder serializes the binary format. An encoding runs its fields through
// the encoder twice (see encode): the first pass, with buf nil, only counts
// bytes; the second appends into a buffer allocated at exactly that count,
// so the format is described once and no buffer ever grows.
type encoder struct {
	n   int
	buf []byte
}

// encode returns fields' encoding in one exact-sized slice.
func encode(fields func(*encoder)) []byte {
	var size encoder
	fields(&size)
	e := encoder{buf: make([]byte, 0, size.n)}
	fields(&e)
	return e.buf
}

func (e *encoder) u8(v uint8) {
	e.n++
	if e.buf != nil {
		e.buf = append(e.buf, v)
	}
}

func (e *encoder) u32(v uint32) {
	e.n += 4
	if e.buf != nil {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	}
}

func (e *encoder) u64(v uint64) {
	e.n += 8
	if e.buf != nil {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	}
}

func (e *encoder) i64(v int64) { e.u64(uint64(v)) }

func (e *encoder) raw(s string) {
	e.n += len(s)
	if e.buf != nil {
		e.buf = append(e.buf, s...)
	}
}

func (e *encoder) bytes(b []byte) {
	e.u64(uint64(len(b)))
	e.n += len(b)
	if e.buf != nil {
		e.buf = append(e.buf, b...)
	}
}

func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	e.raw(s)
}

// reader decodes the binary format. Fixed-width fields are read in place
// from the bufio.Reader's buffer (Peek + Discard), so decoding a field never
// allocates; the first short read latches a typed ErrTruncated error and every
// later read returns zero.
type reader struct {
	r   *bufio.Reader
	err error
}

func (rd *reader) u8() uint8 {
	if rd.err != nil {
		return 0
	}
	b, err := rd.r.ReadByte()
	rd.err = truncated(err)
	return b
}

// truncated maps short reads onto the typed sentinel.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return err
}

// next returns the next n bytes (n at most the reader's buffer size) and
// consumes them. The slice aliases the reader's buffer and is valid only
// until the next read. On a short read it returns nil and latches the error.
func (rd *reader) next(n int) []byte {
	if rd.err != nil {
		return nil
	}
	b, err := rd.r.Peek(n)
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		rd.err = truncated(err)
		return nil
	}
	_, _ = rd.r.Discard(n) // cannot fail: Peek has just buffered n bytes
	return b
}

func (rd *reader) u32() uint32 {
	if b := rd.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (rd *reader) u64() uint64 {
	if b := rd.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (rd *reader) i64() int64 { return int64(rd.u64()) }

// magic reads the 4-byte format tag.
func (rd *reader) magic() (m [4]byte) {
	copy(m[:], rd.next(len(m)))
	return m
}

func (rd *reader) raw(b []byte) {
	if rd.err == nil {
		_, err := io.ReadFull(rd.r, b)
		rd.err = truncated(err)
	}
}

// length reads a declared byte length and bounds it by limit.
func (rd *reader) length(limit uint64) int {
	n := rd.u64()
	if rd.err == nil && n > limit {
		rd.err = fmt.Errorf("%w: declared length %d exceeds limit %d", ErrTooLarge, n, limit)
	}
	if rd.err != nil {
		return 0
	}
	return int(n)
}

// blobChunk is the most a byte array's buffer may run ahead of the bytes
// read into it. An array up to this size (every section and segment of the
// suite's objects and images) is still read with one exact allocation.
const blobChunk = 64 << 10

// bytes reads a length-prefixed byte array. The declared length is only a
// claim about input that may never arrive, so the buffer starts at
// blobChunk and doubles as bytes fill it: a short input costs at most twice
// what it holds, not the declared length (up to maxBlob).
func (rd *reader) bytes(limit uint64) []byte {
	n := rd.length(limit)
	if n == 0 {
		return nil
	}
	b := make([]byte, min(n, blobChunk))
	rd.raw(b)
	for len(b) < n && rd.err == nil {
		grown := make([]byte, min(n, 2*len(b)))
		copy(grown, b)
		rd.raw(grown[len(b):])
		b = grown
	}
	return b
}

// str reads a length-prefixed string, converting it straight out of the
// reader's buffer when it fits there.
func (rd *reader) str() string {
	n := rd.length(1 << 20)
	if n == 0 {
		return ""
	}
	if n <= rd.r.Size() {
		return string(rd.next(n))
	}
	b := make([]byte, n)
	rd.raw(b)
	return string(b)
}

// count reads a declared element count, rejecting one no well-formed input
// carries.
func (rd *reader) count(what string) uint64 {
	n := rd.u64()
	if rd.err == nil && n > math.MaxInt32 {
		rd.err = fmt.Errorf("%w: %s count %d", ErrTooLarge, what, n)
	}
	if rd.err != nil {
		return 0
	}
	return n
}

// maxPrealloc caps how many elements a declared count may reserve up front:
// a corrupt header can then cost at most this much before the short read
// that exposes it, and a real table longer than this just grows by append.
const maxPrealloc = 1 << 12

// prealloc returns an empty slice sized for n declared elements (nil for
// none, as an append-built table would be).
func prealloc[T any](n uint64) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, min(n, maxPrealloc))
}

// maxBlob bounds any single serialized byte array, as a corruption guard.
const maxBlob = 1 << 30

// Encode returns the object module's serialized form in one buffer of
// exactly its length.
func (o *Object) Encode() []byte { return encode(o.encode) }

// Write writes the object module's serialized form (Encode) to w.
func (o *Object) Write(w io.Writer) error {
	_, err := w.Write(o.Encode())
	return err
}

func (o *Object) encode(e *encoder) {
	e.raw(objMagic)
	e.u32(version)
	e.str(o.Name)
	for k := SectionKind(0); k < NumSections; k++ {
		s := &o.Sections[k]
		e.u64(s.Size)
		e.bytes(s.Data)
	}
	e.u64(uint64(len(o.Symbols)))
	for _, sym := range o.Symbols {
		e.str(sym.Name)
		e.u8(uint8(sym.Kind))
		e.u8(uint8(sym.Section))
		e.u64(sym.Value)
		e.u64(sym.End)
		e.u64(sym.Size)
		e.u64(sym.Align)
		flags := uint8(0)
		if sym.Exported {
			flags |= 1
		}
		if sym.UsesGP {
			flags |= 2
		}
		e.u8(flags)
	}
	e.u64(uint64(len(o.Relocs)))
	for _, r := range o.Relocs {
		e.u8(uint8(r.Kind))
		e.u8(uint8(r.Section))
		e.u64(r.Offset)
		e.u32(uint32(r.Symbol))
		e.i64(r.Addend)
		e.u64(r.Extra)
	}
}

// Read deserializes an object module written by Write.
func Read(r io.Reader) (*Object, error) {
	rd := &reader{r: bufio.NewReader(r)}
	magic := rd.magic()
	if rd.err == nil && string(magic[:]) != objMagic {
		return nil, fmt.Errorf("objfile: %w: bad magic %q", ErrBadMagic, magic[:])
	}
	if v := rd.u32(); rd.err == nil && v != version {
		return nil, fmt.Errorf("objfile: %w: unsupported version %d", ErrBadMagic, v)
	}
	o := New(rd.str())
	for k := SectionKind(0); k < NumSections; k++ {
		o.Sections[k].Size = rd.u64()
		o.Sections[k].Data = rd.bytes(maxBlob)
	}
	nsym := rd.count("symbol")
	o.Symbols = prealloc[Symbol](nsym)
	for i := uint64(0); i < nsym && rd.err == nil; i++ {
		var sym Symbol
		sym.Name = rd.str()
		sym.Kind = SymbolKind(rd.u8())
		sym.Section = SectionKind(rd.u8())
		sym.Value = rd.u64()
		sym.End = rd.u64()
		sym.Size = rd.u64()
		sym.Align = rd.u64()
		flags := rd.u8()
		sym.Exported = flags&1 != 0
		sym.UsesGP = flags&2 != 0
		o.Symbols = append(o.Symbols, sym)
	}
	nrel := rd.count("reloc")
	o.Relocs = prealloc[Reloc](nrel)
	for i := uint64(0); i < nrel && rd.err == nil; i++ {
		var rel Reloc
		rel.Kind = RelocKind(rd.u8())
		rel.Section = SectionKind(rd.u8())
		rel.Offset = rd.u64()
		rel.Symbol = int32(rd.u32())
		rel.Addend = rd.i64()
		rel.Extra = rd.u64()
		o.Relocs = append(o.Relocs, rel)
	}
	if rd.err != nil {
		return nil, fmt.Errorf("objfile: read: %w", rd.err)
	}
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("objfile: read: %w", err)
	}
	return o, nil
}
