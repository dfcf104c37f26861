// Package sim implements a functional and timing simulator for the Alpha
// AXP subset in internal/axp. The timing model is a simplified 21064 (the
// CPU of the paper's DECstation 3000 Model 400): dual issue of adjacent
// instructions within an aligned quadword, 3-cycle load-use latency,
// direct-mapped instruction and data caches, and a taken-branch bubble.
// Absolute cycle counts are not meant to match the 1994 hardware; the
// sensitivities the paper's optimizations exploit (fewer address loads,
// fewer multi-cycle loads, dual-issue slotting, quadword alignment of
// branch targets, cache footprint) are all modeled.
package sim

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

const (
	pageBits = 16
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// arena is a flat contiguous region backing a reserved address range. Both
// bounds are page-aligned, so any naturally-aligned access that starts
// inside an arena lies entirely inside it and page-map fallback never sees
// an address an arena covers.
type arena struct {
	base, size uint64
	data       []byte
}

// Memory is a sparse little-endian byte-addressable memory. Known-extent
// regions (the image's static segments and the stack's top page) are
// reserved as flat arenas checked first on every access; the page map is
// the fallback for addresses outside every arena, so arbitrary sparse
// traffic (a deep stack included) still works.
type Memory struct {
	arenas []arena
	pages  map[uint64][]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64][]byte)}
}

// Reserve backs [addr, addr+size) with a flat zero-initialized arena,
// page-aligning the bounds. Overlapping or adjacent reservations merge;
// pages already populated in the sparse map are absorbed so existing
// contents stay visible. Arenas are searched in reservation order on the
// hot path, so callers should reserve the most-accessed regions first.
func (m *Memory) Reserve(addr, size uint64) {
	if size == 0 {
		return
	}
	base := addr &^ uint64(pageMask)
	end := (addr + size + pageMask) &^ uint64(pageMask)
	var absorbed []arena
	for changed := true; changed; {
		changed = false
		for i := range m.arenas {
			a := m.arenas[i]
			if a.base <= end && base <= a.base+a.size {
				if a.base < base {
					base = a.base
				}
				if ae := a.base + a.size; ae > end {
					end = ae
				}
				absorbed = append(absorbed, a)
				m.arenas = append(m.arenas[:i], m.arenas[i+1:]...)
				changed = true
				break
			}
		}
	}
	na := arena{base: base, size: end - base, data: make([]byte, end-base)}
	for _, a := range absorbed {
		copy(na.data[a.base-base:], a.data)
	}
	for pn := base >> pageBits; pn < end>>pageBits; pn++ {
		if p, ok := m.pages[pn]; ok {
			copy(na.data[pn<<pageBits-base:], p)
			delete(m.pages, pn)
		}
	}
	m.arenas = append(m.arenas, na)
}

func (m *Memory) page(addr uint64, create bool) []byte {
	pn := addr >> pageBits
	p, ok := m.pages[pn]
	if !ok && create {
		p = make([]byte, pageSize)
		m.pages[pn] = p
	}
	return p
}

// LoadBytes copies data into memory at addr.
func (m *Memory) LoadBytes(addr uint64, data []byte) {
	for len(data) > 0 {
		var dst []byte
		if a := m.arenaFor(addr); a != nil {
			dst = a.data[addr-a.base:]
		} else {
			dst = m.page(addr, true)[addr&pageMask:]
		}
		n := copy(dst, data)
		data = data[n:]
		addr += uint64(n)
	}
}

// arenaFor returns the arena containing addr, or nil.
func (m *Memory) arenaFor(addr uint64) *arena {
	for i := range m.arenas {
		a := &m.arenas[i]
		if addr-a.base < a.size {
			return a
		}
	}
	return nil
}

// Read64 reads an aligned quadword.
func (m *Memory) Read64(addr uint64) (uint64, error) {
	if addr&7 != 0 {
		return 0, fmt.Errorf("sim: unaligned quadword read at %#x", addr)
	}
	for i := range m.arenas {
		a := &m.arenas[i]
		if off := addr - a.base; off < a.size {
			return binary.LittleEndian.Uint64(a.data[off:]), nil
		}
	}
	p := m.page(addr, false)
	if p == nil {
		return 0, nil
	}
	return binary.LittleEndian.Uint64(p[addr&pageMask:]), nil
}

// Write64 writes an aligned quadword.
func (m *Memory) Write64(addr uint64, v uint64) error {
	if addr&7 != 0 {
		return fmt.Errorf("sim: unaligned quadword write at %#x", addr)
	}
	for i := range m.arenas {
		a := &m.arenas[i]
		if off := addr - a.base; off < a.size {
			binary.LittleEndian.PutUint64(a.data[off:], v)
			return nil
		}
	}
	p := m.page(addr, true)
	binary.LittleEndian.PutUint64(p[addr&pageMask:], v)
	return nil
}

// Read32 reads an aligned longword.
func (m *Memory) Read32(addr uint64) (uint32, error) {
	if addr&3 != 0 {
		return 0, fmt.Errorf("sim: unaligned longword read at %#x", addr)
	}
	for i := range m.arenas {
		a := &m.arenas[i]
		if off := addr - a.base; off < a.size {
			return binary.LittleEndian.Uint32(a.data[off:]), nil
		}
	}
	p := m.page(addr, false)
	if p == nil {
		return 0, nil
	}
	return binary.LittleEndian.Uint32(p[addr&pageMask:]), nil
}

// Write32 writes an aligned longword.
func (m *Memory) Write32(addr uint64, v uint32) error {
	if addr&3 != 0 {
		return fmt.Errorf("sim: unaligned longword write at %#x", addr)
	}
	for i := range m.arenas {
		a := &m.arenas[i]
		if off := addr - a.base; off < a.size {
			binary.LittleEndian.PutUint32(a.data[off:], v)
			return nil
		}
	}
	p := m.page(addr, true)
	binary.LittleEndian.PutUint32(p[addr&pageMask:], v)
	return nil
}

// Cache is a direct-mapped cache model tracking only tags.
type Cache struct {
	lineBits uint
	mask     uint64 // sets - 1; sets is always a power of two
	tags     []uint64
	valid    []bool
	// Stats
	Accesses uint64
	Misses   uint64
}

// NewCache builds a direct-mapped cache of the given total size and line
// size. Indexing uses line & (sets-1), which silently aliases distinct
// sets unless the set count is a power of two, so a non-power-of-two
// sizeBytes/lineBytes ratio is rounded DOWN to the nearest power of two
// (modeling the largest buildable direct-mapped cache within the budget).
// A cache smaller than one line is a configuration error and panics.
func NewCache(sizeBytes, lineBytes int) *Cache {
	lineBits := uint(0)
	for 1<<lineBits < lineBytes {
		lineBits++
	}
	sets := sizeBytes / lineBytes
	if sets < 1 {
		panic(fmt.Sprintf("sim: cache of %d bytes is smaller than one %d-byte line", sizeBytes, lineBytes))
	}
	if sets&(sets-1) != 0 {
		sets = 1 << (bits.Len(uint(sets)) - 1)
	}
	return &Cache{
		lineBits: lineBits,
		mask:     uint64(sets - 1),
		tags:     make([]uint64, sets),
		valid:    make([]bool, sets),
	}
}

// Sets returns the number of sets (lines) in the cache.
func (c *Cache) Sets() int { return len(c.tags) }

// Access touches addr and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	line := addr >> c.lineBits
	set := line & c.mask
	if c.valid[set] && c.tags[set] == line {
		return true
	}
	c.valid[set] = true
	c.tags[set] = line
	c.Misses++
	return false
}

// Reset invalidates the cache.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.Accesses, c.Misses = 0, 0
}
