// Package buildcache is a content-addressed cache for compiled object
// modules. A cache key is the SHA-256 of everything that determines the
// compiler's output — unit name, every source file (name and text), and the
// full compilation option set — so a hit is always safe to reuse, in the
// spirit of WHOPR-style incremental whole-program builds: unchanged
// compilation inputs are never recompiled.
//
// Entries hold serialized bytes. An object lookup decodes a fresh
// *objfile.Object, so callers may treat cached results exactly like freshly
// compiled ones; a linked image goes in and comes out as its serialized
// bytes, one read-only slice shared by every lookup. A Cache is optionally
// backed by a directory, letting repeated omrepro or benchmark runs across
// processes skip compilation entirely; with an empty directory name the
// cache is memory-only.
//
// All methods are safe for concurrent use, and every method tolerates a nil
// receiver (acting as a pass-through with no caching), so callers can thread
// an optional cache without branching.
package buildcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/objfile"
	"repro/internal/tcc"
)

// keyVersion invalidates old entries when the key schema or the object
// format changes incompatibly.
const keyVersion = "omcache-v1"

// Stats counts cache traffic. A miss corresponds one-to-one with an actual
// compilation performed by Compile, so "zero new misses" means "zero
// compiles".
type Stats struct {
	// Hits counts lookups served from the cache (memory or disk).
	Hits uint64
	// Misses counts lookups that found nothing; Compile turns each miss
	// into exactly one compilation.
	Misses uint64
	// DiskHits counts the subset of Hits served from the backing directory
	// rather than process memory.
	DiskHits uint64
	// ImageHits / ImageMisses count linked-image lookups (GetImage); they
	// are tallied separately so the compile-count identity above survives.
	ImageHits   uint64
	ImageMisses uint64
}

// Cache is a content-addressed store of serialized object modules.
type Cache struct {
	dir string

	mu    sync.Mutex
	mem   map[string][]byte
	stats Stats
}

// New creates a cache. A non-empty dir makes it persistent: entries are
// written as files under dir (created if absent) and survive the process.
func New(dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o777); err != nil {
			return nil, fmt.Errorf("buildcache: %w", err)
		}
	}
	return &Cache{dir: dir, mem: make(map[string][]byte)}, nil
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Key derives the content address of a compilation: unit name, sources, and
// options all feed the hash, field by field, with length framing so that
// adjacent fields cannot alias.
func Key(unit string, sources []tcc.Source, opts tcc.Options) string {
	h := sha256.New()
	writeStr := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeInt := func(v int64) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(v))
		h.Write(n[:])
	}
	writeBool := func(b bool) {
		if b {
			writeInt(1)
		} else {
			writeInt(0)
		}
	}
	writeStr(keyVersion)
	writeStr(unit)
	writeInt(int64(len(sources)))
	for _, src := range sources {
		writeStr(src.Name)
		writeStr(src.Text)
	}
	writeBool(opts.Schedule)
	writeBool(opts.OptimizeStaticCalls)
	writeBool(opts.Inline)
	writeInt(opts.SmallDataBytes)
	writeInt(opts.OptimisticGP)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Get returns a freshly decoded object for the key, if cached.
func (c *Cache) Get(key string) (*objfile.Object, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	data, ok := c.mem[key]
	disk := false
	if !ok && c.dir != "" {
		if b, err := os.ReadFile(c.entryPath(key)); err == nil {
			data, ok, disk = b, true, true
			c.mem[key] = b
		}
	}
	c.mu.Unlock()
	var obj *objfile.Object
	if ok {
		o, err := objfile.Read(bytes.NewReader(data))
		if err != nil {
			// A corrupt entry (e.g. a truncated file from a killed
			// process) behaves like a miss; the caller recompiles and
			// overwrites it.
			ok = false
		} else {
			obj = o
		}
	}
	c.mu.Lock()
	if ok {
		c.stats.Hits++
		if disk {
			c.stats.DiskHits++
		}
	} else {
		c.stats.Misses++
	}
	c.mu.Unlock()
	return obj, ok
}

// Put stores the object under the key, in memory and (when configured) on
// disk.
func (c *Cache) Put(key string, obj *objfile.Object) error {
	if c == nil {
		return nil
	}
	return c.store(key, obj.Encode(), c.entryPath(key))
}

// store keeps data under the key in memory and, when the cache has a
// directory, writes it to path through a temporary file and rename so that
// readers never observe a partial entry.
func (c *Cache) store(key string, data []byte, path string) error {
	c.mu.Lock()
	c.mem[key] = data
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("buildcache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("buildcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("buildcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("buildcache: %w", err)
	}
	return nil
}

// Compile is a caching tcc.Compile: on a hit it returns the cached object
// without invoking the compiler; on a miss it compiles and stores the
// result. A nil *Cache compiles unconditionally.
func (c *Cache) Compile(unit string, sources []tcc.Source, opts tcc.Options) (*objfile.Object, error) {
	if c == nil {
		return tcc.Compile(unit, sources, opts)
	}
	key := Key(unit, sources, opts)
	if obj, ok := c.Get(key); ok {
		return obj, nil
	}
	obj, err := tcc.Compile(unit, sources, opts)
	if err != nil {
		return nil, err
	}
	if err := c.Put(key, obj); err != nil {
		return nil, err
	}
	return obj, nil
}

func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, key+".o")
}

// ImageKey derives the content address of a linked image: the serialized
// input objects, the link/optimization configuration, and the content hash
// of the profile steering the layout ("" when unprofiled). Anything that
// influences the emitted image must feed this key — in particular a changed
// profile yields a changed key, so a warm rerun can never reuse a layout
// computed from stale counts.
func ImageKey(objs []*objfile.Object, variant, profileHash string) string {
	h := sha256.New()
	writeStr := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeStr(keyVersion + "/image")
	writeStr(variant)
	writeStr(profileHash)
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(objs)))
	h.Write(n[:])
	for _, obj := range objs {
		data := obj.Encode()
		binary.LittleEndian.PutUint64(n[:], uint64(len(data)))
		h.Write(n[:])
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// GetImage returns the serialized linked image stored under the key, if
// cached. The slice is the cache's own copy, shared by every caller:
// callers must not modify it. An entry read from the backing directory is
// decoded once, on that first read, and kept only if it is a well-formed
// image; a corrupt file (say, a truncated write by a killed process) is a
// miss, which the caller's PutImage then overwrites.
func (c *Cache) GetImage(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	data, ok := c.mem[key]
	c.mu.Unlock()
	if !ok && c.dir != "" {
		if b, err := os.ReadFile(c.imagePath(key)); err == nil {
			if _, err := objfile.ReadImage(bytes.NewReader(b)); err == nil {
				data, ok = b, true
			}
		}
	}
	c.mu.Lock()
	if ok {
		if cur, cached := c.mem[key]; cached {
			data = cur
		} else {
			c.mem[key] = data
		}
		c.stats.ImageHits++
	} else {
		c.stats.ImageMisses++
	}
	c.mu.Unlock()
	return data, ok
}

// PutImage stores a serialized linked image under the key, in memory and
// (when configured) on disk. The cache keeps data itself, not a copy, and
// hands the same slice to every GetImage: callers must not modify it
// afterwards.
func (c *Cache) PutImage(key string, data []byte) error {
	if c == nil {
		return nil
	}
	return c.store(key, data, c.imagePath(key))
}

func (c *Cache) imagePath(key string) string {
	return filepath.Join(c.dir, key+".img")
}
