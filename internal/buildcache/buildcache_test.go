package buildcache_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/profile"
	"repro/internal/rtlib"
	"repro/internal/tcc"
)

var testSrc = []tcc.Source{{Name: "a.tc", Text: `
long main() {
	return 41 + 1;
}
`}}

func TestKeyDistinguishesInputs(t *testing.T) {
	base := buildcache.Key("u", testSrc, tcc.DefaultOptions())
	if k := buildcache.Key("v", testSrc, tcc.DefaultOptions()); k == base {
		t.Error("unit name not in key")
	}
	other := []tcc.Source{{Name: "a.tc", Text: testSrc[0].Text + "\n"}}
	if k := buildcache.Key("u", other, tcc.DefaultOptions()); k == base {
		t.Error("source text not in key")
	}
	if k := buildcache.Key("u", testSrc, tcc.InterprocOptions()); k == base {
		t.Error("compile options not in key")
	}
	// Length-framing: moving a boundary between name and text must change
	// the key even though the concatenation is identical.
	ab := []tcc.Source{{Name: "ab", Text: "c"}}
	ac := []tcc.Source{{Name: "a", Text: "bc"}}
	if buildcache.Key("u", ab, tcc.DefaultOptions()) == buildcache.Key("u", ac, tcc.DefaultOptions()) {
		t.Error("key is not length-framed")
	}
}

func TestCompileHitAndMiss(t *testing.T) {
	c, err := buildcache.New("") // memory-only
	if err != nil {
		t.Fatal(err)
	}
	obj1, err := c.Compile("u", testSrc, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	obj2, err := c.Compile("u", testSrc, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if obj1 == obj2 {
		t.Error("cache returned a shared object; each Get must decode a fresh one")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss and 1 hit", st)
	}
}

func TestDiskPersistenceAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	c1, err := buildcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c1.Compile("u", testSrc, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	c2, err := buildcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Compile("u", testSrc, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.Misses != 0 || st.Hits != 1 || st.DiskHits != 1 {
		t.Errorf("stats = %+v, want a single disk hit and no compiles", st)
	}
	if len(got.Symbols) != len(want.Symbols) {
		t.Errorf("decoded object has %d symbols, want %d", len(got.Symbols), len(want.Symbols))
	}
}

// TestImageCacheProfileHash is the PGO-relink contract: the same objects
// and the same profile hit the cache; mutating a single count in the
// profile changes its content hash and forces a relink.
func TestImageCacheProfileHash(t *testing.T) {
	obj, err := tcc.Compile("u", testSrc, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	objs := []*objfile.Object{obj}

	prof := profile.New("synthetic")
	prof.Procs = []profile.ProcCount{{Name: "main", Entries: 1, Weight: 10}}
	key1 := buildcache.ImageKey(objs, "om-full+pgo", prof.Hash())
	if same := buildcache.ImageKey(objs, "om-full+pgo", prof.Hash()); same != key1 {
		t.Error("identical inputs produced different image keys")
	}

	prof.Procs[0].Weight = 11 // stale counts must not reuse the old layout
	key2 := buildcache.ImageKey(objs, "om-full+pgo", prof.Hash())
	if key2 == key1 {
		t.Error("mutated profile did not change the image key")
	}
	if k := buildcache.ImageKey(objs, "om-full", ""); k == key1 {
		t.Error("link variant not in key")
	}

	dir := t.TempDir()
	c1, err := buildcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := linkedImage(t, objs)
	if _, ok := c1.GetImage(key1); ok {
		t.Fatal("empty cache reported an image hit")
	}
	if err := c1.PutImage(key1, data); err != nil {
		t.Fatal(err)
	}
	if _, ok := c1.GetImage(key2); ok {
		t.Error("mutated-profile key hit the stale entry")
	}
	if st := c1.Stats(); st.ImageHits != 0 || st.ImageMisses != 2 {
		t.Errorf("image stats = %+v, want 0 hits / 2 misses", st)
	}

	// Entries persist: a second instance over the same directory hits.
	c2, err := buildcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.GetImage(key1); !ok || !bytes.Equal(got, data) {
		t.Errorf("image entry did not persist across instances (hit %v)", ok)
	}

	var nilCache *buildcache.Cache
	if _, ok := nilCache.GetImage(key1); ok {
		t.Error("nil cache reported an image hit")
	}
	if err := nilCache.PutImage(key1, data); err != nil {
		t.Error(err)
	}
}

// linkedImage links objs with the runtime library under OM-full and returns
// the image's serialized bytes.
func linkedImage(t *testing.T, objs []*objfile.Object) []byte {
	t.Helper()
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	p, err := link.Merge(append(append([]*objfile.Object(nil), objs...), lib...))
	if err != nil {
		t.Fatal(err)
	}
	res, err := om.Run(context.Background(), p, om.WithLevel(om.LevelFull))
	if err != nil {
		t.Fatal(err)
	}
	return res.Image.Encode()
}

// TestImageCacheSharesStoredBytes: an image entry is bytes in, bytes out.
// Every GetImage hands back the slice PutImage stored, not a copy, so a hit
// costs no allocation proportional to the image; and one read from the
// backing directory keeps its bytes, so later lookups share them too.
func TestImageCacheSharesStoredBytes(t *testing.T) {
	obj, err := tcc.Compile("u", testSrc, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data := linkedImage(t, []*objfile.Object{obj})
	dir := t.TempDir()
	c, err := buildcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutImage("k", data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, ok := c.GetImage("k")
		if !ok || len(got) != len(data) || &got[0] != &data[0] {
			t.Fatalf("lookup %d: hit %v; GetImage must return the stored slice itself", i, ok)
		}
	}

	disk, err := buildcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, ok := disk.GetImage("k")
	if !ok || !bytes.Equal(first, data) {
		t.Fatalf("disk entry: hit %v, want the stored image", ok)
	}
	if again, _ := disk.GetImage("k"); &again[0] != &first[0] {
		t.Error("a second lookup of a disk entry returned a different slice")
	}
	if st := disk.Stats(); st.ImageHits != 2 || st.ImageMisses != 0 {
		t.Errorf("image stats = %+v, want 2 hits", st)
	}
}

// TestImageCacheCorruptEntryIsMiss: an image file in the backing directory
// that is not a well-formed image — truncated by a killed writer, or
// garbled on disk — is a miss, never a hit handing its bytes out, and the
// caller's PutImage of the relinked image replaces it.
func TestImageCacheCorruptEntryIsMiss(t *testing.T) {
	obj, err := tcc.Compile("u", testSrc, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data := linkedImage(t, []*objfile.Object{obj})
	garbled := append([]byte(nil), data...)
	copy(garbled, "AXPQ") // wrong magic
	cases := map[string][]byte{
		"truncated": data[:len(data)/2],
		"garbled":   garbled,
		"empty":     nil,
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seed, err := buildcache.New(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := seed.PutImage("k", data); err != nil {
				t.Fatal(err)
			}
			matches, err := filepath.Glob(filepath.Join(dir, "*.img"))
			if err != nil || len(matches) != 1 {
				t.Fatalf("image files %v (%v), want one", matches, err)
			}
			if err := os.WriteFile(matches[0], bad, 0o666); err != nil {
				t.Fatal(err)
			}

			c, err := buildcache.New(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if got, ok := c.GetImage("k"); ok || got != nil {
					t.Fatalf("lookup %d of a %s entry: hit %v with %d bytes, want a miss", i, name, ok, len(got))
				}
			}
			if st := c.Stats(); st.ImageHits != 0 || st.ImageMisses != 2 {
				t.Errorf("image stats = %+v, want 2 misses", st)
			}
			if err := c.PutImage("k", data); err != nil {
				t.Fatal(err)
			}
			fresh, err := buildcache.New(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := fresh.GetImage("k"); !ok || !bytes.Equal(got, data) {
				t.Errorf("after PutImage: hit %v, want the relinked image", ok)
			}
		})
	}
}

func TestNilCacheCompiles(t *testing.T) {
	var c *buildcache.Cache
	if _, err := c.Compile("u", testSrc, tcc.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st != (buildcache.Stats{}) {
		t.Errorf("nil cache stats = %+v", st)
	}
}
