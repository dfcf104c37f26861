package buildcache_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buildcache"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/rtlib"
	"repro/internal/tcc"
)

func testObjects(t *testing.T) []*objfile.Object {
	t.Helper()
	obj, err := tcc.Compile("u", testSrc, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	return append([]*objfile.Object{obj}, lib...)
}

// TestProgramCacheResidency: the same module content resolves to the same
// resident Program (no re-merge); distinct shared markings never alias; and
// a fresh decode of identical bytes still hits, because the key is content,
// not identity.
func TestProgramCacheResidency(t *testing.T) {
	objs := testObjects(t)
	pc := buildcache.NewProgramCache(0, nil)

	p1, hit, err := pc.GetOrMerge(objs)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("empty cache reported a hit")
	}
	p2, hit, err := pc.GetOrMerge(objs)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || p2 != p1 {
		t.Error("second merge of the same modules did not return the resident Program")
	}

	// Identical content, fresh Object values (as a daemon sees on re-upload).
	var redecoded []*objfile.Object
	for _, obj := range objs {
		var buf bytes.Buffer
		if err := obj.Write(&buf); err != nil {
			t.Fatal(err)
		}
		ro, err := objfile.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		redecoded = append(redecoded, ro)
	}
	p3, hit, err := pc.GetOrMerge(redecoded)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || p3 != p1 {
		t.Error("content-identical redecoded modules missed the cache")
	}

	// A shared marking is part of the key and applied before publication.
	shName := objs[len(objs)-1].Name
	ps, hit, err := pc.GetOrMerge(objs, shName)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("shared-marked link aliased the unmarked Program")
	}
	if ps == p1 || !ps.IsShared(len(objs)-1) {
		t.Error("shared marking not applied to the cached Program")
	}
	if p1.IsShared(len(objs) - 1) {
		t.Error("marking leaked into the unmarked resident Program")
	}

	// The resident Program stays usable: an om.Run over the cached value
	// matches one over a fresh merge.
	res1, err := om.Run(context.Background(), p1)
	if err != nil {
		t.Fatal(err)
	}
	pFresh, _, err := (*buildcache.ProgramCache)(nil).GetOrMerge(objs)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := om.Run(context.Background(), pFresh)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := res1.Image.Write(&b1); err != nil {
		t.Fatal(err)
	}
	if err := res2.Image.Write(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("link over the resident Program differs from a fresh merge")
	}

	if st := pc.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 hits / 2 misses", st)
	}
}

// TestProgramCacheSingleflight: eight concurrent first links of one module
// set merge it once. The load holds until every caller has arrived, so the
// other seven wait on it; each gets the one Program, and the store counts
// one miss and seven hits. A failed load fails its waiters and is retried
// by the next caller.
func TestProgramCacheSingleflight(t *testing.T) {
	objs := testObjects(t)
	key := buildcache.ProgramKey(objs)
	pc := buildcache.NewProgramCache(0, nil)

	const callers = 8
	var arrived, merges atomic.Int32
	load := func() (*link.Program, error) {
		merges.Add(1)
		for deadline := time.Now().Add(5 * time.Second); arrived.Load() < callers && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		return link.Merge(objs)
	}
	progs := make([]*link.Program, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived.Add(1)
			progs[i], _, errs[i] = pc.GetOrLoad(key, load)
		}(i)
	}
	wg.Wait()
	for i := range progs {
		if errs[i] != nil || progs[i] == nil || progs[i] != progs[0] {
			t.Fatalf("caller %d: %v, program %p, want the shared %p", i, errs[i], progs[i], progs[0])
		}
	}
	if n := merges.Load(); n != 1 {
		t.Errorf("%d merges for one module set, want 1", n)
	}
	if st := pc.Stats(); st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("stats = %+v, want 1 miss / %d hits", st, callers-1)
	}

	boom := errors.New("boom")
	fail := func() (*link.Program, error) { return nil, boom }
	if _, hit, err := pc.GetOrLoad("other", fail); hit || !errors.Is(err, boom) {
		t.Fatalf("failed load: hit %v err %v", hit, err)
	}
	if p, hit, err := pc.GetOrLoad("other", func() (*link.Program, error) { return link.Merge(objs) }); hit || err != nil || p == nil {
		t.Fatalf("retry after a failed load: hit %v err %v", hit, err)
	}
}
