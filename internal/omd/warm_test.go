package omd_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/buildcache"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/omd"
	"repro/internal/rtlib"
	benchspec "repro/internal/spec"
	"repro/internal/tcc"
)

// TestRelinkLinksFresh: an options-only relink of a program the server has
// already linked keeps no decoded program from the first link. It
// executes, decodes the uploaded modules, merges them and lifts every
// procedure again, and its image equals a local cold link under the same
// options.
func TestRelinkLinksFresh(t *testing.T) {
	b, _ := benchspec.ByName("li")
	var objs []*objfile.Object
	var uploads [][]byte
	for _, m := range b.Modules {
		obj, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obj.Write(&buf); err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
		uploads = append(uploads, buf.Bytes())
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	all := append(objs, lib...)

	s := newTestServer(t, omd.Config{Workers: 2, QueueDepth: 8})
	c := startHTTP(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var liftedFirst uint64
	for i, opts := range [][]om.Option{
		{om.WithLevel(om.LevelFull)},
		{om.WithLevel(om.LevelSimple)},
		{om.WithLevel(om.LevelFull), om.WithSchedule(true)},
	} {
		st, err := c.SubmitWait(ctx, &omd.JobSpec{Version: omd.SpecVersion,
			Objects: uploads, Options: optDoc(t, opts...)})
		if err != nil {
			t.Fatal(err)
		}
		if st.State != omd.JobDone || st.MemoHit || st.Coalesced || st.ImageCacheHit {
			t.Fatalf("link %d: state %s (%s), memo %v, coalesced %v, image cache %v; want a fresh link",
				i, st.State, st.Error, st.MemoHit, st.Coalesced, st.ImageCacheHit)
		}
		doc, err := c.Trace(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, phase := range []string{"decode-objects", "merge", "om/lift"} {
			if doc.Find(phase) == nil {
				t.Errorf("link %d: trace lacks %q:\n%s", i, phase, doc.Render())
			}
		}
		snap, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		lifted := snap.Counter("om/lift/procs")
		if i == 0 {
			liftedFirst = lifted
		}
		if lifted != uint64(i+1)*liftedFirst || liftedFirst == 0 {
			t.Errorf("after link %d: %d procedures lifted, want %d", i, lifted, uint64(i+1)*liftedFirst)
		}
		if executed := snap.Counter("omd/jobs-executed"); executed != uint64(i+1) {
			t.Errorf("after link %d: executed %d flights, want %d", i, executed, i+1)
		}

		served, err := c.Image(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		p, err := link.Merge(all)
		if err != nil {
			t.Fatal(err)
		}
		res, err := om.Run(ctx, p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, res.Image.Encode()) {
			t.Errorf("link %d: served image differs from a local cold link", i)
		}
	}
}

// TestImageCacheIgnoresSimulate: the image index is keyed on what
// determines the image (program, options, profile), not on the simulation
// request. Linking an upload and then submitting it again with simulate on
// is a new job key, yet it must be served the first job's image: no om run,
// with the simulator's statistics present. The index answers whether the
// build cache is memory-only (it keeps no images) or has a directory (the
// index answers before the directory is read).
func TestImageCacheIgnoresSimulate(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		cache, err := buildcache.New(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("dir=%v", dir != ""), func(t *testing.T) {
			checkImageIndexServesSimulate(t, cache)
		})
	}
}

func checkImageIndexServesSimulate(t *testing.T, cache *buildcache.Cache) {
	s := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 8, Cache: cache})
	c := startHTTP(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	obj := uploadObject(t, "sum", "long main() { long i; long s; s = 0; for (i = 0; i < 10; i = i + 1) s = s + i; return s; }\n")
	var sts []*omd.JobStatus
	for _, simulate := range []bool{false, true} {
		st, err := c.SubmitWait(ctx, &omd.JobSpec{
			Version: omd.SpecVersion, Objects: [][]byte{obj}, Simulate: simulate,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.State != omd.JobDone {
			t.Fatalf("simulate=%v: state %s (%s)", simulate, st.State, st.Error)
		}
		sts = append(sts, st)
	}
	first, second := sts[0], sts[1]
	if first.ImageCacheHit || first.Sim != nil {
		t.Fatalf("first job: image-cache hit %v, sim %v; want a fresh unsimulated link",
			first.ImageCacheHit, first.Sim)
	}
	if second.Key == first.Key || second.MemoHit || second.Coalesced {
		t.Fatal("simulate must change the job key and execute")
	}
	if !second.ImageCacheHit {
		t.Fatal("simulated resubmission missed the image index")
	}
	if second.Sim == nil || second.Sim.Instructions == 0 {
		t.Fatalf("simulated resubmission carries no sim stats: %+v", second.Sim)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The fresh link's one lookup missed the index and then the build
	// cache; the resubmission hit the index and never reached the cache.
	if hits := snap.Counter("omd/image-index-hits"); hits != 1 {
		t.Errorf("omd/image-index-hits = %d, want 1", hits)
	}
	if st := snap.Cache; st.ImageHits != 0 || st.ImageMisses != 1 {
		t.Errorf("build cache image lookups: %d hits, %d misses; want 0 and 1", st.ImageHits, st.ImageMisses)
	}
	doc, err := c.Trace(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Find("om") != nil {
		t.Errorf("image-index-served job ran om:\n%s", doc.Render())
	}
	fresh, err := c.Image(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	served, err := c.Image(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, fresh) || second.ImageBytes != len(fresh) {
		t.Errorf("image-index-served job's image (%d bytes) differs from the fresh link's (%d bytes)",
			len(served), len(fresh))
	}
}

// TestMemoKeepsEveryDoneJob: the memo indexes every retained done job, so
// resubmitting the first job after 300 others is still a memo hit rather
// than a new execution. The other jobs differ only in their instruction
// cap, so each is a new job key served from the image index without a
// link.
func TestMemoKeepsEveryDoneJob(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 8})
	c := startHTTP(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	spec := omd.JobSpec{Version: omd.SpecVersion,
		Objects: [][]byte{uploadObject(t, "ret", "long main() { return 3; }\n")}}
	first, err := c.SubmitWait(ctx, &spec)
	if err != nil {
		t.Fatal(err)
	}
	const others = 300
	for i := 1; i <= others; i++ {
		variant := spec
		variant.MaxInstructions = uint64(i)
		st, err := c.SubmitWait(ctx, &variant)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != omd.JobDone || st.MemoHit {
			t.Fatalf("variant %d: state %s (%s), memo hit %v; want a new done job", i, st.State, st.Error, st.MemoHit)
		}
	}
	again, err := c.SubmitWait(ctx, &spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.MemoHit || again.Key != first.Key {
		t.Errorf("resubmitting the first of %d jobs: memo hit %v, image-cache hit %v; want a memo hit",
			others+1, again.MemoHit, again.ImageCacheHit)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if executed := snap.Counter("omd/jobs-executed"); executed != others+1 {
		t.Errorf("executed %d flights, want %d", executed, others+1)
	}
}

// TestImageCacheHitAllocs: an image-index hit serves the retained bytes as
// they are. A fresh link's result holds its one encoding and the image
// index points at it; an execution served from the index returns that same
// slice and allocates less than the image's length, where decoding the
// image and encoding it again would cost at least twice that.
func TestImageCacheHitAllocs(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 8})
	ctx := context.Background()
	exec, err := s.ExecuteProbe(&omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li"})
	if err != nil {
		t.Fatal(err)
	}
	fresh, hit, err := exec(ctx)
	if err != nil || hit {
		t.Fatalf("first execution: cache hit %v, err %v; want a fresh link", hit, err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		served, hit, err := exec(ctx)
		if err != nil || !hit {
			t.Fatalf("repeat %d: cache hit %v, err %v; want an image-cache hit", i, hit, err)
		}
		if len(served) != len(fresh) || &served[0] != &fresh[0] {
			t.Fatalf("repeat %d: served a copy, not the slice the fresh link retained", i)
		}
	}
	runtime.ReadMemStats(&after)
	if perHit := (after.TotalAlloc - before.TotalAlloc) / runs; perHit >= uint64(len(fresh)) {
		t.Errorf("an image-cache hit allocates %d bytes, want less than the %d-byte image", perHit, len(fresh))
	}
}

// TestConcurrentMixedOptionsRaceClean: 50 clients submit 10 distinct
// (benchmark, options) jobs concurrently, so several workers link the same
// programs at once — the -race gate's probe of concurrent execution. Each
// spec executes once, and every client of a spec sees identical image bytes.
func TestConcurrentMixedOptionsRaceClean(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 4, QueueDepth: 32})
	c := startHTTP(t, s)

	var specs []*omd.JobSpec
	for _, bench := range []string{"li", "compress"} {
		for _, opts := range [][]om.Option{
			{om.WithLevel(om.LevelNone)},
			{om.WithLevel(om.LevelSimple)},
			{om.WithLevel(om.LevelFull)},
			{om.WithLevel(om.LevelFull), om.WithSchedule(true)},
			{om.WithLevel(om.LevelSimple), om.WithSchedule(true)},
		} {
			specs = append(specs, &omd.JobSpec{
				Version:   omd.SpecVersion,
				Benchmark: bench,
				Options:   optDoc(t, opts...),
			})
		}
	}

	const clients = 50
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	images := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.SubmitWait(ctx, specs[i%len(specs)])
			if err != nil {
				errs[i] = err
				return
			}
			if st.State != omd.JobDone {
				errs[i] = fmt.Errorf("job %s: state %s (%s)", st.ID, st.State, st.Error)
				return
			}
			images[i], errs[i] = c.Image(ctx, st.ID)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d (spec %d): %v", i, i%len(specs), err)
		}
	}
	for i := len(specs); i < clients; i++ {
		if !bytes.Equal(images[i], images[i%len(specs)]) {
			t.Errorf("client %d: image diverged from its spec twin", i)
		}
	}

	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if executed := snap.Counter("omd/jobs-executed"); executed != uint64(len(specs)) {
		t.Errorf("executed %d flights, want %d", executed, len(specs))
	}
}

// uploadObject compiles one source text and returns its serialized module.
func uploadObject(t *testing.T, unit, src string) []byte {
	t.Helper()
	obj, err := tcc.Compile(unit, []tcc.Source{{Name: unit, Text: src}}, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obj.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMemoHitSubmitAllocsConstant: re-submitting a finished job is the
// warmest path the daemon has — it must cost a small constant number of
// allocations, independent of how large the uploaded program is. This pins
// the submit path against accidentally decoding, hashing into fresh
// buffers, or copying payloads per poll.
func TestMemoHitSubmitAllocsConstant(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 2, QueueDepth: 8})
	c := startHTTP(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	small := "long main() { return 0; }\n"
	var big strings.Builder
	big.WriteString("long main() {\n\tlong i;\n\ti = 0;\n")
	for i := 0; i < 3000; i++ {
		big.WriteString("\ti = i + 1;\n")
	}
	big.WriteString("\treturn 0;\n}\n")

	probe := func(unit, src string) float64 {
		spec := &omd.JobSpec{
			Version: omd.SpecVersion,
			Objects: [][]byte{uploadObject(t, unit, src)},
		}
		st, err := c.SubmitWait(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != omd.JobDone {
			t.Fatalf("warmup job: state %s (%s)", st.State, st.Error)
		}
		return testing.AllocsPerRun(200, func() {
			hit, err := s.SubmitProbe(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !hit {
				t.Fatal("probe missed the completed-result memo")
			}
		})
	}

	smallAllocs := probe("small", small)
	bigAllocs := probe("big", big.String())
	if smallAllocs > 100 {
		t.Errorf("memo-hit submit allocates %.0f objects, want a small constant", smallAllocs)
	}
	if diff := bigAllocs - smallAllocs; diff > 10 || diff < -10 {
		t.Errorf("memo-hit allocations scale with program size: %.0f (small) vs %.0f (big)",
			smallAllocs, bigAllocs)
	}
}

// TestBenchmarkMemoHitAllocs: a memo-hit submission of a built-in benchmark
// looks the benchmark up by name alone and keys it by a digest of its
// sources hashed once per process, so it allocates about what a memo hit of
// an uploaded module does (~200 bytes more; under -race up to ~750).
// Rebuilding the suite and copying li's sources into the key hash on every
// submission cost about 3 KB more.
func TestBenchmarkMemoHitAllocs(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 8})
	c := startHTTP(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	bytesPerHit := func(spec *omd.JobSpec) uint64 {
		t.Helper()
		if st, err := c.SubmitWait(ctx, spec); err != nil || st.State != omd.JobDone {
			t.Fatalf("warmup job: %v %+v", err, st)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			hit, err := s.SubmitProbe(spec)
			if err != nil || !hit {
				t.Fatalf("probe %d: memo hit %v, err %v", i, hit, err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	bench := bytesPerHit(&omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li"})
	upload := bytesPerHit(&omd.JobSpec{Version: omd.SpecVersion,
		Objects: [][]byte{uploadObject(t, "small", "long main() { return 0; }\n")}})
	t.Logf("memo hit: li %d bytes, upload %d bytes", bench, upload)
	if bench > upload+1536 {
		t.Errorf("a memo-hit submission of li allocates %d bytes, %d more than one of an upload; want at most 1536 more",
			bench, bench-upload)
	}
}

// TestResolveAllocs pins what resolving a job spec costs when it names no
// options: the default option set is decoded once per process, and the key
// hashes stage strings in one reused buffer. A li job resolves in about
// 1.3 KB; decoding the defaults per submission and copying each key string
// cost about 3.3 KB.
func TestResolveAllocs(t *testing.T) {
	for _, js := range []*omd.JobSpec{
		{Version: omd.SpecVersion, Benchmark: "li"},
		{Version: omd.SpecVersion, Objects: [][]byte{uploadObject(t, "small", "long main() { return 0; }\n")}},
	} {
		if _, err := omd.ResolveKey(js); err != nil {
			t.Fatal(err)
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := omd.ResolveKey(js); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perResolve := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("resolve %q: %d bytes", js.Benchmark, perResolve)
		if perResolve > 2048 {
			t.Errorf("resolving a job without options (benchmark %q) allocates %d bytes; want at most 2048",
				js.Benchmark, perResolve)
		}
	}
}
