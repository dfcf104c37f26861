package omd_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/om"
	"repro/internal/omd"
	"repro/internal/tcc"
)

// TestWarmRelinkSkipsDecodeAndLift: an options-only relink of a program the
// server has already linked must run entirely on the resident caches — the
// om pipeline's own counters prove it re-decoded zero modules and re-lifted
// zero procedures, replaying the cached lift instead.
func TestWarmRelinkSkipsDecodeAndLift(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 2, QueueDepth: 8})
	c := startHTTP(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	run := func(spec *omd.JobSpec) {
		t.Helper()
		st, err := c.SubmitWait(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != omd.JobDone {
			t.Fatalf("job %s: state %s (%s)", st.ID, st.State, st.Error)
		}
	}

	// Cold: first contact with the benchmark decodes and lifts everything.
	run(&omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li",
		Options: optDoc(t, om.WithLevel(om.LevelFull))})
	cold, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Counter("om/decode/modules") == 0 || cold.Counter("om/lift/procs") == 0 {
		t.Fatalf("cold run recorded no decode/lift work: decode=%d lift=%d",
			cold.Counter("om/decode/modules"), cold.Counter("om/lift/procs"))
	}

	// Warm: the same program under different option sets. Each is a distinct
	// job key (no image-cache or memo hit), yet the resident program cache
	// and lift store mean no module is re-decoded and no procedure re-lifted.
	run(&omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li",
		Options: optDoc(t, om.WithLevel(om.LevelSimple))})
	run(&omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li",
		Options: optDoc(t, om.WithLevel(om.LevelFull), om.WithSchedule(true))})
	warm, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if got, was := warm.Counter("om/decode/modules"), cold.Counter("om/decode/modules"); got != was {
		t.Errorf("warm relinks re-decoded %d modules, want 0", got-was)
	}
	if got, was := warm.Counter("om/lift/procs"), cold.Counter("om/lift/procs"); got != was {
		t.Errorf("warm relinks re-lifted %d procedures, want 0", got-was)
	}
	if warm.Counter("om/lift/replayed") == 0 {
		t.Error("warm relinks replayed no lifted procedures")
	}
	if warm.Counter("stage/program/hits") == 0 {
		t.Error("warm relinks never hit the resident program cache")
	}
	if warm.Counter("stage/lift/hits") == 0 {
		t.Error("warm relinks never hit the lift store")
	}
	if executed := warm.Counter("omd/jobs-executed"); executed != 3 {
		t.Errorf("executed %d flights, want 3 (distinct options must not coalesce)", executed)
	}
}

// TestImageCacheIgnoresSimulate: the image cache is keyed on what
// determines the image (program, options, profile), not on the simulation
// request. Linking an upload and then submitting it again with simulate on
// is a new job key, yet it must be served from the cached image: no om run,
// with the simulator's statistics present.
func TestImageCacheIgnoresSimulate(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 8})
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
		t.Fatal("simulated resubmission missed the image cache")
	}
	if second.Sim == nil || second.Sim.Instructions == 0 {
		t.Fatalf("simulated resubmission carries no sim stats: %+v", second.Sim)
	}
	doc, err := c.Trace(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Find("om") != nil {
		t.Errorf("image-cache-served job ran om:\n%s", doc.Render())
	}
}

// TestConcurrentMixedOptionsRaceClean: 50 clients submit 10 distinct
// (benchmark, options) jobs concurrently, so several workers link through
// the shared program cache and OM memo at once — the -race gate's probe of
// the warm path. Every client of a spec must see identical image bytes.
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
	// Ten option sets over two programs: each program was merged once, even
	// though its first links ran concurrently, so eight of the ten links
	// found it resident or waited for its one merge; the lift store served
	// the warm ones.
	if hits := snap.Counter("stage/program/hits"); hits != uint64(len(specs)-2) {
		t.Errorf("stage/program/hits = %d, want %d", hits, len(specs)-2)
	}
	if snap.Counter("stage/lift/hits") == 0 {
		t.Error("concurrent warm links never hit the lift store")
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
