package omd_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/buildcache"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/omd"
	"repro/internal/omd/client"
	"repro/internal/rtlib"
	benchspec "repro/internal/spec"
	"repro/internal/tcc"
)

func newTestServer(t *testing.T, cfg omd.Config) *omd.Server {
	t.Helper()
	if cfg.Cache == nil {
		cache, err := buildcache.New("")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = cache
	}
	s := omd.NewServer(cfg)
	t.Cleanup(s.Close)
	return s
}

func startHTTP(t *testing.T, s *omd.Server) *client.Client {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL, ts.Client())
}

func optDoc(t *testing.T, opts ...om.Option) []byte {
	t.Helper()
	doc, err := om.MarshalOptions(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestCoalescingUnderLoad is the headline concurrency test: 50 clients
// hammer the server with 5 distinct specs (10 clients per spec). The
// singleflight map plus the completed-result memo must collapse all 250
// submissions into exactly 5 executions — one per distinct content key,
// ever — with every client of a spec receiving identical image bytes.
func TestCoalescingUnderLoad(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 4, QueueDepth: 16})
	c := startHTTP(t, s)

	specs := []*omd.JobSpec{
		{Version: omd.SpecVersion, Benchmark: "li"},
		{Version: omd.SpecVersion, Benchmark: "li", Options: optDoc(t, om.WithLevel(om.LevelNone))},
		{Version: omd.SpecVersion, Benchmark: "li", Options: optDoc(t, om.WithLevel(om.LevelSimple))},
		{Version: omd.SpecVersion, Benchmark: "li", Options: optDoc(t, om.WithSchedule(true))},
		{Version: omd.SpecVersion, Benchmark: "compress"},
	}
	const perSpec = 10
	n := perSpec * len(specs)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	type outcome struct {
		spec  int
		image []byte
		err   error
	}
	results := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			which := i % len(specs)
			results[i].spec = which
			st, err := c.SubmitWait(ctx, specs[which])
			if err != nil {
				results[i].err = err
				return
			}
			if st.State != omd.JobDone {
				results[i].err = fmt.Errorf("job %s: state %s (%s)", st.ID, st.State, st.Error)
				return
			}
			results[i].image, results[i].err = c.Image(ctx, st.ID)
		}(i)
	}
	wg.Wait()

	first := make(map[int][]byte)
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("client %d (spec %d): %v", i, r.spec, r.err)
		}
		if prev, ok := first[r.spec]; ok {
			if !bytes.Equal(prev, r.image) {
				t.Errorf("spec %d: divergent images across clients (%d vs %d bytes)", r.spec, len(prev), len(r.image))
			}
		} else {
			first[r.spec] = r.image
		}
	}

	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	executed := snap.Counter("omd/jobs-executed")
	coalesced := snap.Counter("omd/coalesce-hits")
	memo := snap.Counter("omd/memo-hits")
	if executed != uint64(len(specs)) {
		t.Errorf("executed %d flights, want exactly %d (one per distinct spec)", executed, len(specs))
	}
	if got := executed + coalesced + memo; got != uint64(n) {
		t.Errorf("accounting: executed(%d)+coalesced(%d)+memo(%d) = %d, want %d",
			executed, coalesced, memo, got, n)
	}
	if rej := snap.Counter("omd/rejected-queue-full"); rej != 0 {
		t.Errorf("%d spurious queue-full rejections (coalesced duplicates must not occupy slots)", rej)
	}

	// A drain with nothing in flight completes promptly and cleanly.
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestSequentialMemo: a duplicate submitted after its twin finished (no
// in-flight coalescing possible) is served from the memo without a second
// execution.
func TestSequentialMemo(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 2, QueueDepth: 8})
	c := startHTTP(t, s)
	ctx := context.Background()

	spec := &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "compress"}
	st1, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st1.State != omd.JobDone || st1.MemoHit {
		t.Fatalf("first run: state %s, memoHit %v", st1.State, st1.MemoHit)
	}
	st2, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != omd.JobDone || !st2.MemoHit {
		t.Fatalf("second run: state %s, memoHit %v, want instant memo hit", st2.State, st2.MemoHit)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter("omd/jobs-executed"); got != 1 {
		t.Errorf("executed %d times, want 1", got)
	}
	im1, err := c.Image(ctx, st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	im2, err := c.Image(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(im1, im2) {
		t.Error("memo-served image differs from the original")
	}
}

// TestQueueOverflow429: with one worker held mid-execution and a one-slot
// queue occupied, a third distinct submission must bounce with 429 and a
// Retry-After hint — and the held jobs must still complete once released.
func TestQueueOverflow429(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 1})
	entered := make(chan string, 8)
	release := make(chan struct{})
	s.SetExecGate(func(key string) {
		entered <- key
		<-release
	})
	c := startHTTP(t, s)
	ctx := context.Background()

	mkSpec := func(lvl om.Level) *omd.JobSpec {
		return &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "compress", Options: optDoc(t, om.WithLevel(lvl))}
	}

	stA, err := c.Submit(ctx, mkSpec(om.LevelNone))
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	select {
	case <-entered: // worker holds flight A
	case <-time.After(30 * time.Second):
		t.Fatal("worker never picked up flight A")
	}
	stB, err := c.Submit(ctx, mkSpec(om.LevelSimple))
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}

	_, err = c.Submit(ctx, mkSpec(om.LevelFull))
	if !client.IsQueueFull(err) {
		t.Fatalf("submit C: got %v, want 429 queue-full", err)
	}
	if ae := err.(*client.APIError); ae.RetryAfter < 1 {
		t.Errorf("429 carried Retry-After %d, want >= 1s", ae.RetryAfter)
	}

	// A duplicate of the queued spec still coalesces — backpressure applies
	// to new work only, never to joining an admitted flight.
	stB2, err := c.Submit(ctx, mkSpec(om.LevelSimple))
	if err != nil {
		t.Fatalf("duplicate of queued spec rejected: %v", err)
	}
	if !stB2.Coalesced {
		t.Error("duplicate of queued spec did not coalesce")
	}

	close(release)
	for _, id := range []string{stA.ID, stB.ID, stB2.ID} {
		st, err := c.Wait(ctx, id, 20*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != omd.JobDone {
			t.Errorf("job %s: state %s (%s)", id, st.State, st.Error)
		}
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter("omd/rejected-queue-full"); got != 1 {
		t.Errorf("rejected-queue-full = %d, want 1", got)
	}
}

// TestDrainMidFlight: SIGTERM semantics. Draining stops admissions (503 on
// /jobs, 503 on /healthz) while queued and running jobs run to completion.
func TestDrainMidFlight(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 4})
	entered := make(chan string, 8)
	release := make(chan struct{})
	s.SetExecGate(func(key string) {
		entered <- key
		<-release
	})
	c := startHTTP(t, s)
	ctx := context.Background()

	stA, err := c.Submit(ctx, &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "compress"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never picked up flight A")
	}
	stB, err := c.Submit(ctx, &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li"})
	if err != nil {
		t.Fatal(err)
	}

	drainErr := make(chan error, 1)
	dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer dcancel()
	go func() { drainErr <- s.Drain(dctx) }()

	// Drain flips the draining flag synchronously before waiting, so poll
	// until health reports it, then verify admissions are refused.
	deadline := time.Now().Add(10 * time.Second)
	for c.Healthy(ctx) {
		if time.Now().After(deadline) {
			t.Fatal("server never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, err = c.Submit(ctx, &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "ear"})
	ae, ok := err.(*client.APIError)
	if !ok || ae.Code != 503 {
		t.Fatalf("submission during drain: got %v, want 503", err)
	}

	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// In-flight and queued jobs completed rather than being dropped.
	for _, id := range []string{stA.ID, stB.ID} {
		st, err := c.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != omd.JobDone {
			t.Errorf("job %s after drain: state %s (%s), want done", id, st.State, st.Error)
		}
	}
}

// TestExecutionPanicFailsOneJob: a panic inside one execution's link fails
// that flight alone. Every job attached to it ends failed with the panic
// value in its error and the stack in its trace, omd/panics counts the
// panic, and the server runs the next job as usual.
func TestExecutionPanicFailsOneJob(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 4})
	entered := make(chan struct{})
	release := make(chan struct{})
	var gateOnce, faultOnce sync.Once
	s.SetExecGate(func(string) {
		gateOnce.Do(func() {
			close(entered)
			<-release
		})
	})
	t.Cleanup(om.SetFaultHookForTesting(func(*om.Prog) {
		faultOnce.Do(func() { panic("injected fault") })
	}))
	c := startHTTP(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	spec := &omd.JobSpec{Version: omd.SpecVersion,
		Objects: [][]byte{uploadObject(t, "ret", "long main() { return 7; }\n")}}
	lead, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never picked up the flight")
	}
	twin, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !twin.Coalesced {
		t.Fatal("second submission did not attach to the admitted flight")
	}
	close(release)

	for _, id := range []string{lead.ID, twin.ID} {
		st, err := c.Wait(ctx, id, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != omd.JobFailed || !strings.Contains(st.Error, "injected fault") {
			t.Fatalf("job %s: state %s, error %q; want failed naming the panic", id, st.State, st.Error)
		}
	}
	doc, err := c.Trace(ctx, lead.ID)
	if err != nil {
		t.Fatal(err)
	}
	exec := doc.Find("execute")
	if exec == nil || exec.Attrs["panic"] != "injected fault" ||
		!strings.Contains(exec.Attrs["stack"], "repro/internal/om.Run") {
		t.Fatalf("panicked job's trace lacks the panic and its stack:\n%s", doc.Render())
	}

	st, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != omd.JobDone || st.MemoHit || st.Coalesced {
		t.Fatalf("job after the panic: state %s (%s), memo %v, coalesced %v; want a fresh execution done",
			st.State, st.Error, st.MemoHit, st.Coalesced)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := snap.Counter("omd/panics"); n != 1 {
		t.Errorf("omd/panics = %d, want 1", n)
	}
}

// loopObject compiles a program that spins for billions of instructions —
// far longer than any test budget — so only cancellation can end its
// simulation.
func loopObject(t *testing.T) []byte {
	t.Helper()
	obj, err := tcc.Compile("loop", []tcc.Source{{Name: "loop", Text: `
long main() {
	long i;
	i = 0;
	while (i < 4000000000) {
		i = i + 1;
	}
	return 0;
}
`}}, tcc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obj.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClientDisconnectCancelsSimulation: a waiting client that disconnects
// is the only party interested in its flight, so the flight context is
// canceled and the cancellation reaches the running simulator (sim's run
// loop polls it every 64Ki instructions). The job must fail with the
// simulator's cancellation error, not run to completion or time out.
func TestClientDisconnectCancelsSimulation(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 4, JobTimeout: 5 * time.Minute})
	// Pre-warm the runtime library so the held execution reaches the
	// simulator quickly after release.
	if err := s.PrewarmLib(); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	s.SetExecGate(func(string) { started <- struct{}{} })
	c := startHTTP(t, s)

	spec := &omd.JobSpec{
		Version:         omd.SpecVersion,
		Objects:         [][]byte{loopObject(t)},
		Options:         optDoc(t, om.WithLevel(om.LevelNone)),
		Simulate:        true,
		MaxInstructions: 1 << 42,
	}

	cctx, disconnect := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	go func() {
		_, err := c.SubmitWait(cctx, spec)
		waitErr <- err
	}()

	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("execution never started")
	}
	// Give the pipeline time to get past compile/merge/OM (all fast at
	// level none with a warm library) and into the multi-minute simulation.
	time.Sleep(1500 * time.Millisecond)
	disconnect()
	if err := <-waitErr; err == nil {
		t.Fatal("SubmitWait returned nil after client disconnect")
	}

	// The abandoned flight must fail promptly with the simulator's
	// cancellation error.
	ctx := context.Background()
	deadline := time.Now().Add(30 * time.Second)
	for {
		jobs, err := c.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != 1 {
			t.Fatalf("have %d jobs, want 1", len(jobs))
		}
		st := jobs[0]
		if st.State == omd.JobFailed {
			if !strings.Contains(st.Error, "canceled") {
				t.Fatalf("job failed with %q, want a cancellation error", st.Error)
			}
			if !strings.Contains(st.Error, "sim: run canceled") {
				t.Fatalf("job failed with %q, want the simulator's cancellation error (cancel did not reach the run loop)", st.Error)
			}
			break
		}
		if st.State == omd.JobDone {
			t.Fatal("abandoned simulation ran to completion instead of being canceled")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s after disconnect", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter("omd/flights-abandoned"); got != 1 {
		t.Errorf("flights-abandoned = %d, want 1", got)
	}
}

// TestServedImageMatchesLocalRun: the daemon is a transport, not a
// different linker — a benchmark job and an uploaded-objects job must both
// produce images byte-identical to the same pipeline run locally.
func TestServedImageMatchesLocalRun(t *testing.T) {
	const bench = "compress"
	b, ok := benchspec.ByName(bench)
	if !ok {
		t.Fatal("no benchmark", bench)
	}
	var objs []*objfile.Object
	var uploads [][]byte
	for _, m := range b.Modules {
		obj, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
		var buf bytes.Buffer
		if err := obj.Write(&buf); err != nil {
			t.Fatal(err)
		}
		uploads = append(uploads, buf.Bytes())
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	p, err := link.Merge(append(append([]*objfile.Object(nil), objs...), lib...))
	if err != nil {
		t.Fatal(err)
	}
	res, err := om.Run(context.Background(), p, om.WithSchedule(true))
	if err != nil {
		t.Fatal(err)
	}
	var localBuf bytes.Buffer
	if err := res.Image.Write(&localBuf); err != nil {
		t.Fatal(err)
	}
	local := localBuf.Bytes()

	s := newTestServer(t, omd.Config{Workers: 2, QueueDepth: 8})
	c := startHTTP(t, s)
	ctx := context.Background()
	doc := optDoc(t, om.WithSchedule(true))

	for _, tc := range []struct {
		name string
		spec *omd.JobSpec
	}{
		{"benchmark", &omd.JobSpec{Version: omd.SpecVersion, Benchmark: bench, Options: doc}},
		{"uploaded", &omd.JobSpec{Version: omd.SpecVersion, Objects: uploads, Options: doc}},
	} {
		st, err := c.SubmitWait(ctx, tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.State != omd.JobDone {
			t.Fatalf("%s: state %s (%s)", tc.name, st.State, st.Error)
		}
		served, err := c.Image(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, local) {
			t.Errorf("%s job: served image differs from local om.Run (%d vs %d bytes)",
				tc.name, len(served), len(local))
		}
	}
}

// TestTracedJobReturnsJournal: trace jobs bypass the image cache and carry
// a decision journal.
func TestTracedJobReturnsJournal(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 2, QueueDepth: 8})
	c := startHTTP(t, s)
	ctx := context.Background()

	st, err := c.SubmitWait(ctx, &omd.JobSpec{
		Version:   omd.SpecVersion,
		Benchmark: "compress",
		Options:   optDoc(t, om.WithTrace()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != omd.JobDone {
		t.Fatalf("state %s (%s)", st.State, st.Error)
	}
	if st.JournalEvents == 0 {
		t.Error("traced job reported no journal events")
	}
	data, err := c.Journal(ctx, st.ID)
	if err != nil {
		t.Fatalf("journal fetch: %v", err)
	}
	if !bytes.Contains(data, []byte("om-journal/v1")) {
		t.Errorf("journal payload missing version tag (got %d bytes)", len(data))
	}
}

// TestSimulatedJobReturnsStats: a Simulate job carries dynamic statistics.
func TestSimulatedJobReturnsStats(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 2, QueueDepth: 8})
	c := startHTTP(t, s)
	ctx := context.Background()

	st, err := c.SubmitWait(ctx, &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "compress", Simulate: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != omd.JobDone {
		t.Fatalf("state %s (%s)", st.State, st.Error)
	}
	if st.Sim == nil || st.Sim.Instructions == 0 || st.Sim.Cycles == 0 {
		t.Fatalf("simulated job carried no dynamic stats: %+v", st.Sim)
	}
}

// TestSpecValidation rejects malformed job documents before admission.
func TestSpecValidation(t *testing.T) {
	good := func() *omd.JobSpec { return &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li"} }
	cases := []struct {
		name string
		mut  func(*omd.JobSpec)
	}{
		{"wrong version", func(js *omd.JobSpec) { js.Version = "omd-job/v0" }},
		{"neither input", func(js *omd.JobSpec) { js.Benchmark = "" }},
		{"both inputs", func(js *omd.JobSpec) { js.Objects = [][]byte{{1}} }},
		{"unknown benchmark", func(js *omd.JobSpec) { js.Benchmark = "nosuch" }},
		{"bad build mode", func(js *omd.JobSpec) { js.BuildMode = "interleave" }},
		{"negative timeout", func(js *omd.JobSpec) { js.TimeoutMS = -1 }},
		{"garbage options", func(js *omd.JobSpec) { js.Options = []byte(`{"version":"nope"}`) }},
		{"garbage profile", func(js *omd.JobSpec) { js.Profile = []byte(`{"not":"a profile"}`) }},
		{"build mode with objects", func(js *omd.JobSpec) {
			js.Benchmark = ""
			js.Objects = [][]byte{{1}}
			js.BuildMode = "compile-each"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			js := good()
			tc.mut(js)
			if _, err := omd.ResolveKey(js); err == nil {
				t.Errorf("resolve accepted %+v", js)
			}
		})
	}
	if _, err := omd.ResolveKey(good()); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestCoalescingKeyDiscriminates: specs that must not share results get
// distinct keys; cosmetic differences (option document formatting) and
// scheduling knobs do not.
func TestCoalescingKeyDiscriminates(t *testing.T) {
	key := func(js *omd.JobSpec) string {
		k, err := omd.ResolveKey(js)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := key(&omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li"})
	distinct := map[string]string{
		"level":    key(&omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li", Options: optDoc(t, om.WithLevel(om.LevelNone))}),
		"bench":    key(&omd.JobSpec{Version: omd.SpecVersion, Benchmark: "compress"}),
		"simulate": key(&omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li", Simulate: true}),
		"stdlib":   key(&omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li", NoStdlib: true}),
		"mode":     key(&omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li", BuildMode: "compile-all"}),
	}
	seen := map[string]string{base: "base"}
	for name, k := range distinct {
		if prev, dup := seen[k]; dup {
			t.Errorf("specs %q and %q share a key", name, prev)
		}
		seen[k] = name
	}
	// The default option document and an explicit copy of it are the same
	// job: the key sees the canonical form, not the client's bytes.
	explicit := key(&omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li", Options: optDoc(t)})
	if explicit != base {
		t.Error("explicit default options changed the key")
	}
	// Timeout is a scheduling knob, not a result input: it must not split
	// otherwise identical jobs into separate executions.
	timed := key(&omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li", TimeoutMS: 30_000})
	if timed != base {
		t.Error("timeout_ms changed the coalescing key")
	}
}

// TestHTTPServerTimeouts: the daemon's http.Server bounds how long a client
// may take to send headers, to send a whole request and to sit idle, with
// room for the largest allowed body at the slowest supported upload rate,
// and sets no write timeout, which would cut off a ?wait=1 response.
func TestHTTPServerTimeouts(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 1})
	hs := s.HTTPServer("127.0.0.1:0")
	if hs.Addr != "127.0.0.1:0" || hs.Handler == nil {
		t.Fatalf("server addr %q, handler %v", hs.Addr, hs.Handler)
	}
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v; want both set", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	upload := time.Duration(omd.MaxSubmitBody/omd.MinUploadRate) * time.Second
	if hs.ReadTimeout < hs.ReadHeaderTimeout+upload {
		t.Errorf("ReadTimeout %v leaves no room for an %d-byte body at %d B/s after %v of headers",
			hs.ReadTimeout, omd.MaxSubmitBody, omd.MinUploadRate, hs.ReadHeaderTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("WriteTimeout %v would cut off ?wait=1 responses", hs.WriteTimeout)
	}
}
