package omd_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buildcache"
	"repro/internal/obs"
	"repro/internal/omd"
)

// lifecyclePhases are the spans every fresh (uncached, unmemoized) link job
// must record, in the server's own execution order.
var lifecyclePhases = []string{
	"admission", "queue-wait", "execute",
	"compile", "merge",
	"om", "om/lift", "om/passes", "om/emit",
}

// TestJobTraceLifecycle is the acceptance test for the tentpole: a fresh
// job's trace contains every lifecycle phase with coherent durations, the
// root span covers its children, and the client-assigned trace id survives
// the round trip into status, trace, and /debug/flights.
func TestJobTraceLifecycle(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 2, QueueDepth: 8})
	c := startHTTP(t, s)
	ctx := context.Background()

	st, err := c.SubmitTraced(ctx, &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li"}, "trace-abc123", true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != omd.JobDone {
		t.Fatalf("job state = %s, want done (%s)", st.State, st.Error)
	}
	if st.TraceID != "trace-abc123" {
		t.Fatalf("TraceID = %q, want the submitted header value", st.TraceID)
	}
	if st.QueueWait < 0 || st.Exec <= 0 {
		t.Errorf("status durations queue_wait=%v exec=%v, want >= 0 and > 0", st.QueueWait, st.Exec)
	}

	doc, err := c.Trace(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version != obs.TraceVersion {
		t.Errorf("trace version = %q, want %q", doc.Version, obs.TraceVersion)
	}
	if doc.TraceID != "trace-abc123" {
		t.Errorf("trace doc id = %q, want trace-abc123", doc.TraceID)
	}
	for _, phase := range lifecyclePhases {
		sp := doc.Find(phase)
		if sp == nil {
			t.Fatalf("trace lacks phase %q:\n%s", phase, doc.Render())
		}
		if sp.Duration < 0 {
			t.Errorf("phase %q duration = %v, want >= 0", phase, sp.Duration)
		}
	}
	for _, phase := range []string{"execute", "om", "om/lift"} {
		if doc.Find(phase).Duration <= 0 {
			t.Errorf("phase %q duration is zero, want > 0:\n%s", phase, doc.Render())
		}
	}
	// The root must cover its direct children: admission + queue-wait +
	// execute are sequential phases of one job.
	var sum time.Duration
	for _, child := range doc.Root.Children {
		sum += child.Duration
	}
	if doc.Root.Duration < sum {
		t.Errorf("root %v < sum of children %v:\n%s", doc.Root.Duration, sum, doc.Render())
	}

	// The completed trace is also listed at /debug/flights.
	flights, err := c.Flights(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range flights {
		if f.TraceID == "trace-abc123" {
			found = true
		}
	}
	if !found {
		t.Errorf("completed trace missing from /debug/flights (%d entries)", len(flights))
	}
}

// TestTraceWarmPaths: a memo-hit submission still yields a complete (tiny)
// trace, and a re-link on a fresh server sharing the first one's cache
// directory records the short-circuit: image-cache hit, no om span.
func TestTraceWarmPaths(t *testing.T) {
	cache, err := buildcache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li"}
	ctx := context.Background()

	s1 := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 8, Cache: cache})
	c1 := startHTTP(t, s1)
	first, err := c1.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Same server, same spec: completed-result memo hit.
	memoSt, err := c1.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !memoSt.MemoHit {
		t.Fatalf("second submission not a memo hit")
	}
	if memoSt.TraceID == first.TraceID || memoSt.TraceID == "" {
		t.Errorf("server-assigned trace ids collide across jobs: %q", memoSt.TraceID)
	}
	memoDoc, err := c1.Trace(ctx, memoSt.ID)
	if err != nil {
		t.Fatal(err)
	}
	adm := memoDoc.Find("admission")
	if adm == nil || adm.Attrs["outcome"] != "memo-hit" {
		t.Errorf("memo-hit trace lacks admission outcome:\n%s", memoDoc.Render())
	}
	if memoDoc.Find("execute") != nil {
		t.Errorf("memo-hit trace claims an execution:\n%s", memoDoc.Render())
	}
	var memoSum time.Duration
	for _, child := range memoDoc.Root.Children {
		memoSum += child.Duration
	}
	if memoDoc.Root.Duration < memoSum {
		t.Errorf("memo-hit root %v < sum of children %v:\n%s",
			memoDoc.Root.Duration, memoSum, memoDoc.Render())
	}

	// Fresh server, shared cache directory: the image is served from the
	// cache and the trace shows exactly that.
	s2 := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 8, Cache: cache})
	c2 := startHTTP(t, s2)
	cachedSt, err := c2.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !cachedSt.ImageCacheHit {
		t.Fatalf("relink on fresh server not an image-cache hit")
	}
	cachedDoc, err := c2.Trace(ctx, cachedSt.ID)
	if err != nil {
		t.Fatal(err)
	}
	ic := cachedDoc.Find("image-cache")
	if ic == nil || ic.Attrs["hit"] != "true" {
		t.Errorf("image-cache-served trace lacks the hitting lookup:\n%s", cachedDoc.Render())
	}
	if cachedDoc.Find("om") != nil {
		t.Errorf("image-cache-served trace claims om ran:\n%s", cachedDoc.Render())
	}
}

// TestTraceCoalesced: a job that attaches to an in-flight execution records
// an attached-wait plus a grafted copy of the shared execution span, marked
// shared="flight".
func TestTraceCoalesced(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 8})
	if err := s.PrewarmLib(); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var gateOnce sync.Once
	s.SetExecGate(func(string) {
		gateOnce.Do(func() { <-release })
	})
	c := startHTTP(t, s)
	ctx := context.Background()

	spec := &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li"}
	lead, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Coalesced {
		t.Fatalf("second submission did not coalesce")
	}
	close(release)
	if _, err := c.Wait(ctx, follower.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	doc, err := c.Trace(ctx, follower.ID)
	if err != nil {
		t.Fatal(err)
	}
	if adm := doc.Find("admission"); adm == nil || adm.Attrs["outcome"] != "coalesced" {
		t.Errorf("coalesced trace lacks admission outcome:\n%s", doc.Render())
	}
	if doc.Find("attached-wait") == nil {
		t.Errorf("coalesced trace lacks attached-wait:\n%s", doc.Render())
	}
	exec := doc.Find("execute")
	if exec == nil || exec.Attrs["shared"] != "flight" {
		t.Errorf("coalesced trace lacks the shared execution graft:\n%s", doc.Render())
	}

	leadDoc, err := c.Trace(ctx, lead.ID)
	if err != nil {
		t.Fatal(err)
	}
	if le := leadDoc.Find("execute"); le == nil || le.Attrs["shared"] != "" {
		t.Errorf("lead trace's execution should be owned, not shared:\n%s", leadDoc.Render())
	}
}

// TestFlightsReadJobStore: /debug/flights lists the traces of the newest
// terminal jobs in the job store, newest first in submission order. A memo
// hit is listed, a running job is not until it finishes, ?n= narrows the
// view, and an n that is not a positive integer is a 400.
func TestFlightsReadJobStore(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 8})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	var gated atomic.Bool
	s.SetExecGate(func(string) {
		if gated.Load() {
			entered <- struct{}{}
			<-release
		}
	})
	c := startHTTP(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	traces := func(t *testing.T, n int) []string {
		t.Helper()
		docs, err := c.Flights(ctx, n)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(docs))
		for i, d := range docs {
			ids[i] = d.TraceID
		}
		return ids
	}
	spec := func(src string) *omd.JobSpec {
		return &omd.JobSpec{Version: omd.SpecVersion, Objects: [][]byte{uploadObject(t, "u", src)}}
	}

	first, err := c.SubmitWait(ctx, spec("long main() { return 1; }\n"))
	if err != nil {
		t.Fatal(err)
	}
	memo, err := c.SubmitWait(ctx, spec("long main() { return 1; }\n"))
	if err != nil {
		t.Fatal(err)
	}
	if first.State != omd.JobDone || !memo.MemoHit {
		t.Fatalf("first job %s (%s), repeat memo hit %v; want done, then a memo hit", first.State, first.Error, memo.MemoHit)
	}
	gated.Store(true)
	running, err := c.Submit(ctx, spec("long main() { return 2; }\n"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never picked up the gated job")
	}
	if got, want := fmt.Sprint(traces(t, 0)), fmt.Sprint([]string{memo.TraceID, first.TraceID}); got != want {
		t.Errorf("with a job running, flights = %s, want %s", got, want)
	}
	close(release)
	done, err := c.Wait(ctx, running.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(traces(t, 0)), fmt.Sprint([]string{done.TraceID, memo.TraceID, first.TraceID}); got != want {
		t.Errorf("after the job finished, flights = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(traces(t, 2)), fmt.Sprint([]string{done.TraceID, memo.TraceID}); got != want {
		t.Errorf("flights?n=2 = %s, want %s", got, want)
	}

	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, n := range []string{"0", "-1", "x", "1.5"} {
		resp, err := http.Get(ts.URL + "/debug/flights?n=" + n)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || decodeErr != nil || !strings.Contains(body.Error, "positive integer") {
			t.Errorf("flights?n=%s answered %d %q (%v), want 400 naming a positive integer", n, resp.StatusCode, body.Error, decodeErr)
		}
	}
}

// TestPrometheusExposition: /metrics?format=prometheus serves text-format
// counters, histograms, and the runtime gauges (satellite: runtime health in
// both views).
func TestPrometheusExposition(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 8})
	c := startHTTP(t, s)
	ctx := context.Background()
	if _, err := c.SubmitWait(ctx, &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li"}); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"omd_submitted_total 1",
		"# TYPE omd_job_seconds histogram",
		`omd_job_seconds_bucket{le="+Inf"} 1`,
		"# TYPE runtime_goroutines gauge",
		"runtime_heap_inuse_bytes",
		"runtime_gc_pause_total_ns",
		"omd_workers ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus exposition lacks %q", want)
		}
	}

	// The JSON view carries the same runtime gauges.
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	foundGoroutines := false
	for _, e := range snap.Metrics {
		if e.Name == "runtime/goroutines" && e.Kind == "gauge" && e.Gauge > 0 {
			foundGoroutines = true
		}
	}
	if !foundGoroutines {
		t.Error("JSON metrics lack the runtime/goroutines gauge")
	}
	if snap.Queue.Workers != 1 || snap.Queue.UptimeMS < 0 {
		t.Errorf("queue info = %+v, want workers=1 and uptime >= 0", snap.Queue)
	}
}

// TestSlowJobLogging: a server with a zero-distance slow threshold logs the
// rendered span tree at Warn, correlated by trace id; a structured
// completion record accompanies every job.
func TestSlowJobLogging(t *testing.T) {
	var mu sync.Mutex
	var logBuf bytes.Buffer
	h := slog.NewTextHandler(&lockedWriter{mu: &mu, w: &logBuf}, nil)
	s := newTestServer(t, omd.Config{
		Workers: 1, QueueDepth: 8,
		SlowJob: time.Nanosecond,
		Slog:    slog.New(h),
	})
	c := startHTTP(t, s)

	st, err := c.SubmitTraced(context.Background(), &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li"}, "slow-test", true)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	logged := logBuf.String()
	mu.Unlock()
	if !strings.Contains(logged, "omd job done") || !strings.Contains(logged, "trace=slow-test") {
		t.Errorf("completion log missing or uncorrelated:\n%s", logged)
	}
	if !strings.Contains(logged, "omd slow job") {
		t.Errorf("slow-job warning missing:\n%s", logged)
	}
	// The warning carries the rendered tree: every lifecycle phase appears.
	sc := bufio.NewScanner(strings.NewReader(logged))
	var slowLine string
	for sc.Scan() {
		if strings.Contains(sc.Text(), "omd slow job") {
			slowLine = sc.Text()
		}
	}
	for _, phase := range []string{"execute", "om/lift", "om/emit"} {
		if !strings.Contains(logged, phase) {
			t.Errorf("slow-job span tree lacks %q:\n%s", phase, slowLine)
		}
	}
	_ = st
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestCanceledLeadPickup: a terminal job record keeps only its trace
// document, while a queued job's live span tree must last until a worker
// picks its flight up. Here the lead's waiter disconnects while an earlier
// job holds the only worker, which cancels the queued flight, and a
// follower then attaches to it. At pickup the flight fails with the
// cancellation; both records end failed, each with a complete trace under
// its trace id; and the same spec then links normally.
func TestCanceledLeadPickup(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 8})
	if err := s.PrewarmLib(); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var gateOnce sync.Once
	s.SetExecGate(func(string) {
		gateOnce.Do(func() { <-release })
	})
	c := startHTTP(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	blocker, err := c.Submit(ctx, &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "compress"})
	if err != nil {
		t.Fatal(err)
	}
	spec := &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li"}
	waitCtx, disconnect := context.WithCancel(ctx)
	waitErr := make(chan error, 1)
	go func() {
		_, err := c.SubmitTraced(waitCtx, spec, "lead-trace", true)
		waitErr <- err
	}()
	poll := func(what string, done func(*omd.MetricsSnapshot, []omd.JobStatus) bool) {
		t.Helper()
		for {
			snap, err := c.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := c.List(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if done(snap, jobs) {
				return
			}
			if ctx.Err() != nil {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	poll("the lead's admission", func(_ *omd.MetricsSnapshot, jobs []omd.JobStatus) bool { return len(jobs) == 2 })
	disconnect()
	if err := <-waitErr; err == nil {
		t.Fatal("SubmitWait returned nil after its client disconnected")
	}
	poll("the abandoned flight", func(snap *omd.MetricsSnapshot, _ []omd.JobStatus) bool {
		return snap.Counter("omd/flights-abandoned") == 1
	})
	follower, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Coalesced {
		t.Fatal("follower did not attach to the queued flight")
	}
	close(release)
	if _, err := c.Wait(ctx, follower.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, blocker.ID, 5*time.Millisecond); err != nil || st.State != omd.JobDone {
		t.Fatalf("blocking job: %v, err %v", st, err)
	}

	jobs, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 || jobs[1].TraceID != "lead-trace" {
		t.Fatalf("jobs %+v, want the blocker, the lead (trace lead-trace) and the follower", jobs)
	}
	for _, st := range jobs[1:] {
		if st.State != omd.JobFailed || !strings.Contains(st.Error, "canceled") {
			t.Errorf("job %s: state %s (%q), want failed with the cancellation", st.ID, st.State, st.Error)
		}
		doc, err := c.Trace(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if doc.TraceID != st.TraceID || doc.Find("execute") == nil || doc.Root.Attrs["state"] != string(omd.JobFailed) {
			t.Errorf("job %s: trace %s lacks its execution or terminal state:\n%s", st.ID, doc.TraceID, doc.Render())
		}
	}

	again, err := c.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != omd.JobDone || again.MemoHit {
		t.Errorf("resubmission after the canceled flight: state %s, memo hit %v; want a fresh link", again.State, again.MemoHit)
	}
}
