// Command omd runs the link-time optimization service: a resident daemon
// that accepts omd-job/v3 link jobs over HTTP, executes them on a
// bounded worker pool behind an explicit admission queue, coalesces
// identical in-flight requests into one execution, and keeps the build
// cache warm across requests.
//
// Usage:
//
//	omd [-addr :7333] [-j N] [-queue N] [-timeout 5m] [-cache dir|off]
//	    [-slow dur] [-flights N] [-checksample N] [-v]
//	omd -loadsmoke [-smoke-clients N]
//
// -checksample N shadow-checks every Nth fresh link of an unchecked job at
// the full level, counted in /metrics (omd/check-*) and visible as a check
// span in the job trace; a shadow failure never fails the job. Jobs that
// request a check level (JobSpec check, `omctl submit -check`) are always
// checked and do fail on a bad check.
//
// Every job gets a span-tree trace (GET /jobs/{id}/trace; recent completed
// traces at GET /debug/flights), structured logs correlate by trace id, and
// -slow logs the full span tree of any job slower than the threshold.
//
// SIGINT/SIGTERM drains gracefully: admissions stop (503), queued and
// running jobs finish, then the process exits; a second signal (or the
// drain timeout) hard-cancels in-flight work.
//
// -loadsmoke is the self-test mode used by `make omd-smoke`: it starts an
// in-process server, fires many concurrent identical submissions at it, and
// exits nonzero unless the batch collapsed to exactly one execution with
// every client receiving identical bytes and the executed job's trace
// carrying every lifecycle span. It then uploads a benchmark's compiled
// modules as object parts and requires the served image to equal a local
// link of the same modules.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/buildcache"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/om"
	"repro/internal/omd"
	"repro/internal/omd/client"
	"repro/internal/rtlib"
	benchspec "repro/internal/spec"
	"repro/internal/tcc"
)

type stderrLogger struct{}

func (stderrLogger) Logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func main() {
	addr := flag.String("addr", ":7333", "listen address")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrently executing jobs")
	queue := flag.Int("queue", 64, "admission queue depth (excess submissions get 429)")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-job deadline (queue wait + execution)")
	drain := flag.Duration("drain", time.Minute, "graceful shutdown budget before in-flight jobs are canceled")
	cacheDir := flag.String("cache", os.Getenv("OMD_CACHE"),
		"build cache directory ('' = in-memory only, 'off' = disabled; default $OMD_CACHE)")
	slow := flag.Duration("slow", 30*time.Second, "log the full span tree of jobs slower than this (0 = never)")
	flights := flag.Int("flights", 0, "completed traces retained for /debug/flights (0 = default 128)")
	checkSample := flag.Int("checksample", 0, "shadow-check every Nth fresh link at the full level (0 = off); failures log + count, never fail the job")
	verbose := flag.Bool("v", false, "log job progress to stderr")
	loadSmoke := flag.Bool("loadsmoke", false, "run the coalescing load self-test and exit")
	smokeClients := flag.Int("smoke-clients", 32, "with -loadsmoke: concurrent identical submissions")
	flag.Parse()

	cfg := omd.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		JobTimeout:         *timeout,
		Metrics:            obs.NewRegistry(),
		SlowJob:            *slow,
		FlightRecorderSize: *flights,
		CheckSample:        *checkSample,
	}
	if *verbose || *loadSmoke {
		cfg.Logger = stderrLogger{}
		level := slog.LevelInfo
		if *verbose {
			level = slog.LevelDebug
		}
		cfg.Slog = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	}
	if *cacheDir != "off" {
		cache, err := buildcache.New(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "omd:", err)
			os.Exit(1)
		}
		cfg.Cache = cache
	}
	srv := omd.NewServer(cfg)

	if *loadSmoke {
		if err := runLoadSmoke(srv, *smokeClients); err != nil {
			fmt.Fprintln(os.Stderr, "omd: loadsmoke FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("omd: loadsmoke ok")
		return
	}

	hs := srv.HTTPServer(*addr)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "omd: listening on %s (%d workers, queue %d)\n", *addr, cfg.Workers, *queue)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "omd:", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "omd: %v: draining (again to force)\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	go func() {
		<-sigc
		cancel()
	}()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "omd:", err)
	}
	cancel()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	_ = hs.Shutdown(shutCtx)
	fmt.Fprintln(os.Stderr, "omd: drained, exiting")
}

// runLoadSmoke hammers an in-process server with n concurrent identical
// submissions and verifies the exactly-one-execution property: every client
// gets the same image, and the executed-jobs counter reads 1.
func runLoadSmoke(srv *omd.Server, n int) error {
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	c := client.New(ts.URL, ts.Client())

	spec := &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li"}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	images := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.SubmitWait(ctx, spec)
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
			return fmt.Errorf("client %d: %w", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(images[i], images[0]) {
			return fmt.Errorf("client %d received a different image (%d vs %d bytes)", i, len(images[i]), len(images[0]))
		}
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	executed := snap.Counter("omd/jobs-executed")
	coalesced := snap.Counter("omd/coalesce-hits") + snap.Counter("omd/memo-hits")
	if executed != 1 {
		return fmt.Errorf("%d identical submissions ran %d executions, want exactly 1", n, executed)
	}
	if got := executed + coalesced; got != uint64(n) {
		return fmt.Errorf("accounting: executed+coalesced+memo = %d, want %d", got, n)
	}
	if err := checkExecutedTrace(ctx, c); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "omd: loadsmoke: %d clients -> 1 execution (%d coalesced/memo) in %v, image %d bytes\n",
		n, coalesced, time.Since(start), len(images[0]))
	return checkUpload(ctx, c, "li")
}

// checkUpload compiles a benchmark's modules, submits their objfile bytes
// as an upload, and requires the served image to equal a local link of the
// same modules under the same (default) options. It then resubmits the
// upload with simulate flipped and requires the image cache to serve the
// same bytes.
func checkUpload(ctx context.Context, c *client.Client, bench string) error {
	b, ok := benchspec.ByName(bench)
	if !ok {
		return fmt.Errorf("upload check: no benchmark %q", bench)
	}
	spec := &omd.JobSpec{Version: omd.SpecVersion}
	var objs []*objfile.Object
	for _, m := range b.Modules {
		obj, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := obj.Write(&buf); err != nil {
			return err
		}
		objs, spec.Objects = append(objs, obj), append(spec.Objects, buf.Bytes())
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		return err
	}
	p, err := link.Merge(append(objs, lib...))
	if err != nil {
		return err
	}
	res, err := om.Run(ctx, p)
	if err != nil {
		return err
	}
	var local bytes.Buffer
	if err := res.Image.Write(&local); err != nil {
		return err
	}

	st, err := c.SubmitWait(ctx, spec)
	if err != nil {
		return fmt.Errorf("upload check: %w", err)
	}
	if st.State != omd.JobDone {
		return fmt.Errorf("upload check: job %s: state %s (%s)", st.ID, st.State, st.Error)
	}
	served, err := c.Image(ctx, st.ID)
	if err != nil {
		return fmt.Errorf("upload check: %w", err)
	}
	if !bytes.Equal(served, local.Bytes()) {
		return fmt.Errorf("upload check: served image of %d uploaded %s modules differs from a local link (%d vs %d bytes)",
			len(spec.Objects), bench, len(served), local.Len())
	}
	fmt.Fprintf(os.Stderr, "omd: loadsmoke: %d uploaded %s modules -> image identical to a local link (%d bytes)\n",
		len(spec.Objects), bench, len(served))

	// The same upload with simulate flipped is a new job but the same
	// image: the server must serve its cached bytes.
	resim := *spec
	resim.Simulate = !spec.Simulate
	st, err = c.SubmitWait(ctx, &resim)
	if err != nil {
		return fmt.Errorf("image-cache check: %w", err)
	}
	if st.State != omd.JobDone || !st.ImageCacheHit {
		return fmt.Errorf("image-cache check: job %s: state %s (%s), image-cache hit %v; want a done hit",
			st.ID, st.State, st.Error, st.ImageCacheHit)
	}
	cached, err := c.Image(ctx, st.ID)
	if err != nil {
		return fmt.Errorf("image-cache check: %w", err)
	}
	if !bytes.Equal(cached, served) {
		return fmt.Errorf("image-cache check: cached image differs from the first job's (%d vs %d bytes)",
			len(cached), len(served))
	}
	fmt.Fprintf(os.Stderr, "omd: loadsmoke: resubmitted with simulate=%v -> image-cache hit, same %d bytes\n",
		resim.Simulate, len(cached))
	return nil
}

// checkExecutedTrace finds the one job that actually executed and verifies
// its span tree is complete: every lifecycle phase present, none with a
// negative duration, and the substantial phases with real time in them.
func checkExecutedTrace(ctx context.Context, c *client.Client) error {
	jobs, err := c.List(ctx)
	if err != nil {
		return err
	}
	var lead *omd.JobStatus
	for i := range jobs {
		if !jobs[i].Coalesced && !jobs[i].MemoHit {
			lead = &jobs[i]
			break
		}
	}
	if lead == nil {
		return fmt.Errorf("trace check: no executed (non-coalesced, non-memo) job found among %d", len(jobs))
	}
	doc, err := c.Trace(ctx, lead.ID)
	if err != nil {
		return fmt.Errorf("trace check: fetch %s: %w", lead.ID, err)
	}
	// Presence for every lifecycle phase; positive duration for the phases
	// that do real work (cache lookups can legitimately round to zero).
	present := []string{
		"admission", "queue-wait", "execute",
		"program-cache", "compile", "merge",
		"om", "om/lift", "om/passes", "om/emit",
	}
	positive := map[string]bool{
		"execute": true, "compile": true, "om": true,
		"om/lift": true, "om/passes": true, "om/emit": true,
	}
	for _, phase := range present {
		sp := doc.Find(phase)
		if sp == nil {
			return fmt.Errorf("trace check: job %s trace lacks span %q:\n%s", lead.ID, phase, doc.Render())
		}
		if sp.Duration < 0 || (positive[phase] && sp.Duration == 0) {
			return fmt.Errorf("trace check: span %q duration %v:\n%s", phase, sp.Duration, doc.Render())
		}
	}
	var sum time.Duration
	for _, child := range doc.Root.Children {
		sum += child.Duration
	}
	if doc.Root.Duration <= 0 || doc.Root.Duration < sum {
		return fmt.Errorf("trace check: root %v does not cover children (sum %v):\n%s",
			doc.Root.Duration, sum, doc.Render())
	}
	fmt.Fprintf(os.Stderr, "omd: loadsmoke: trace %s complete (%d lifecycle spans, root %v)\n",
		doc.TraceID, len(present), doc.Root.Duration.Round(time.Millisecond))
	return nil
}
