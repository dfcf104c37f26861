// Command omctl is the command-line client for the omd link service.
//
// Usage:
//
//	omctl submit [-server url] [-bench name | obj.o ...] [-level none|simple|full]
//	             [-schedule] [-trace] [-nostdlib] [-profile file] [-sim]
//	             [-check off|static|full]
//	             [-buildmode compile-each|compile-all] [-timeout dur]
//	             [-traceid id] [-wait] [-o image]
//	omctl status [-server url] jobID
//	omctl wait   [-server url] jobID
//	omctl fetch  [-server url] -o image jobID
//	omctl jobs   [-server url]
//	omctl metrics [-server url] [-json]
//	omctl trace  [-server url] [-json] jobID
//	omctl check  [-server url] jobID
//	omctl top    [-server url] [-n jobs]
//
// metrics prints a human-readable summary of the server's queue, build
// cache, warm-path stage stores (resident program, lifted form) with
// hit rates, and phase timers with p50/p90/p99 latencies estimated from the
// histogram buckets; -json prints the raw snapshot instead.
// trace renders a job's span tree — one line per span with duration and
// percentage of the job total — straight from GET /jobs/{id}/trace.
// check prints the om-check/v1 document of a job submitted with `submit
// -check` (the dataflow reports at both symbolic stages plus the linked
// image, and at full the verdict document), straight from GET
// /jobs/{id}/check.
// top is the operator's one-glance view: queue occupancy, worker
// utilization, cache hit rates, and the most recent job latencies.
// wait polls with jittered exponential backoff (20ms doubling to 640ms).
//
// The server defaults to $OMD_SERVER, then http://localhost:7333. submit
// prints the job status as JSON; with -wait it blocks until the job
// finishes, and with -o it also downloads the linked image — a warm daemon
// makes `omctl submit -wait -o a.out -bench li` the remote equivalent of a
// local cmd/om run, byte for byte.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/om"
	"repro/internal/omd"
	"repro/internal/omd/client"
)

func serverURL(fs *flag.FlagSet) *string {
	def := os.Getenv("OMD_SERVER")
	if def == "" {
		def = "http://localhost:7333"
	}
	return fs.String("server", def, "omd server base URL (default $OMD_SERVER)")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "omctl: "+format+"\n", args...)
	os.Exit(1)
}

func printJSON(v any) {
	data, err := json.MarshalIndent(v, "", "\t")
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(data))
}

func main() {
	if len(os.Args) < 2 {
		fatalf("usage: omctl submit|status|wait|fetch|jobs|metrics|trace|check|top ... (see go doc)")
	}
	ctx := context.Background()
	switch cmd := os.Args[1]; cmd {
	case "submit":
		cmdSubmit(ctx, os.Args[2:])
	case "status", "wait":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		server := serverURL(fs)
		fs.Parse(os.Args[2:])
		if fs.NArg() != 1 {
			fatalf("usage: omctl %s [-server url] jobID", cmd)
		}
		c := client.New(*server, nil)
		var st *omd.JobStatus
		var err error
		if cmd == "wait" {
			// Interval 0 selects the client's jittered exponential backoff
			// (20ms start, doubling to 640ms), so short jobs resolve fast
			// and long ones don't hammer the server.
			st, err = c.Wait(ctx, fs.Arg(0), 0)
		} else {
			st, err = c.Status(ctx, fs.Arg(0))
		}
		if err != nil {
			fatalf("%v", err)
		}
		printJSON(st)
	case "fetch":
		fs := flag.NewFlagSet("fetch", flag.ExitOnError)
		server := serverURL(fs)
		out := fs.String("o", "", "output path for the linked image (required)")
		fs.Parse(os.Args[2:])
		if fs.NArg() != 1 || *out == "" {
			fatalf("usage: omctl fetch [-server url] -o image jobID")
		}
		data, err := client.New(*server, nil).Image(ctx, fs.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*out, data, 0o666); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "omctl: wrote %s (%d bytes)\n", *out, len(data))
	case "jobs":
		fs := flag.NewFlagSet("jobs", flag.ExitOnError)
		server := serverURL(fs)
		fs.Parse(os.Args[2:])
		list, err := client.New(*server, nil).List(ctx)
		if err != nil {
			fatalf("%v", err)
		}
		printJSON(list)
	case "metrics":
		fs := flag.NewFlagSet("metrics", flag.ExitOnError)
		server := serverURL(fs)
		raw := fs.Bool("json", false, "print the raw MetricsSnapshot JSON")
		fs.Parse(os.Args[2:])
		snap, err := client.New(*server, nil).Metrics(ctx)
		if err != nil {
			fatalf("%v", err)
		}
		if *raw {
			printJSON(snap)
		} else {
			renderMetrics(snap)
		}
	case "trace":
		fs := flag.NewFlagSet("trace", flag.ExitOnError)
		server := serverURL(fs)
		raw := fs.Bool("json", false, "print the raw om-trace/v1 JSON")
		fs.Parse(os.Args[2:])
		if fs.NArg() != 1 {
			fatalf("usage: omctl trace [-server url] [-json] jobID")
		}
		doc, err := client.New(*server, nil).Trace(ctx, fs.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		if *raw {
			printJSON(doc)
		} else {
			fmt.Print(doc.Render())
		}
	case "check":
		fs := flag.NewFlagSet("check", flag.ExitOnError)
		server := serverURL(fs)
		fs.Parse(os.Args[2:])
		if fs.NArg() != 1 {
			fatalf("usage: omctl check [-server url] jobID")
		}
		data, err := client.New(*server, nil).Check(ctx, fs.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		os.Stdout.Write(data)
	case "top":
		fs := flag.NewFlagSet("top", flag.ExitOnError)
		server := serverURL(fs)
		recent := fs.Int("n", 8, "recent jobs to show")
		fs.Parse(os.Args[2:])
		c := client.New(*server, nil)
		snap, err := c.Metrics(ctx)
		if err != nil {
			fatalf("%v", err)
		}
		jobs, err := c.List(ctx)
		if err != nil {
			fatalf("%v", err)
		}
		renderTop(snap, jobs, *recent)
	default:
		fatalf("unknown command %q (want submit|status|wait|fetch|jobs|metrics|trace|top)", cmd)
	}
}

// renderTop is the operator's one-glance dashboard: queue and pool
// occupancy, worker utilization over the server's lifetime, every cache's
// hit rate, job latency quantiles, and the tail of the job log.
func renderTop(snap *omd.MetricsSnapshot, jobs []omd.JobStatus, recent int) {
	q := snap.Queue
	state := "accepting"
	if q.Draining {
		state = "draining"
	}
	uptime := time.Duration(q.UptimeMS) * time.Millisecond
	fmt.Printf("omd up %v, %s\n", uptime.Round(time.Second), state)
	fmt.Printf("queue: %d/%d queued, %d/%d workers busy\n", q.Depth, q.Capacity, q.Running, q.Workers)

	// Utilization: total worker-seconds spent executing over lifetime
	// worker-seconds available.
	if jt := timerFor(snap, "omd/job"); jt != nil && uptime > 0 && q.Workers > 0 {
		util := jt.Sum.Seconds() / (uptime.Seconds() * float64(q.Workers))
		fmt.Printf("utilization: %.1f%% (%d jobs executed, p50 %v  p90 %v  p99 %v)\n",
			100*util, jt.Count,
			jt.Quantile(0.50).Round(time.Microsecond),
			jt.Quantile(0.90).Round(time.Microsecond),
			jt.Quantile(0.99).Round(time.Microsecond))
	}

	submitted := snap.Counter("omd/submitted")
	if submitted > 0 {
		fmt.Printf("admissions: %d submitted, %d executed, %d coalesced, %d memo hits\n",
			submitted, snap.Counter("omd/jobs-executed"),
			snap.Counter("omd/coalesce-hits"), snap.Counter("omd/memo-hits"))
	}
	c := snap.Cache
	fmt.Printf("object cache: %s   image cache: %s\n",
		rate(c.Hits, c.Misses), rate(c.ImageHits, c.ImageMisses))
	for _, name := range []string{"program", "lift", "pass"} {
		hits, misses := snap.Counter("stage/"+name+"/hits"), snap.Counter("stage/"+name+"/misses")
		if hits+misses > 0 {
			fmt.Printf("stage %-8s %s\n", name+":", rate(hits, misses))
		}
	}

	if recent > 0 && len(jobs) > 0 {
		fmt.Printf("recent jobs:\n")
		if len(jobs) > recent {
			jobs = jobs[len(jobs)-recent:]
		}
		for i := len(jobs) - 1; i >= 0; i-- {
			j := jobs[i]
			flags := ""
			if j.Coalesced {
				flags += " coalesced"
			}
			if j.MemoHit {
				flags += " memo-hit"
			}
			if j.ImageCacheHit {
				flags += " image-cache"
			}
			fmt.Printf("  %-6s %-7s wait %-10v exec %-10v trace %s%s\n",
				j.ID, j.State, j.QueueWait.Round(time.Microsecond),
				j.Exec.Round(time.Microsecond), j.TraceID, flags)
		}
	}
}

// timerFor returns a named timer's stats from the snapshot, nil if absent.
func timerFor(snap *omd.MetricsSnapshot, name string) *obs.TimerStats {
	for _, e := range snap.Metrics {
		if e.Name == name && e.Kind == "timer" && e.Timings != nil && e.Timings.Count > 0 {
			return e.Timings
		}
	}
	return nil
}

// renderMetrics prints the snapshot for humans: queue and pool state, the
// object/image build cache, every warm-path stage store with its hit rate,
// the om pipeline counters, and the phase timers.
func renderMetrics(snap *omd.MetricsSnapshot) {
	q := snap.Queue
	state := "accepting"
	if q.Draining {
		state = "draining"
	}
	fmt.Printf("queue: %d/%d jobs queued, %d workers, %s\n", q.Depth, q.Capacity, q.Workers, state)

	c := snap.Cache
	fmt.Printf("object cache: %s (%d from disk), %d compiles\n",
		rate(c.Hits, c.Misses), c.DiskHits, c.Misses)
	fmt.Printf("image cache:  %s\n", rate(c.ImageHits, c.ImageMisses))

	// Warm-path stage stores report as stage/<name>/{hits,misses,evictions}.
	names := []string{}
	seen := map[string]bool{}
	for _, e := range snap.Metrics {
		if e.Kind != "counter" || !strings.HasPrefix(e.Name, "stage/") {
			continue
		}
		if name, _, ok := strings.Cut(strings.TrimPrefix(e.Name, "stage/"), "/"); ok && !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	for _, name := range names {
		fmt.Printf("stage %-8s %s, %d evictions\n", name+":",
			rate(snap.Counter("stage/"+name+"/hits"), snap.Counter("stage/"+name+"/misses")),
			snap.Counter("stage/"+name+"/evictions"))
	}

	if procs := snap.Counter("om/lift/procs") + snap.Counter("om/lift/replayed"); procs > 0 {
		fmt.Printf("om: %d modules decoded; %d procs lifted, %d replayed; %d passed\n",
			snap.Counter("om/decode/modules"),
			snap.Counter("om/lift/procs"), snap.Counter("om/lift/replayed"),
			snap.Counter("om/passes/procs"))
	}

	for _, e := range snap.Metrics {
		if e.Kind == "timer" && e.Timings != nil && e.Timings.Count > 0 {
			t := e.Timings
			fmt.Printf("timer %-14s %4d × avg %v  p50 %v  p90 %v  p99 %v (total %v)\n",
				e.Name+":", t.Count,
				(t.Sum / time.Duration(t.Count)).Round(time.Microsecond),
				t.Quantile(0.50).Round(time.Microsecond),
				t.Quantile(0.90).Round(time.Microsecond),
				t.Quantile(0.99).Round(time.Microsecond),
				t.Sum.Round(time.Millisecond))
		}
	}
}

// rate formats "H hits / M misses (P% hit)".
func rate(hits, misses uint64) string {
	total := hits + misses
	if total == 0 {
		return "no traffic"
	}
	return fmt.Sprintf("%d hits / %d misses (%.1f%% hit)", hits, misses, 100*float64(hits)/float64(total))
}

func cmdSubmit(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	server := serverURL(fs)
	bench := fs.String("bench", "", "benchmark of the built-in suite to link")
	buildMode := fs.String("buildmode", "", "benchmark build mode: compile-each (default) or compile-all")
	levelName := fs.String("level", "full", "optimization level: none, simple, or full")
	schedule := fs.Bool("schedule", false, "enable instruction scheduling")
	trace := fs.Bool("trace", false, "record a decision journal")
	noStdlib := fs.Bool("nostdlib", false, "do not link the runtime library")
	profPath := fs.String("profile", "", "om-profile/v1 file for profile-guided layout")
	simulate := fs.Bool("sim", false, "simulate the linked image and report dynamic stats")
	check := fs.String("check", "", "check level the server proves the link at: off, static or full; a failed check fails the job")
	timeout := fs.Duration("timeout", 0, "per-job deadline override (0 = server default)")
	traceID := fs.String("traceid", "", "correlate the job under this trace id (Om-Trace-Id)")
	wait := fs.Bool("wait", false, "block until the job finishes")
	out := fs.String("o", "", "with -wait: download the linked image here")
	fs.Parse(args)
	if (*bench == "") == (fs.NArg() == 0) {
		fatalf("usage: omctl submit (-bench name | obj.o ...) [flags]")
	}
	if *out != "" && !*wait {
		fatalf("-o requires -wait")
	}

	level, err := om.ParseLevel(*levelName)
	if err != nil {
		fatalf("%v", err)
	}
	opts := []om.Option{om.WithLevel(level), om.WithSchedule(*schedule)}
	if *trace {
		opts = append(opts, om.WithTrace())
	}
	optDoc, err := om.MarshalOptions(opts...)
	if err != nil {
		fatalf("%v", err)
	}

	spec := &omd.JobSpec{
		Version:   omd.SpecVersion,
		Benchmark: *bench,
		BuildMode: *buildMode,
		NoStdlib:  *noStdlib,
		Options:   optDoc,
		Simulate:  *simulate,
		Check:     *check,
		TimeoutMS: timeout.Milliseconds(),
	}
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fatalf("%v", err)
		}
		spec.Objects = append(spec.Objects, data)
	}
	if *profPath != "" {
		data, err := os.ReadFile(*profPath)
		if err != nil {
			fatalf("%v", err)
		}
		spec.Profile = data
	}

	c := client.New(*server, nil)
	var st *omd.JobStatus
	if *traceID != "" {
		st, err = c.SubmitTraced(ctx, spec, *traceID, *wait)
	} else if *wait {
		st, err = c.SubmitWait(ctx, spec)
	} else {
		st, err = c.Submit(ctx, spec)
	}
	if err != nil {
		if client.IsQueueFull(err) {
			ae := err.(*client.APIError)
			fatalf("server busy, retry in %ds: %v", ae.RetryAfter, err)
		}
		fatalf("%v", err)
	}
	printJSON(st)
	if st.State == omd.JobFailed {
		os.Exit(1)
	}
	if *out != "" {
		data, err := c.Image(ctx, st.ID)
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*out, data, 0o666); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "omctl: wrote %s (%d bytes)\n", *out, len(data))
	}
}
