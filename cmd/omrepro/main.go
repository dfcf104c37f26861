// Command omrepro reproduces every table and figure of the paper's
// evaluation: it builds the benchmark suite in compile-each and compile-all
// modes, links each with the standard linker and with OM at every level,
// measures static code properties and simulated execution time, and prints
// the paper-style tables.
//
// Matrix cells run concurrently on a bounded worker pool (-j), and a
// content-addressed build cache (-cache, or the OMREPRO_CACHE environment
// variable) lets repeated runs skip compilation of unchanged sources.
// Results are deterministic: any -j produces identical figures.
//
// With -trace, every OM-linked matrix cell's decision journal is written
// into the given directory (one JSON file per cell, renderable with
// omtrace); -metrics prints phase timings, cache traffic, and worker-pool
// utilization as JSON on stderr.
//
// Usage:
//
//	omrepro [-fig 3|4|5|6|7|gat|size|ablate|pgo|all] [-bench name,name,...]
//	        [-j N] [-cache dir|off] [-trace dir] [-metrics] [-pgostrict] [-v]
//
// -fig pgo runs the profile-guided-layout feedback loop (F-PGO): each
// benchmark's OM-full baseline runs under the simulator's block profiler,
// and the call-edge profile it yields relinks OM-full with Pettis-Hansen
// procedure layout; the table
// reports cycle and I-cache-miss deltas against the OM-full baseline under
// a scaled-down I-cache. With -pgostrict the run fails if layout costs
// cycles anywhere.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/buildcache"
	"repro/internal/harness"
	"repro/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: 3, 4, 5, 6, 7, gat, size, ablate, pgo, or all")
	benchList := flag.String("bench", "", "comma-separated benchmark subset (default: all 19)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent build/measure jobs")
	cacheDir := flag.String("cache", os.Getenv("OMREPRO_CACHE"),
		"build cache directory ('' = in-memory only, 'off' = disabled; default $OMREPRO_CACHE)")
	traceDir := flag.String("trace", "", "write per-cell decision journals into this directory")
	metrics := flag.Bool("metrics", false, "print phase metrics as JSON on stderr")
	pgoStrict := flag.Bool("pgostrict", false, "with -fig pgo: exit 1 if layout costs cycles on any benchmark")
	verbose := flag.Bool("v", false, "print per-variant progress")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	logger := harness.LoggerFunc(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
	r := harness.New()
	r.Parallelism = *jobs
	if *verbose {
		r.Logger = logger
	}
	if *metrics {
		r.Metrics = obs.NewRegistry()
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o777); err != nil {
			fmt.Fprintln(os.Stderr, "omrepro:", err)
			os.Exit(1)
		}
		r.Trace = true
	}
	if *cacheDir != "off" {
		cache, err := buildcache.New(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "omrepro:", err)
			os.Exit(1)
		}
		r.Cache = cache
	}

	var names []string
	if *benchList != "" {
		names = strings.Split(*benchList, ",")
	}

	if *fig == "pgo" {
		rows, err := r.RunPGO(ctx, names)
		if err != nil {
			fmt.Fprintln(os.Stderr, "omrepro:", err)
			os.Exit(1)
		}
		fmt.Println(harness.PGOTable(rows))
		if *traceDir != "" {
			if err := writePGOJournals(*traceDir, rows, logger); err != nil {
				fmt.Fprintln(os.Stderr, "omrepro:", err)
				os.Exit(1)
			}
		}
		reportCache(r, logger, *verbose)
		reportMetrics(r)
		if bad := harness.PGORegressions(rows); *pgoStrict && len(bad) > 0 {
			fmt.Fprintln(os.Stderr, "omrepro: pgo regressions:", strings.Join(bad, "; "))
			os.Exit(1)
		}
		return
	}

	if *fig == "ablate" {
		rows, err := r.RunAblations(ctx, names)
		if err != nil {
			fmt.Fprintln(os.Stderr, "omrepro:", err)
			os.Exit(1)
		}
		fmt.Println(harness.AblationTable(rows))
		reportCache(r, logger, *verbose)
		reportMetrics(r)
		return
	}

	results, err := r.RunSuite(ctx, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "omrepro:", err)
		os.Exit(1)
	}

	emit := func(name, body string) {
		if *fig == "all" || *fig == name {
			fmt.Println(body)
		}
	}
	emit("3", harness.Figure3(results))
	emit("4", harness.Figure4(results))
	emit("5", harness.Figure5(results))
	emit("6", harness.Figure6(results))
	emit("7", harness.Figure7(results))
	emit("gat", harness.GATTable(results))
	emit("size", harness.CodeSizeTable(results))
	if *traceDir != "" {
		if err := writeJournals(*traceDir, results, logger); err != nil {
			fmt.Fprintln(os.Stderr, "omrepro:", err)
			os.Exit(1)
		}
	}
	reportCache(r, logger, *verbose)
	reportMetrics(r)
}

// writeJournals stores every cell's decision journal as
// dir/<bench>.<build>.<link>.json, the input format of omtrace.
func writeJournals(dir string, results []*harness.Result, logger harness.Logger) error {
	n := 0
	for _, res := range results {
		for _, v := range harness.AllVariants() {
			m := res.M[v]
			if m == nil || m.Journal == nil {
				continue
			}
			name := fmt.Sprintf("%s.%v.%v.json", res.Name, v.Build, v.Link)
			f, err := os.Create(filepath.Join(dir, name))
			if err != nil {
				return err
			}
			if err := obs.WriteJournal(f, m.Journal); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			n++
		}
	}
	logger.Logf("wrote %d decision journals to %s", n, dir)
	return nil
}

// writePGOJournals stores each benchmark's PGO-link decision journal as
// dir/<bench>.pgo.json, the input format of omtrace.
func writePGOJournals(dir string, rows []harness.PGORow, logger harness.Logger) error {
	n := 0
	for _, row := range rows {
		if row.Journal == nil {
			continue
		}
		f, err := os.Create(filepath.Join(dir, row.Bench+".pgo.json"))
		if err != nil {
			return err
		}
		if err := obs.WriteJournal(f, row.Journal); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		n++
	}
	logger.Logf("wrote %d pgo decision journals to %s", n, dir)
	return nil
}

// reportCache logs build-cache traffic through the runner's progress
// logger, so it composes with -trace/-metrics output.
func reportCache(r *harness.Runner, logger harness.Logger, verbose bool) {
	if r.Cache == nil || !verbose {
		return
	}
	st := r.Cache.Stats()
	logger.Logf("build cache: %d hits (%d from disk), %d compiles",
		st.Hits, st.DiskHits, st.Misses)
}

// reportMetrics prints the metrics snapshot (phase timers, cache counters,
// pool utilization) as JSON on stderr when -metrics is set.
func reportMetrics(r *harness.Runner) {
	if r.Metrics == nil {
		return
	}
	data, err := json.MarshalIndent(r.Metrics.Snapshot(), "", "\t")
	if err != nil {
		fmt.Fprintln(os.Stderr, "omrepro:", err)
		os.Exit(1)
	}
	os.Stderr.Write(append(data, '\n'))
}
