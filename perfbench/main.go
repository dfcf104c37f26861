// Command perfbench is the repository's end-to-end benchmark. It runs one
// closed-loop workload per process over the link pipeline (link-cold), the
// omd service (service-mix) or the checkers plus the simulator (check-run),
// checks every output, and prints one JSON result line. README.md in this
// directory explains the workloads, the metrics and the layer predictions.
//
//	perfbench -workload link-cold -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// setupRounds is how often a run builds its inputs; setup_s is the median.
const setupRounds = 3

// setupProbes is how many kernel timings are taken between set-ups.
const setupProbes = 7

// instance is one set-up workload: its inputs built from the seed, the
// warm-up pass done, and any resident state (an omd server) running.
type instance interface {
	// clients is the number of closed-loop clients.
	clients() int
	// op runs operation seq of the seeded stream and returns its latency.
	// A non-nil lt asks for a traced op: the per-layer self times are added
	// to it. An error is a failed or wrong operation.
	op(ctx context.Context, seq int, lt *layerTimes) (time.Duration, error)
	// traced reports whether op seq is traced in a traced run. Workloads
	// alternate whole passes over their points, so both halves see the same
	// mix.
	traced(seq int) bool
	// heapOps is how many ops of the window the peak-heap sample covers (0:
	// all of them).
	heapOps() int
	// finish runs the output checks that follow the measured window and
	// reports the exact per-point counts plus the count-derived metrics.
	finish(ctx context.Context) (*finishResult, error)
	close()
}

// finishResult is what the post-window checks establish.
type finishResult struct {
	failed int          // distinct points whose checked output was wrong
	prints []pointPrint // exact per-point counts (the determinism gate)
	e2e    map[string]float64
	layer  map[string]float64
}

// workloads maps a workload name to its set-up function.
var workloads = map[string]func(ctx context.Context, seed int64) (instance, error){
	"link-cold":   setupLinkCold,
	"service-mix": setupServiceMix,
	"check-run":   setupCheckRun,
}

func main() {
	name := flag.String("workload", "", "link-cold | service-mix | check-run")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: report the per-layer metrics")
	fpFile := flag.String("fingerprint", "", "write the exact per-point counts as JSON to this file")
	refkernel := flag.Bool("refkernel", false, "serve as the reference process (see serveRefKernel)")
	flag.Parse()

	if *refkernel {
		if err := serveRefKernel(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench -refkernel:", err)
			os.Exit(1)
		}
		return
	}

	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload link-cold|service-mix|check-run -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	res, err := run(setup, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *fpFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(setup func(context.Context, int64) (instance, error), seed int64, window time.Duration, tracedRun bool, fpFile string) (*result, error) {
	ctx := context.Background()
	ref, err := newRefClock()
	if err != nil {
		return nil, err
	}
	defer ref.close()

	// Each set-up is normalized by the median kernel time just before and
	// just after it, not by the window's kernel: the host's speed during
	// set-up can differ from its speed a few seconds later. The median,
	// because a lone stall would move a mean of so few samples.
	var (
		inst   instance
		setups []float64
	)
	before, err := ref.probe(setupProbes)
	if err != nil {
		return nil, err
	}
	for i := 0; i < setupRounds; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		if inst, err = setup(ctx, seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		after, err := ref.probe(setupProbes)
		if err != nil {
			inst.close()
			return nil, err
		}
		k := ms(quantile(append(before, after...), 0.5))
		setups = append(setups, d.Seconds()*refNominalMS/k)
		before = after
	}
	defer inst.close()

	lr, err := runLoop(ctx, inst, window, tracedRun, ref)
	if err != nil {
		return nil, err
	}
	fin, err := inst.finish(ctx)
	if err != nil {
		return nil, fmt.Errorf("checks: %w", err)
	}
	if fpFile != "" {
		if err := writePrints(fpFile, fin.prints); err != nil {
			return nil, err
		}
	}

	logf("setup %.3v s (normalized), %d ops in %v, reference kernel %.3f ms (%d samples)",
		setups, lr.attempted, lr.busy.Round(time.Millisecond), ref.kernelMS(), len(ref.samples))
	failed := lr.failed + fin.failed
	res := &result{
		Correct:   failed == 0,
		Attempted: lr.attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	scale := ref.scale()
	if !tracedRun {
		sort.Float64s(setups)
		lats := lr.untraced
		res.Metrics["setup_s"] = metric{setups[len(setups)/2], "s"}
		res.Metrics["throughput"] = metric{float64(len(lats)) / lr.busy.Seconds() / scale, "ops/s"}
		res.Metrics["latency_p50"] = metric{ms(quantile(lats, 0.5)) * scale, "ms"}
		res.Metrics["latency_p90"] = metric{ms(quantile(lats, 0.9)) * scale, "ms"}
		res.Metrics["peak_heap_mb"] = metric{peakHeapMB(lr.liveHeap), "MB"}
		for _, m := range e2eCounts {
			res.Metrics[m.name] = metric{fin.e2e[m.name], m.unit}
		}
		return res, nil
	}

	layers := lr.layers.means(len(lr.traced))
	for k, v := range fin.layer {
		layers[k] = v
	}
	var traced, untraced float64
	for _, d := range lr.traced {
		traced += ms(d)
	}
	for _, d := range lr.untraced {
		untraced += ms(d)
	}
	if len(lr.traced) > 0 && len(lr.untraced) > 0 && untraced > 0 {
		layers["trace.overhead_frac"] = (traced/float64(len(lr.traced)))/(untraced/float64(len(lr.untraced))) - 1
	}
	if traced > 0 {
		layers["trace.accounted_frac"] = lr.layers.selfSum() / traced
	}
	layers["trace.ops"] = float64(len(lr.traced))
	layers["ref.kernel_ms"] = ref.kernelMS()
	layers["raw.latency_p50"] = ms(quantile(lr.untraced, 0.5))
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{layers[m.name], m.unit}
	}
	return res, nil
}

// peakHeapMB is the 90th percentile of the live heap the window's GCs
// found: the high-water mark of live data, robust to whether one GC
// happened to run at an op's peak.
func peakHeapMB(live []uint64) float64 {
	if len(live) == 0 {
		return 0
	}
	s := append([]uint64(nil), live...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(0.9*float64(len(s)))) - 1
	return float64(s[max(i, 0)]) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of ds by the nearest-rank rule.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
