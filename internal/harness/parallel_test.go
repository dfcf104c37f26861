package harness

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/spec"
	"repro/internal/tcc"
)

// tinyBenchmark is a small two-module program: fast enough to run the full
// matrix in every test mode, cross-module calls so the link treatments
// actually differ.
func tinyBenchmark() spec.Benchmark {
	return spec.Benchmark{
		Name:      "tiny",
		Character: "test program",
		Modules: []tcc.Source{
			{Name: "tiny_main", Text: `
long helper(long x);
long print(long x);

long table[16];

long main() {
	long s = 0;
	long i;
	for (i = 0; i < 16; i = i + 1) {
		table[i] = helper(i);
		s = s + table[i];
	}
	print(s);
	print(table[7]);
	return s & 255;
}
`},
			{Name: "tiny_help", Text: `
static long scale = 3;
long bias = 11;

long helper(long x) {
	return x * scale + bias;
}
`},
		},
	}
}

// flatten renders every deterministic field of a Result (everything except
// wall-clock timings) as one comparable string.
func flatten(res *Result) string {
	out := fmt.Sprintf("name=%s\n", res.Name)
	for _, v := range AllVariants() {
		m := res.M[v]
		out += fmt.Sprintf("%v/%v: cycles=%d insts=%d exit=%d output=%v text=%d gat=%d",
			v.Build, v.Link, m.Run.Cycles, m.Run.Instructions,
			m.Exit, m.Output, m.TextBytes, m.GATBytes)
		if m.Static != nil {
			out += fmt.Sprintf(" deleted=%d converted=%d", m.Static.Deleted, m.Static.AddrConverted)
		}
		out += "\n"
	}
	return out
}

// TestParallelDeterminism checks the tentpole guarantee: the parallel
// runner's measurements are byte-identical to a serial run at any
// parallelism. (Not short-gated: the race-detector run relies on it to
// exercise the concurrent paths.)
func TestParallelDeterminism(t *testing.T) {
	b := tinyBenchmark()
	var ref string
	for _, par := range []int{1, 8} {
		r := New()
		r.Parallelism = par
		res, err := r.RunBenchmark(context.Background(), b)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		got := flatten(res)
		if par == 1 {
			ref = got
			continue
		}
		if got != ref {
			t.Errorf("parallelism %d diverged from serial run:\n--- serial ---\n%s--- parallel ---\n%s",
				par, ref, got)
		}
	}
}

// TestRunnerCacheSkipsRecompiles checks the warm-cache path: a second
// benchmark run against the same cache performs zero compiles.
func TestRunnerCacheSkipsRecompiles(t *testing.T) {
	cache, err := buildcache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := tinyBenchmark()
	run := func() {
		r := New()
		r.Parallelism = 4
		r.Cache = cache
		if _, err := r.RunBenchmark(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	run()
	cold := cache.Stats()
	if cold.Misses == 0 {
		t.Fatal("cold run compiled nothing")
	}
	run()
	warm := cache.Stats()
	if warm.Misses != cold.Misses {
		t.Errorf("warm run compiled %d units; want 0", warm.Misses-cold.Misses)
	}
	if warm.Hits <= cold.Hits {
		t.Errorf("warm run recorded no cache hits: cold=%+v warm=%+v", cold, warm)
	}
}

// TestRunnerCancellation checks that a canceled context aborts the suite
// with the context's error.
func TestRunnerCancellation(t *testing.T) {
	r := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunBenchmark(ctx, tinyBenchmark()); err == nil {
		t.Fatal("expected error from canceled context")
	}
}

// TestFanOutReportsRootCause: when one job fails, fanOut cancels the jobs
// still running or waiting for a slot, waits for the running ones, and
// reports the failure rather than the cancellations it caused. The other
// jobs block until canceled, so a fanOut that did not cancel would hang.
func TestFanOutReportsRootCause(t *testing.T) {
	boom := errors.New("job 2 failed")
	started := make([]bool, 4)
	finished := make([]bool, len(started))
	s := &sem{ch: make(chan struct{}, len(started))}
	err := s.fanOut(context.Background(), len(started), func(ctx context.Context, i int) error {
		started[i] = true
		defer func() { finished[i] = true }()
		if i == 2 {
			return boom
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("fanOut = %v, want the failing job's error", err)
	}
	for i := range started {
		if started[i] != finished[i] {
			t.Errorf("job %d was still running when fanOut returned", i)
		}
	}
}
