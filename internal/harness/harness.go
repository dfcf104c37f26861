// Package harness drives the paper's full experiment matrix: every
// benchmark is built in compile-each and compile-all modes, linked with the
// standard linker and with OM at each level, run in the timing simulator,
// and measured statically and dynamically. The figure generators then
// reproduce the rows of Figures 3-7 and the GAT-size observation of §5.1.
//
// The matrix is embarrassingly parallel — each benchmark's user sources are
// compiled once per build mode, then every (build, link) cell fans out as
// an independent link+simulate job — so the runner schedules cells across a
// bounded worker pool (Runner.Parallelism) and merges the measurements
// deterministically: results are identical to a serial run, only faster.
// An optional content-addressed build cache (Runner.Cache) lets repeated
// runs skip compilation of unchanged sources entirely.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildcache"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/om"
	"repro/internal/rtlib"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/tcc"
)

// BuildMode selects how the benchmark's user sources are compiled.
type BuildMode int

const (
	// CompileEach compiles every source file separately with -O2-style
	// intraprocedural optimization.
	CompileEach BuildMode = iota
	// CompileAll compiles all user sources as one unit with interprocedural
	// optimization (the libraries stay precompiled, as in the paper).
	CompileAll
)

// String names the compilation mode.
func (m BuildMode) String() string {
	if m == CompileAll {
		return "compile-all"
	}
	return "compile-each"
}

// LinkMode selects the link-time treatment.
type LinkMode int

const (
	// LinkStandard is the traditional linker with no optimization.
	LinkStandard LinkMode = iota
	// OMNone runs OM's lift/regenerate pipeline without optimizing.
	OMNone
	// OMSimple is the replace-only level.
	OMSimple
	// OMFull is the full level.
	OMFull
	// OMFullSched is OM-full plus rescheduling and loop alignment.
	OMFullSched
)

var linkModeNames = map[LinkMode]string{
	LinkStandard: "ld", OMNone: "om-none", OMSimple: "om-simple",
	OMFull: "om-full", OMFullSched: "om-full+sched",
}

// String names the link treatment.
func (m LinkMode) String() string { return linkModeNames[m] }

// Variant is one cell of the experiment matrix.
type Variant struct {
	Build BuildMode
	Link  LinkMode
}

// Measurement holds everything recorded for one variant of one benchmark.
type Measurement struct {
	Static    *om.Stats // nil for LinkStandard
	Run       sim.Stats
	Exit      int64
	Output    []int64
	BuildTime time.Duration // link step only (ld or OM)
	TextBytes int
	GATBytes  uint64
	// Journal is the cell's decision journal (Runner.Trace runs through an
	// OM link mode only; nil otherwise).
	Journal *obs.JournalDoc
}

// Result aggregates one benchmark across the matrix.
type Result struct {
	Name string
	// CompileTime[mode] is the time to compile the user sources.
	CompileTime map[BuildMode]time.Duration
	M           map[Variant]*Measurement
}

// Logger receives the runner's progress output.
type Logger interface {
	Logf(format string, args ...any)
}

// LoggerFunc adapts a printf-style function to the Logger interface.
type LoggerFunc func(format string, args ...any)

// Logf calls f.
func (f LoggerFunc) Logf(format string, args ...any) { f(format, args...) }

// Runner executes the matrix.
type Runner struct {
	// SimConfig is the timing configuration for dynamic measurements.
	SimConfig sim.Config
	// Parallelism bounds the number of concurrently executing jobs
	// (compiles and link+simulate cells). <= 0 selects GOMAXPROCS.
	Parallelism int
	// Logger receives progress lines; nil discards them.
	Logger Logger
	// Cache, when non-nil, memoizes compiled objects by content hash so
	// repeated runs with unchanged sources skip compilation.
	Cache *buildcache.Cache
	// Metrics, when non-nil, receives phase timers (harness/compile,
	// harness/link, harness/sim), build-cache traffic counters, and the
	// worker-pool utilization gauge for the configured parallelism.
	Metrics *obs.Registry
	// Trace collects a decision journal for every OM-linked matrix cell
	// (Measurement.Journal).
	Trace bool
	// Span, when non-nil, receives one child span per pipeline stage the
	// runner executes (harness/compile, harness/link with the om phases
	// nested inside, harness/sim), annotated with the benchmark and cell so
	// a whole matrix run renders as one trace. Nil disables span recording
	// at zero cost.
	Span *obs.Span

	libOnce sync.Once
	lib     []*objfile.Object
	libErr  error
}

// RunnerOption configures a Runner built by New, mirroring the om package's
// functional-option style so harness construction and job construction read
// the same way (and a daemon can assemble both from one request).
type RunnerOption func(*Runner)

// WithSimConfig replaces the default timing configuration.
func WithSimConfig(cfg sim.Config) RunnerOption {
	return func(r *Runner) { r.SimConfig = cfg }
}

// WithParallelism bounds the number of concurrently executing jobs
// (compiles and link+simulate cells). n <= 0 selects GOMAXPROCS.
func WithParallelism(n int) RunnerOption {
	return func(r *Runner) { r.Parallelism = n }
}

// WithCache memoizes compiled objects in the given content-addressed cache
// so repeated runs with unchanged sources skip compilation. A nil cache
// disables caching (the default).
func WithCache(c *buildcache.Cache) RunnerOption {
	return func(r *Runner) { r.Cache = c }
}

// WithLogger routes progress lines to l; nil discards them (the default).
func WithLogger(l Logger) RunnerOption {
	return func(r *Runner) { r.Logger = l }
}

// WithMetrics records phase timers, cache traffic, and pool utilization
// into the registry; nil disables recording (the default).
func WithMetrics(m *obs.Registry) RunnerOption {
	return func(r *Runner) { r.Metrics = m }
}

// WithTrace collects a decision journal for every OM-linked matrix cell
// (Measurement.Journal).
func WithTrace(on bool) RunnerOption {
	return func(r *Runner) { r.Trace = on }
}

// WithSpan nests per-stage child spans under sp (see Runner.Span); nil
// disables span recording (the default).
func WithSpan(sp *obs.Span) RunnerOption {
	return func(r *Runner) { r.Span = sp }
}

// New builds a runner with the default timing model, then applies the
// options in order.
func New(opts ...RunnerOption) (*Runner, error) {
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = 2_000_000_000
	r := &Runner{SimConfig: cfg}
	for _, o := range opts {
		o(r)
	}
	return r, nil
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logger != nil {
		r.Logger.Logf(format, args...)
	}
}

func (r *Runner) workers() int {
	if r.Parallelism > 0 {
		return r.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// libObjects returns the precompiled standard library, compiling it at most
// once per runner (through the build cache when one is configured; the
// process-wide rtlib memoization otherwise).
func (r *Runner) libObjects() ([]*objfile.Object, error) {
	r.libOnce.Do(func() {
		if r.Cache != nil {
			r.lib, r.libErr = rtlib.ObjectsVia(r.Cache.Compile, tcc.DefaultOptions())
			return
		}
		r.lib, r.libErr = rtlib.StandardObjects()
	})
	return r.lib, r.libErr
}

// sem is a counting semaphore bounding concurrently executing jobs. Parent
// jobs never hold a slot while waiting on children, so the nested
// suite→benchmark→cell fan-out cannot deadlock. It also accumulates the
// total slot-held time, from which pool utilization is derived.
type sem struct {
	ch   chan struct{}
	busy atomic.Int64 // nanoseconds any slot was held
}

func (r *Runner) newSem() *sem { return &sem{ch: make(chan struct{}, r.workers())} }

// acquire claims a slot and returns the function releasing it (nil on
// cancellation). The release closure credits the held duration to the
// pool's busy time.
func (s *sem) acquire(ctx context.Context) (func(), error) {
	select {
	case s.ch <- struct{}{}:
		start := time.Now()
		return func() {
			s.busy.Add(int64(time.Since(start)))
			<-s.ch
		}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// recordPool publishes the pool's utilization over the measured wall time:
// busy-seconds divided by workers × wall-seconds, named by the -j setting
// so runs at different parallelism stay distinguishable.
func (r *Runner) recordPool(s *sem, wall time.Duration) {
	if r.Metrics == nil || wall <= 0 {
		return
	}
	w := r.workers()
	busy := s.busy.Load()
	r.Metrics.Counter("harness/pool-busy-ns").Add(uint64(busy))
	r.Metrics.SetGauge(fmt.Sprintf("harness/pool-utilization-j%d", w),
		float64(busy)/(float64(wall)*float64(w)))
}

// firstError returns the lowest-index non-nil error, making the reported
// failure deterministic regardless of which parallel job failed first.
// Cancellation errors only count when nothing failed for a real reason:
// when one job fails the pool cancels its siblings, and those secondary
// context errors must not mask the root cause.
func firstError(errs []error) error {
	var canceled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if canceled == nil {
				canceled = err
			}
			continue
		}
		return err
	}
	return canceled
}

// compile produces the user objects for the given mode, timing the step.
// With a cache configured, a hit costs a hash and a decode, no compile.
func (r *Runner) compile(b spec.Benchmark, mode BuildMode) ([]*objfile.Object, time.Duration, error) {
	sp := r.Span.Child("harness/compile")
	sp.SetAttr("bench", b.Name)
	sp.SetAttr("mode", mode.String())
	defer sp.End()
	start := time.Now()
	var objs []*objfile.Object
	if mode == CompileEach {
		for _, m := range b.Modules {
			obj, err := r.Cache.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
			if err != nil {
				return nil, 0, fmt.Errorf("%s: %w", b.Name, err)
			}
			objs = append(objs, obj)
		}
	} else {
		obj, err := r.Cache.Compile(b.Name+"_all", b.Modules, tcc.InterprocOptions())
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", b.Name, err)
		}
		objs = []*objfile.Object{obj}
	}
	dt := time.Since(start)
	r.Metrics.Timer("harness/compile").Observe(dt)
	return objs, dt, nil
}

// linkVariant produces the image (and OM stats and, when tracing, the
// decision journal) for one link mode.
func (r *Runner) linkVariant(ctx context.Context, objs []*objfile.Object, mode LinkMode) (*objfile.Image, *om.Stats, *obs.JournalDoc, time.Duration, error) {
	lib, err := r.libObjects()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	all := append(append([]*objfile.Object(nil), objs...), lib...)
	sp := r.Span.Child("harness/link")
	sp.SetAttr("mode", mode.String())
	defer sp.End()
	start := time.Now()
	defer func() { r.Metrics.Timer("harness/link").Observe(time.Since(start)) }()
	switch mode {
	case LinkStandard:
		im, err := link.Link(all)
		return im, nil, nil, time.Since(start), err
	default:
		opts := []om.Option{om.WithMetrics(r.Metrics), om.WithSpan(sp)}
		if r.Trace {
			opts = append(opts, om.WithTrace())
		}
		switch mode {
		case OMNone:
			opts = append(opts, om.WithLevel(om.LevelNone))
		case OMSimple:
			opts = append(opts, om.WithLevel(om.LevelSimple))
		case OMFull:
			opts = append(opts, om.WithLevel(om.LevelFull))
		case OMFullSched:
			opts = append(opts, om.WithLevel(om.LevelFull), om.WithSchedule(true))
		}
		p, err := link.Merge(all)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		res, err := om.Run(ctx, p, opts...)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		return res.Image, res.Stats, res.Journal, time.Since(start), nil
	}
}

// AllVariants is the full matrix.
func AllVariants() []Variant {
	var vs []Variant
	for _, b := range []BuildMode{CompileEach, CompileAll} {
		for _, l := range []LinkMode{LinkStandard, OMNone, OMSimple, OMFull, OMFullSched} {
			vs = append(vs, Variant{b, l})
		}
	}
	return vs
}

// RunBenchmark measures one benchmark across the whole matrix, verifying
// that every variant produces identical program output. Cells run
// concurrently up to Runner.Parallelism.
func (r *Runner) RunBenchmark(ctx context.Context, b spec.Benchmark) (*Result, error) {
	s := r.newSem()
	start := time.Now()
	res, err := r.runBenchmark(ctx, s, b)
	r.recordPool(s, time.Since(start))
	return res, err
}

// measureCell links and simulates one matrix cell.
func (r *Runner) measureCell(ctx context.Context, b spec.Benchmark, v Variant, objs []*objfile.Object) (*Measurement, error) {
	im, st, journal, dt, err := r.linkVariant(ctx, objs, v.Link)
	if err != nil {
		return nil, fmt.Errorf("%s %v/%v: %w", b.Name, v.Build, v.Link, err)
	}
	simSpan := r.Span.Child("harness/sim")
	simSpan.SetAttr("bench", b.Name)
	simDone := obs.StartSpan(r.Metrics.Timer("harness/sim"))
	run, err := sim.RunContext(ctx, im, r.SimConfig)
	simDone()
	simSpan.End()
	if err != nil {
		return nil, fmt.Errorf("%s %v/%v: %w", b.Name, v.Build, v.Link, err)
	}
	r.logf("  %-10s %-12s %-13s cycles=%-11d insts=%-10d link=%v",
		b.Name, v.Build, v.Link, run.Stats.Cycles, run.Stats.Instructions, dt.Round(time.Millisecond))
	return &Measurement{
		Static:    st,
		Run:       run.Stats,
		Exit:      run.Exit,
		Output:    run.Output,
		BuildTime: dt,
		TextBytes: len(im.TextSegment().Data),
		GATBytes:  im.GATBytes(),
		Journal:   journal,
	}, nil
}

func (r *Runner) runBenchmark(ctx context.Context, s *sem, b spec.Benchmark) (*Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	res := &Result{
		Name:        b.Name,
		CompileTime: make(map[BuildMode]time.Duration),
		M:           make(map[Variant]*Measurement),
	}

	// Compile once per build mode; the two modes compile concurrently.
	modes := []BuildMode{CompileEach, CompileAll}
	objsByMode := make([][]*objfile.Object, len(modes))
	times := make([]time.Duration, len(modes))
	errs := make([]error, len(modes))
	var wg sync.WaitGroup
	for i, mode := range modes {
		wg.Add(1)
		go func(i int, mode BuildMode) {
			defer wg.Done()
			release, err := s.acquire(ctx)
			if err != nil {
				errs[i] = err
				return
			}
			defer release()
			objsByMode[i], times[i], errs[i] = r.compile(b, mode)
			if errs[i] != nil {
				cancel()
			}
		}(i, mode)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}
	for i, mode := range modes {
		res.CompileTime[mode] = times[i]
	}

	// Fan every matrix cell out as an independent link+simulate job.
	vs := AllVariants()
	ms := make([]*Measurement, len(vs))
	cellErrs := make([]error, len(vs))
	for i, v := range vs {
		wg.Add(1)
		go func(i int, v Variant) {
			defer wg.Done()
			release, err := s.acquire(ctx)
			if err != nil {
				cellErrs[i] = err
				return
			}
			defer release()
			ms[i], cellErrs[i] = r.measureCell(ctx, b, v, objsByMode[v.Build])
			if cellErrs[i] != nil {
				cancel()
			}
		}(i, v)
	}
	wg.Wait()
	if err := firstError(cellErrs); err != nil {
		return nil, err
	}

	// Deterministic merge and output verification, in matrix order, against
	// the standard-link cell.
	refOutput := fmt.Sprint(ms[0].Exit, ms[0].Output)
	for i, v := range vs {
		if out := fmt.Sprint(ms[i].Exit, ms[i].Output); out != refOutput {
			return nil, fmt.Errorf("%s %v/%v: output diverged: %s vs %s",
				b.Name, v.Build, v.Link, out, refOutput)
		}
		res.M[v] = ms[i]
	}
	return res, nil
}

// RunSuite measures every benchmark (or the named subset), scheduling all
// benchmarks' matrix cells across one shared worker pool.
func (r *Runner) RunSuite(ctx context.Context, names []string) ([]*Result, error) {
	benches, err := selectBenchmarks(names)
	if err != nil {
		return nil, err
	}
	// Precompile the standard library before fanning out so a library
	// compile error surfaces once, deterministically.
	if _, err := r.libObjects(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	s := r.newSem()
	start := time.Now()
	var cacheBefore buildcache.Stats
	if r.Cache != nil {
		cacheBefore = r.Cache.Stats()
	}
	results := make([]*Result, len(benches))
	errs := make([]error, len(benches))
	var wg sync.WaitGroup
	for i, b := range benches {
		wg.Add(1)
		go func(i int, b spec.Benchmark) {
			defer wg.Done()
			r.logf("%s:", b.Name)
			results[i], errs[i] = r.runBenchmark(ctx, s, b)
			if errs[i] != nil {
				cancel()
			}
		}(i, b)
	}
	wg.Wait()
	r.recordPool(s, time.Since(start))
	if r.Metrics != nil && r.Cache != nil {
		after := r.Cache.Stats()
		r.Metrics.Counter("buildcache/hits").Add(after.Hits - cacheBefore.Hits)
		r.Metrics.Counter("buildcache/disk-hits").Add(after.DiskHits - cacheBefore.DiskHits)
		r.Metrics.Counter("buildcache/compiles").Add(after.Misses - cacheBefore.Misses)
	}
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return results, nil
}

// selectBenchmarks resolves a name list (empty means the full suite).
func selectBenchmarks(names []string) ([]spec.Benchmark, error) {
	benches := spec.All()
	if len(names) > 0 {
		var sel []spec.Benchmark
		for _, n := range names {
			b, ok := spec.ByName(n)
			if !ok {
				return nil, fmt.Errorf("harness: unknown benchmark %q", n)
			}
			sel = append(sel, b)
		}
		benches = sel
	}
	return benches, nil
}

// Improvement returns the percent cycle improvement of the optimized link
// over the standard link for the same build mode.
func (res *Result) Improvement(build BuildMode, lk LinkMode) float64 {
	base := res.M[Variant{build, LinkStandard}].Run.Cycles
	opt := res.M[Variant{build, lk}].Run.Cycles
	if base == 0 {
		return 0
	}
	return 100 * (float64(base) - float64(opt)) / float64(base)
}
