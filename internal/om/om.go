package om

import (
	"context"
	"runtime"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/profile"
)

// config is the resolved option set of one Run.
type config struct {
	level       Level
	schedule    bool
	ablation    Ablation
	instrument  bool
	parallelism int
	trace       bool
	metrics     *obs.Registry
	profile     *profile.Profile
	span        *obs.Span
	observer    func(ProgStage, *Prog, *Plan) error
}

// Option configures a Run.
type Option func(*config)

// WithLevel selects the optimization level (default LevelFull).
func WithLevel(l Level) Option { return func(c *config) { c.level = l } }

// WithSchedule reschedules the code after optimizing (the paper's "w/sched"
// column). It only takes effect at LevelFull.
func WithSchedule(on bool) Option { return func(c *config) { c.schedule = on } }

// WithAblation runs OM-full with the given components disabled (the
// ablation study). It implies LevelFull.
func WithAblation(ab Ablation) Option {
	return func(c *config) {
		c.ablation = ab
		c.level = LevelFull
	}
}

// WithInstrumentation inserts a profiling trap at the entry of every basic
// block and regenerates an unoptimized image (a pixie/ATOM-style build).
// The optimization level and ablation settings are ignored; the block table
// is returned in Result.Blocks.
func WithInstrumentation() Option { return func(c *config) { c.instrument = true } }

// WithParallelism bounds the number of goroutines used for per-procedure
// lifting and transformation. n <= 0 selects GOMAXPROCS. Every setting
// produces byte-identical output: procedures are analyzed independently and
// the plan is applied in program order.
func WithParallelism(n int) Option { return func(c *config) { c.parallelism = n } }

// WithTrace collects the decision journal: one event per address load,
// call site, and GP-reset pair, explaining its final disposition with a
// stable reason code (Result.Journal). Ignored for instrumentation runs.
func WithTrace() Option { return func(c *config) { c.trace = true } }

// WithMetrics records per-phase wall time (om/lift, om/passes, om/layout,
// om/emit) and the work counters (om/decode/modules, om/lift/procs,
// om/passes/procs, and om/passes/rounds for the OM-full fixpoint) into the
// registry. A nil registry disables recording.
func WithMetrics(m *obs.Registry) Option { return func(c *config) { c.metrics = m } }

// WithSpan nests per-phase child spans (om/lift, om/passes, om/layout,
// om/emit) under sp, marking the run's position in a caller's trace — the
// per-job dimension the aggregate WithMetrics timers lack. Like WithMetrics
// it is an execution detail excluded from a job's serialized identity, and
// a nil span disables tracing at zero cost (Span.Child on nil allocates
// nothing).
func WithSpan(sp *obs.Span) Option { return func(c *config) { c.span = sp } }

// WithProfile enables profile-guided code layout: after the optimization
// passes, procedures are reordered by Pettis–Hansen call-graph chain
// merging over the profile's edge weights (hot caller/callee pairs become
// adjacent, never-executed procedures sink to the end), and every direct
// call's branch range is re-verified against the new order — a conversion
// whose callee lands beyond the bsr window reverts to its original
// GAT-indirect jsr. The profile is validated against the lifted program's
// procedure names; a stale profile fails the Run. A nil profile is a no-op,
// and instrumentation runs ignore the option.
func WithProfile(p *profile.Profile) Option { return func(c *config) { c.profile = p } }

// ProgStage identifies the pipeline point a WithProgObserver callback sees.
type ProgStage string

const (
	// StageLifted is the symbolic program fresh from lifting, before any
	// optimization pass runs.
	StageLifted ProgStage = "lifted"
	// StageOptimized is the transformed program under its final plan, after
	// every pass (and the fault-injection hook, when armed).
	StageOptimized ProgStage = "optimized"
)

// WithProgObserver invokes fn on the symbolic program at StageLifted (under
// a fresh unoptimized plan) and again at StageOptimized (under the final
// plan) — the two snapshots the static check level analyzes. The observer
// must treat the program and plan as read-only; an error aborts the Run.
// Instrumentation runs ignore the option.
func WithProgObserver(fn func(ProgStage, *Prog, *Plan) error) Option {
	return func(c *config) { c.observer = fn }
}

// Result is the outcome of a Run.
type Result struct {
	// Image is the regenerated executable.
	Image *objfile.Image
	// Stats covers the paper's static measurements (nil for an
	// instrumentation run).
	Stats *Stats
	// Blocks maps profile ids to basic blocks (instrumentation runs only).
	Blocks []BlockInfo
	// Journal is the decision journal (WithTrace runs only).
	Journal *obs.JournalDoc
}

// Run is the single OM entrypoint: lift the merged program to symbolic
// form, analyze and transform it as the options direct, and regenerate an
// executable image. The context cancels long analyses between passes and
// rounds; per-procedure work is spread across goroutines (WithParallelism)
// while keeping the output byte-identical to a serial run.
func Run(ctx context.Context, p *link.Program, opts ...Option) (*Result, error) {
	cfg := config{level: LevelFull}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.parallelism <= 0 {
		cfg.parallelism = runtime.GOMAXPROCS(0)
	}

	liftSpan := cfg.span.Child("om/lift")
	liftDone := obs.StartSpan(cfg.metrics.Timer("om/lift"))
	pg, err := lift(ctx, p, cfg.parallelism)
	liftDone()
	liftSpan.End()
	if err != nil {
		return nil, err
	}
	pg.par = cfg.parallelism
	cfg.metrics.Counter("om/decode/modules").Add(uint64(len(p.Objects)))
	cfg.metrics.Counter("om/lift/procs").Add(uint64(len(pg.Procs)))

	if cfg.instrument {
		blocks, err := Instrument(pg)
		if err != nil {
			return nil, err
		}
		pl, err := computePlan(pg, planOpts{})
		if err != nil {
			return nil, err
		}
		pg.renumber()
		im, err := Emit(pg, pl, false)
		if err != nil {
			return nil, err
		}
		return &Result{Image: im, Blocks: blocks}, nil
	}

	stats, err := beforeStats(pg, p)
	if err != nil {
		return nil, err
	}

	if cfg.observer != nil {
		basePl, err := computePlan(pg, planOpts{})
		if err != nil {
			return nil, err
		}
		if err := cfg.observer(StageLifted, pg, basePl); err != nil {
			return nil, err
		}
	}

	cfg.metrics.Counter("om/passes/procs").Add(uint64(len(pg.Procs)))
	passSpan := cfg.span.Child("om/passes")
	passDone := obs.StartSpan(cfg.metrics.Timer("om/passes"))
	var pl *Plan
	switch cfg.level {
	case LevelNone:
		pl, err = computePlan(pg, planOpts{})
	case LevelSimple:
		pl, err = runSimple(pg)
	case LevelFull:
		var rounds int
		pl, rounds, err = runFull(ctx, pg, cfg.ablation)
		cfg.metrics.Counter("om/passes/rounds").Add(uint64(rounds))
	}
	passDone()
	passSpan.End()
	if err != nil {
		return nil, err
	}

	var lay *layoutResult
	if cfg.profile != nil {
		known := make(map[string]bool, len(pg.Procs))
		for _, pr := range pg.Procs {
			known[pr.Name] = true
		}
		if err := cfg.profile.ValidateNames(known); err != nil {
			return nil, err
		}
		layoutSpan := cfg.span.Child("om/layout")
		layoutDone := obs.StartSpan(cfg.metrics.Timer("om/layout"))
		pl, lay, err = applyLayout(pg, pl, cfg.profile,
			cfg.level == LevelFull, cfg.schedule && cfg.level == LevelFull)
		layoutDone()
		layoutSpan.End()
		if err != nil {
			return nil, err
		}
	}
	if faultHook != nil {
		faultHook(pg)
	}
	collectAfter(pg, pl, stats)
	if cfg.observer != nil {
		if err := cfg.observer(StageOptimized, pg, pl); err != nil {
			return nil, err
		}
	}

	// Renumber after the last phase that adds instructions: the ordinals
	// index Emit's address scratch, which keeps emission read-only on the
	// program.
	pg.renumber()

	var journal *obs.JournalDoc
	if cfg.trace {
		journal = buildJournal(pg, pl, cfg, stats, lay)
	}

	sched := cfg.schedule && cfg.level == LevelFull
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	emitSpan := cfg.span.Child("om/emit")
	emitDone := obs.StartSpan(cfg.metrics.Timer("om/emit"))
	im, err := Emit(pg, pl, sched)
	emitDone()
	emitSpan.End()
	if err != nil {
		return nil, err
	}
	return &Result{Image: im, Stats: stats, Journal: journal}, nil
}

// beforeStats computes the options-independent before-statistics of a
// pristine lifted form: static instruction/annotation counts and the
// baseline (unreduced, unsorted) GAT footprint.
func beforeStats(pg *Prog, p *link.Program) (*Stats, error) {
	st := &Stats{}
	collectBefore(pg, st)
	basePlan, err := link.AssignGATs(p, nil)
	if err != nil {
		return nil, err
	}
	for _, slots := range basePlan.Slots {
		st.GATBytesBefore += uint64(len(slots)) * 8
	}
	return st, nil
}
