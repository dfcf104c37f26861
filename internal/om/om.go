package om

import (
	"context"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/profile"
)

// config is the resolved option set of one Run.
type config struct {
	level    Level
	schedule bool
	ablation Ablation
	trace    bool
	metrics  *obs.Registry
	profile  *profile.Profile
	span     *obs.Span
	observer func(ProgStage, *Prog, *Plan) error
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

// WithTrace collects the decision journal: one event per address load,
// call site, and GP-reset pair, explaining its final disposition with a
// stable reason code (Result.Journal).
func WithTrace() Option { return func(c *config) { c.trace = true } }

// WithMetrics records per-phase wall time (om/lift, om/passes, om/layout,
// om/emit) and the work counters (om/decode/modules, om/lift/procs,
// om/passes/procs, om/passes/rounds for the OM-full fixpoint, and with a
// profile om/layout/rounds and om/layout/reverted for the branch-range
// fixpoint) into the registry. A nil registry disables recording.
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
// procedure names; a stale profile fails the Run. A nil profile is a no-op.
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
func WithProgObserver(fn func(ProgStage, *Prog, *Plan) error) Option {
	return func(c *config) { c.observer = fn }
}

// Result is the outcome of a Run.
type Result struct {
	// Image is the regenerated executable.
	Image *objfile.Image
	// Stats covers the paper's static measurements.
	Stats *Stats
	// Journal is the decision journal (WithTrace runs only).
	Journal *obs.JournalDoc
}

// Run is the single OM entrypoint: lift the merged program to symbolic
// form, analyze and transform it as the options direct, and regenerate an
// executable image. The context cancels long analyses between passes and
// rounds. Lift decodes modules on up to GOMAXPROCS goroutines; the passes
// run serially, procedure by procedure.
func Run(ctx context.Context, p *link.Program, opts ...Option) (*Result, error) {
	cfg := config{level: LevelFull}
	for _, o := range opts {
		o(&cfg)
	}
	liftSpan := cfg.span.Child("om/lift")
	liftDone := obs.StartSpan(cfg.metrics.Timer("om/lift"))
	pg, err := lift(ctx, p)
	liftDone()
	liftSpan.End()
	if err != nil {
		return nil, err
	}
	cfg.metrics.Counter("om/decode/modules").Add(uint64(len(p.Objects)))
	cfg.metrics.Counter("om/lift/procs").Add(uint64(len(pg.Procs)))

	// Lift counted the before-statistics. OM-full's plans reduce the GAT,
	// so its unreduced size takes an assignment of its own; the other
	// levels' plans are that assignment (see collectAfter below).
	stats := new(Stats)
	*stats = pg.before
	if cfg.level == LevelFull {
		gat, err := link.AssignGATs(p, nil)
		if err != nil {
			return nil, err
		}
		stats.GATBytesBefore = gatBytes(gat)
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
		cfg.metrics.Counter("om/layout/rounds").Add(uint64(lay.rounds))
		cfg.metrics.Counter("om/layout/reverted").Add(uint64(len(lay.reverted)))
	}
	if faultHook != nil {
		faultHook(pg)
	}
	// Renumber after the last phase that adds instructions: the ordinals
	// locate GP-reset anchors for the statistics and index Emit's address
	// scratch, which keeps emission read-only on the program.
	pg.renumber()
	if cfg.level != LevelFull {
		stats.GATBytesBefore = pl.GATBytes()
	}
	collectAfter(pg, pl, stats)
	if cfg.observer != nil {
		if err := cfg.observer(StageOptimized, pg, pl); err != nil {
			return nil, err
		}
	}

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
