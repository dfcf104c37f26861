package harness

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"repro/internal/buildcache"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/om"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/spec"
)

// PGOICacheBytes is the instruction-cache size used for both cells of the
// F-PGO experiment. The synthetic suite's text segments (~5KB) fit entirely
// inside the 21064's 8KB I-cache, so at the default size procedure
// placement cannot change the miss count; a 1KB cache restores the capacity
// pressure the paper's full-size workloads put on the real machine.
// Baseline and PGO cells run with the same scaled cache, so the delta
// isolates layout.
const PGOICacheBytes = 1 << 10

// PGORow is the F-PGO measurement for one benchmark: OM-full against
// OM-full plus profile-guided layout, both timed with the scaled I-cache.
type PGORow struct {
	Bench       string
	BaseCycles  uint64
	PGOCycles   uint64
	BaseIMisses uint64
	PGOIMisses  uint64
	// ProfileProcs / ProfileEdges size the collected profile.
	ProfileProcs int
	ProfileEdges int
	// ImageCacheHit reports that the PGO link was served from the image
	// cache (keyed on the profile's content hash) instead of relinked.
	ImageCacheHit bool
	// Journal is the PGO link's decision journal (Runner.Trace only).
	Journal *obs.JournalDoc
}

// CycleDelta is the percent cycle improvement of the PGO cell over the
// OM-full baseline (positive = faster).
func (row PGORow) CycleDelta() float64 {
	if row.BaseCycles == 0 {
		return 0
	}
	return 100 * (float64(row.BaseCycles) - float64(row.PGOCycles)) / float64(row.BaseCycles)
}

// IMissDelta is the percent I-cache-miss reduction of the PGO cell over the
// OM-full baseline (positive = fewer misses).
func (row PGORow) IMissDelta() float64 {
	if row.BaseIMisses == 0 {
		return 0
	}
	return 100 * (float64(row.BaseIMisses) - float64(row.PGOIMisses)) / float64(row.BaseIMisses)
}

// RunPGO runs the F-PGO feedback loop over the named benchmarks
// (compile-each mode): run the OM-full baseline under the scaled I-cache
// with the simulator's engine profiler on, relink OM-full with
// profile-guided layout from that profile, and measure the laid-out image
// under the same cache. Both images must behave like the standard link.
// Benchmarks fan out across the runner's worker pool; rows come back in
// name order.
func (r *Runner) RunPGO(ctx context.Context, names []string) ([]PGORow, error) {
	benches, err := selectBenchmarks(names)
	if err != nil {
		return nil, err
	}
	if _, err := r.libObjects(); err != nil {
		return nil, err
	}
	rows := make([]PGORow, len(benches))
	err = r.newSem().fanOut(ctx, len(benches), func(ctx context.Context, i int) error {
		var err error
		rows[i], err = r.pgoBenchmark(ctx, benches[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// pgoBenchmark runs the full feedback loop for one benchmark.
func (r *Runner) pgoBenchmark(ctx context.Context, b spec.Benchmark) (PGORow, error) {
	fail := func(stage string, err error) (PGORow, error) {
		return PGORow{}, fmt.Errorf("%s pgo %s: %w", b.Name, stage, err)
	}
	objs, _, err := r.compile(b, CompileEach)
	if err != nil {
		return PGORow{}, err
	}
	lib, err := r.libObjects()
	if err != nil {
		return PGORow{}, err
	}
	all := append(append([]*objfile.Object(nil), objs...), lib...)

	// One merged program serves the reference, baseline and relink runs:
	// neither the standard layout nor om.Run mutates its input.
	p, err := link.Merge(all)
	if err != nil {
		return fail("merge", err)
	}

	// Reference: the standard link, whose behavior both cells must keep.
	std, err := p.Layout()
	if err != nil {
		return fail("reference", err)
	}
	rrun, err := sim.RunContext(ctx, std, r.SimConfig)
	if err != nil {
		return fail("reference", err)
	}
	ref := fmt.Sprint(rrun.Exit, rrun.Output)

	// Baseline: OM-full without layout, under the scaled I-cache. The
	// engine profiler counts its blocks without touching its timing, and
	// its calls are bsr, so every call edge of the profile decodes.
	cfg := r.SimConfig
	cfg.ICacheBytes = PGOICacheBytes
	bres, err := om.Run(ctx, p, om.WithLevel(om.LevelFull), om.WithMetrics(r.Metrics))
	if err != nil {
		return fail("baseline", err)
	}
	bcfg := cfg
	bcfg.Profile = true
	brun, err := sim.RunContext(ctx, bres.Image, bcfg)
	if err != nil {
		return fail("baseline", err)
	}
	prof, err := profile.FromImage(bres.Image, brun.BlockProfile)
	if err != nil {
		return fail("profile", err)
	}

	// PGO cell: relink with the profile, through the image cache. The cache
	// key folds the profile's content hash, so a changed profile can never
	// reuse a stale layout; tracing bypasses the cache because the journal
	// only exists on a live link.
	key := buildcache.ImageKey(all, "om-full+pgo", prof.Hash())
	var im *objfile.Image
	var journal *obs.JournalDoc
	cacheHit := false
	if !r.Trace {
		var data []byte
		if data, cacheHit = r.Cache.GetImage(key); cacheHit {
			if im, err = objfile.ReadImage(bytes.NewReader(data)); err != nil {
				return fail("cache", err)
			}
		}
	}
	if im == nil {
		opts := []om.Option{om.WithLevel(om.LevelFull), om.WithProfile(prof), om.WithMetrics(r.Metrics)}
		if r.Trace {
			opts = append(opts, om.WithTrace())
		}
		res, err := om.Run(ctx, p, opts...)
		if err != nil {
			return fail("relink", err)
		}
		im, journal = res.Image, res.Journal
		if err := r.Cache.PutImage(key, im.Encode()); err != nil {
			return fail("cache", err)
		}
	}
	prun, err := sim.RunContext(ctx, im, cfg)
	if err != nil {
		return fail("pgo", err)
	}

	// The whole loop must be behavior-preserving: the standard link, the
	// baseline and the laid-out image agree on exit code and output trace.
	if got := fmt.Sprint(brun.Exit, brun.Output); got != ref {
		return fail("verify", fmt.Errorf("baseline output diverged: %s vs %s", got, ref))
	}
	if got := fmt.Sprint(prun.Exit, prun.Output); got != ref {
		return fail("verify", fmt.Errorf("layout changed behavior: %s vs %s", got, ref))
	}

	row := PGORow{
		Bench:         b.Name,
		BaseCycles:    brun.Stats.Cycles,
		PGOCycles:     prun.Stats.Cycles,
		BaseIMisses:   brun.Stats.ICacheMisses,
		PGOIMisses:    prun.Stats.ICacheMisses,
		ProfileProcs:  len(prof.Procs),
		ProfileEdges:  len(prof.Edges),
		ImageCacheHit: cacheHit,
		Journal:       journal,
	}
	r.logf("  %-10s pgo cycles=%d->%d (%+.2f%%) imiss=%d->%d (%+.2f%%) edges=%d cachehit=%v",
		b.Name, row.BaseCycles, row.PGOCycles, row.CycleDelta(),
		row.BaseIMisses, row.PGOIMisses, row.IMissDelta(), row.ProfileEdges, cacheHit)
	return row, nil
}

// PGORegressions lists the benchmarks whose PGO cell executed more cycles
// than the OM-full baseline — the pgo-smoke gate.
func PGORegressions(rows []PGORow) []string {
	var bad []string
	for _, row := range rows {
		if row.PGOCycles > row.BaseCycles {
			bad = append(bad, fmt.Sprintf("%s: %d -> %d cycles", row.Bench, row.BaseCycles, row.PGOCycles))
		}
	}
	return bad
}

// PGOTable renders the F-PGO experiment: cycle and I-cache-miss deltas of
// profile-guided layout over the OM-full baseline.
func PGOTable(rows []PGORow) string {
	var b strings.Builder
	header(&b, fmt.Sprintf("F-PGO: profile-guided procedure layout over OM-full (%d-byte I-cache)", PGOICacheBytes),
		"Pettis-Hansen chain merging on simulator call-edge profiles; both cells share the scaled I-cache")
	fmt.Fprintf(&b, "%-10s | %11s %11s %8s | %10s %10s %8s | %6s\n", "program",
		"base cyc", "pgo cyc", "Δcyc", "base imiss", "pgo imiss", "Δimiss", "edges")
	line := strings.Repeat("-", 92)
	fmt.Fprintln(&b, line)
	var cycs, imiss []float64
	for _, row := range rows {
		cycs = append(cycs, row.CycleDelta())
		imiss = append(imiss, row.IMissDelta())
		fmt.Fprintf(&b, "%-10s | %11d %11d %7.2f%% | %10d %10d %7.2f%% | %6d\n",
			row.Bench, row.BaseCycles, row.PGOCycles, row.CycleDelta(),
			row.BaseIMisses, row.PGOIMisses, row.IMissDelta(), row.ProfileEdges)
	}
	fmt.Fprintln(&b, line)
	fmt.Fprintf(&b, "%-10s | %11s %11s %7.2f%% | %10s %10s %7.2f%%\n", "MEAN",
		"", "", mean(cycs), "", "", mean(imiss))
	return b.String()
}
