package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/sim"
	"repro/internal/spec"
)

// AblationRow is the measurement for one disabled component on one
// benchmark.
type AblationRow struct {
	Bench       string
	Ablation    om.Ablation
	Improvement float64 // % cycles vs standard link
	Deleted     int
	GATBytes    uint64
}

// RunAblations measures OM-full with each component disabled, over the
// named benchmarks (compile-each mode). Benchmarks fan out across the
// runner's worker pool; rows come back in deterministic bench-major,
// ablation-declaration order regardless of scheduling.
func (r *Runner) RunAblations(ctx context.Context, names []string) ([]AblationRow, error) {
	benches, err := selectBenchmarks(names)
	if err != nil {
		return nil, err
	}
	if _, err := r.libObjects(); err != nil {
		return nil, err
	}
	perBench := make([][]AblationRow, len(benches))
	err = r.newSem().fanOut(ctx, len(benches), func(ctx context.Context, i int) error {
		var err error
		perBench[i], err = r.ablateBenchmark(ctx, benches[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, br := range perBench {
		rows = append(rows, br...)
	}
	return rows, nil
}

// ablateBenchmark measures every ablation configuration of one benchmark
// against its standard-link baseline.
func (r *Runner) ablateBenchmark(ctx context.Context, b spec.Benchmark) ([]AblationRow, error) {
	objs, _, err := r.compile(b, CompileEach)
	if err != nil {
		return nil, err
	}
	lib, err := r.libObjects()
	if err != nil {
		return nil, err
	}
	all := append(append([]*objfile.Object(nil), objs...), lib...)
	baseIm, err := link.Link(all)
	if err != nil {
		return nil, err
	}
	baseRun, err := sim.RunContext(ctx, baseIm, r.SimConfig)
	if err != nil {
		return nil, err
	}
	ref := fmt.Sprint(baseRun.Exit, baseRun.Output)
	var rows []AblationRow
	for _, ab := range om.Ablations() {
		p, err := link.Merge(all)
		if err != nil {
			return nil, err
		}
		res, err := om.Run(ctx, p, om.WithAblation(ab))
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", b.Name, ab.Name(), err)
		}
		im, st := res.Image, res.Stats
		run, err := sim.RunContext(ctx, im, r.SimConfig)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", b.Name, ab.Name(), err)
		}
		if got := fmt.Sprint(run.Exit, run.Output); got != ref {
			return nil, fmt.Errorf("%s %s: output diverged", b.Name, ab.Name())
		}
		imp := 100 * (float64(baseRun.Stats.Cycles) - float64(run.Stats.Cycles)) /
			float64(baseRun.Stats.Cycles)
		rows = append(rows, AblationRow{
			Bench: b.Name, Ablation: ab, Improvement: imp,
			Deleted: st.Deleted, GATBytes: st.GATBytesAfter,
		})
		r.logf("  %-10s %-18s improvement=%6.2f%% deleted=%d", b.Name, ab.Name(), imp, st.Deleted)
	}
	return rows, nil
}

// AblationTable renders the ablation study: the cycle improvement of
// OM-full with each component disabled, averaged over the benchmarks.
func AblationTable(rows []AblationRow) string {
	var b strings.Builder
	header(&b, "Ablation: OM-full with one component disabled (dynamic improvement over ld)",
		"the drop from the 'full' row attributes the win to each mechanism")
	// Group by ablation name in declaration order.
	order := []string{}
	byName := map[string][]AblationRow{}
	for _, row := range rows {
		n := row.Ablation.Name()
		if _, ok := byName[n]; !ok {
			order = append(order, n)
		}
		byName[n] = append(byName[n], row)
	}
	fmt.Fprintf(&b, "%-20s | %10s %10s %12s\n", "configuration", "mean impr", "min impr", "mean deleted")
	line := strings.Repeat("-", 60)
	fmt.Fprintln(&b, line)
	for _, n := range order {
		var imps []float64
		minImp := 1e9
		deleted := 0
		for _, row := range byName[n] {
			imps = append(imps, row.Improvement)
			if row.Improvement < minImp {
				minImp = row.Improvement
			}
			deleted += row.Deleted
		}
		fmt.Fprintf(&b, "%-20s | %9.2f%% %9.2f%% %12d\n",
			n, mean(imps), minImp, deleted/len(byName[n]))
	}
	return b.String()
}
