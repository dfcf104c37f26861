package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/spec"
)

// TestRunBenchmarkObservability runs one benchmark with metrics and tracing
// on: every OM cell must carry a checkable decision journal, and the
// registry must show the phase timers and pool utilization.
func TestRunBenchmarkObservability(t *testing.T) {
	r := New()
	r.Metrics = obs.NewRegistry()
	r.Trace = true
	b, ok := spec.ByName("compress")
	if !ok {
		t.Fatal("no benchmark compress")
	}
	res, err := r.RunBenchmark(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range AllVariants() {
		m := res.M[v]
		if m == nil {
			t.Fatalf("missing variant %v", v)
		}
		if v.Link == LinkStandard {
			if m.Journal != nil {
				t.Errorf("%v: standard link should have no journal", v)
			}
			continue
		}
		if m.Journal == nil {
			t.Errorf("%v: Trace on but no journal", v)
			continue
		}
		if err := m.Journal.Check(); err != nil {
			t.Errorf("%v: journal fails accounting check: %v", v, err)
		}
		// The journal records the OM level; the +sched variant shares the
		// om-full level, so prefix-match the link mode name.
		if !strings.HasPrefix(v.Link.String(), m.Journal.Level) {
			t.Errorf("%v: journal level %q does not match link mode %q", v, m.Journal.Level, v.Link)
		}
	}

	snap := r.Metrics.Snapshot()
	byName := map[string]obs.SnapshotEntry{}
	for _, e := range snap {
		byName[e.Name] = e
	}
	for _, name := range []string{"harness/compile", "harness/link", "harness/sim", "om/lift", "om/passes", "om/emit"} {
		e, ok := byName[name]
		if !ok {
			t.Errorf("metrics missing timer %s", name)
			continue
		}
		if e.Timings == nil || e.Timings.Count == 0 {
			t.Errorf("timer %s recorded nothing", name)
		}
	}
	util := false
	for _, e := range snap {
		if strings.HasPrefix(e.Name, "harness/pool-utilization-j") {
			util = true
			if e.Gauge < 0 || e.Gauge > 1 {
				t.Errorf("pool utilization %v outside [0,1]", e.Gauge)
			}
		}
	}
	if !util {
		t.Error("metrics missing pool-utilization gauge")
	}
}

// TestRunBenchmarkNoObservabilityByDefault: with the fields unset the
// runner attaches no journals (the harness pays nothing for the feature).
func TestRunBenchmarkNoObservabilityByDefault(t *testing.T) {
	res := runOne(t, "compress")
	for v, m := range res.M {
		if m.Journal != nil {
			t.Errorf("%v: journal present without Trace", v)
		}
	}
}
