package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/buildcache"
)

// TestRunPGO drives the whole F-PGO feedback loop on one call-heavy
// benchmark: the row must carry a real profile, the behavioral verification
// inside pgoBenchmark must hold (RunPGO errors otherwise), and a second run
// against the same cache directory must serve the relink from the image
// cache (a memory-only cache keeps no images).
func TestRunPGO(t *testing.T) {
	if testing.Short() {
		t.Skip("pgo loop in -short mode")
	}
	cache, err := buildcache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	r.Cache = cache

	rows, err := r.RunPGO(context.Background(), []string{"li"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Bench != "li" {
		t.Fatalf("rows = %+v", rows)
	}
	row := rows[0]
	if row.ProfileProcs == 0 || row.ProfileEdges == 0 {
		t.Errorf("empty profile: %d procs, %d edges", row.ProfileProcs, row.ProfileEdges)
	}
	if row.BaseCycles == 0 || row.PGOCycles == 0 {
		t.Error("empty dynamic stats")
	}
	if row.ImageCacheHit {
		t.Error("first run reported an image cache hit")
	}
	// li is the call-heavy benchmark the layout targets: with the scaled
	// I-cache the laid-out image must not miss more than the baseline.
	if row.PGOIMisses > row.BaseIMisses {
		t.Errorf("layout increased I-cache misses: %d -> %d", row.BaseIMisses, row.PGOIMisses)
	}

	again, err := r.RunPGO(context.Background(), []string{"li"})
	if err != nil {
		t.Fatal(err)
	}
	if !again[0].ImageCacheHit {
		t.Error("second run with unchanged profile did not hit the image cache")
	}
	if again[0].PGOCycles != row.PGOCycles {
		t.Errorf("cached image timed differently: %d vs %d", again[0].PGOCycles, row.PGOCycles)
	}

	body := PGOTable(rows)
	if !strings.Contains(body, "li") || !strings.Contains(body, "F-PGO") {
		t.Errorf("table missing content:\n%s", body)
	}
	if bad := PGORegressions(rows); row.PGOCycles <= row.BaseCycles && len(bad) != 0 {
		t.Errorf("no regression but PGORegressions = %v", bad)
	}
}

// TestRunPGOTraceJournal: with tracing on, the PGO link yields a journal
// whose layout category passes the self-check.
func TestRunPGOTraceJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("pgo loop in -short mode")
	}
	r := New()
	r.Trace = true
	rows, err := r.RunPGO(context.Background(), []string{"eqntott"})
	if err != nil {
		t.Fatal(err)
	}
	j := rows[0].Journal
	if j == nil {
		t.Fatal("tracing run produced no journal")
	}
	if err := j.Check(); err != nil {
		t.Fatalf("journal self-check: %v", err)
	}
	if j.Totals["layout"] == 0 {
		t.Error("journal has no layout category")
	}
}
