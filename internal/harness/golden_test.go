package harness

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/spec"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenBenchmarks are the e2e-matrix programs pinned by the regression
// test: spice (the smallest FP benchmark) and compress (an integer one).
var goldenBenchmarks = []string{"spice", "compress"}

// goldenCell freezes everything the simulator reports for one matrix cell.
// Any engine change that perturbs architectural results or the timing
// model's counters shows up as a diff against testdata/golden_stats.json.
type goldenCell struct {
	Benchmark string    `json:"benchmark"`
	Build     string    `json:"build"`
	Link      string    `json:"link"`
	Exit      int64     `json:"exit"`
	Output    []int64   `json:"output"`
	Stats     sim.Stats `json:"stats"`
}

// TestGoldenStatsMatrix runs the full experiment matrix for the pinned
// benchmarks and requires the simulator's results — program output AND
// every Stats counter — to match the committed golden file exactly. The
// golden was generated with the pre-block-engine interpreter, so this test
// is the proof that execution-core rewrites stay bit-identical. Regenerate
// deliberately with: go test ./internal/harness -run GoldenStats -update
func TestGoldenStatsMatrix(t *testing.T) {
	r := New()
	var cells []goldenCell
	for _, name := range goldenBenchmarks {
		b, ok := spec.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %s", name)
		}
		res, err := r.RunBenchmark(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range AllVariants() {
			m := res.M[v]
			cells = append(cells, goldenCell{
				Benchmark: name,
				Build:     v.Build.String(),
				Link:      v.Link.String(),
				Exit:      m.Exit,
				Output:    m.Output,
				Stats:     m.Run,
			})
		}
	}
	got, err := json.MarshalIndent(cells, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "golden_stats.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cells)", path, len(cells))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if string(got) != string(want) {
		// Pinpoint the first diverging cell for a readable failure.
		var wantCells []goldenCell
		if err := json.Unmarshal(want, &wantCells); err == nil && len(wantCells) == len(cells) {
			for i := range cells {
				g, w := cells[i], wantCells[i]
				if gj, _ := json.Marshal(g); string(gj) != mustJSON(w) {
					t.Fatalf("simulation results diverged from golden at %s %s/%s:\n got: %+v\nwant: %+v",
						g.Benchmark, g.Build, g.Link, g, w)
				}
			}
		}
		t.Fatal("simulation results diverged from golden (shape change); inspect testdata/golden_stats.json")
	}
}

func mustJSON(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}
