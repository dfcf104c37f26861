package harness

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/spec"
)

// TestRunBenchmarkSpans: a runner handed a parent span records one child
// per pipeline stage — compiles, links (with the om phases nested inside),
// and simulations — even with cells running concurrently.
func TestRunBenchmarkSpans(t *testing.T) {
	tr := obs.NewTrace("harness-test", "matrix", time.Time{}, nil)
	r := New()
	r.Span = tr.Root()
	r.Parallelism = 4
	b, ok := spec.ByName("compress")
	if !ok {
		t.Fatal("no benchmark compress")
	}
	if _, err := r.RunBenchmark(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	tr.Root().End()
	doc := tr.Doc()

	counts := map[string]int{}
	doc.Root.Walk(func(sp *obs.SpanDoc) {
		counts[sp.Name]++
		if sp.Duration < 0 {
			t.Errorf("span %s has negative duration %v", sp.Name, sp.Duration)
		}
	})
	// The matrix has 2 build modes and 2×5 cells; at minimum every stage
	// must appear, and sims once per cell.
	if counts["harness/compile"] != 2 {
		t.Errorf("compile spans = %d, want 2 (one per build mode)", counts["harness/compile"])
	}
	if counts["harness/link"] != 10 {
		t.Errorf("link spans = %d, want 10 (one per cell)", counts["harness/link"])
	}
	if counts["harness/sim"] != 10 {
		t.Errorf("sim spans = %d, want 10 (one per cell)", counts["harness/sim"])
	}
	// OM phases nest under the OM links (8 cells; the 2 standard links have
	// none).
	if counts["om/lift"] != 8 || counts["om/passes"] != 8 || counts["om/emit"] != 8 {
		t.Errorf("om phase spans = lift %d / passes %d / emit %d, want 8 each",
			counts["om/lift"], counts["om/passes"], counts["om/emit"])
	}
	link := doc.Find("harness/link")
	if link.Find("om/lift") == nil && counts["om/lift"] > 0 {
		// The first link found may be the standard one; find an OM link.
		found := false
		doc.Root.Walk(func(sp *obs.SpanDoc) {
			if sp.Name == "harness/link" && sp.Find("om/lift") != nil {
				found = true
			}
		})
		if !found {
			t.Error("om phases are not nested inside their link span")
		}
	}
}
