package om

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tcc"
)

// TestRunEmitsPhaseSpans: a Run handed a parent span via WithSpan nests one
// child per pipeline phase, in pipeline order, each with a positive
// duration — the per-job trace the omd service threads through every link.
func TestRunEmitsPhaseSpans(t *testing.T) {
	ctx := context.Background()
	p := buildProgram(t, []tcc.Source{{Name: "prog", Text: "long main() { return 42; }\n"}})

	tr := obs.NewTrace("run", "om", time.Time{}, nil)
	if _, err := Run(ctx, p, WithLevel(LevelFull), WithSpan(tr.Root())); err != nil {
		t.Fatal(err)
	}
	tr.Root().End()
	doc := tr.Doc()
	for _, phase := range []string{"om/lift", "om/passes", "om/emit"} {
		sp := doc.Find(phase)
		if sp == nil {
			t.Fatalf("run trace lacks %s:\n%s", phase, doc.Render())
		}
		if sp.Duration <= 0 {
			t.Errorf("%s duration = %v, want > 0", phase, sp.Duration)
		}
	}
	if doc.Find("om/layout") != nil {
		t.Error("layout span present without a profile")
	}
	var sum time.Duration
	for _, c := range doc.Root.Children {
		sum += c.Duration
	}
	if doc.Root.Duration < sum {
		t.Errorf("root %v < sum of phase children %v", doc.Root.Duration, sum)
	}

	var phases []string
	for _, c := range doc.Root.Children {
		phases = append(phases, c.Name)
	}
	if got := strings.Join(phases, ","); got != "om/lift,om/passes,om/emit" {
		t.Errorf("run phases %s, want om/lift,om/passes,om/emit", got)
	}
}
