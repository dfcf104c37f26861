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
// child per pipeline phase, each with a positive duration, and a warm run
// marks its lift as replayed from the lifted-form cache — the per-job trace
// the omd service threads through every link.
func TestRunEmitsPhaseSpans(t *testing.T) {
	ctx := context.Background()
	p := buildProgram(t, []tcc.Source{{Name: "prog", Text: "long main() { return 42; }\n"}})

	cold := obs.NewTrace("cold", "om", time.Time{}, nil)
	if _, err := Run(ctx, p, WithLevel(LevelFull), WithSpan(cold.Root())); err != nil {
		t.Fatal(err)
	}
	cold.Root().End()
	doc := cold.Doc()
	for _, phase := range []string{"om/lift", "om/passes", "om/emit"} {
		sp := doc.Find(phase)
		if sp == nil {
			t.Fatalf("cold run trace lacks %s:\n%s", phase, doc.Render())
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

	// Warm run through a memo: the lift span is marked replayed, and the
	// trace holds exactly the cold run's phases — no lookup span of its own.
	memo := NewMemo(nil)
	opts := []Option{WithLevel(LevelFull), WithMemo(memo)}
	if _, err := Run(ctx, p, opts...); err != nil {
		t.Fatal(err)
	}
	warm := obs.NewTrace("warm", "om", time.Time{}, nil)
	if _, err := Run(ctx, p, append(opts, WithSpan(warm.Root()))...); err != nil {
		t.Fatal(err)
	}
	warm.Root().End()
	wdoc := warm.Doc()
	if lift := wdoc.Find("om/lift"); lift == nil || lift.Attrs["replayed"] != "true" {
		t.Fatalf("warm run trace lacks the replayed lift:\n%s", wdoc.Render())
	}
	if wdoc.Find("om/passes") == nil || wdoc.Find("om/emit") == nil {
		t.Errorf("warm run trace lacks the passes or the emit:\n%s", wdoc.Render())
	}
	var phases []string
	for _, c := range wdoc.Root.Children {
		phases = append(phases, c.Name)
	}
	if got := strings.Join(phases, ","); got != "om/lift,om/passes,om/emit" {
		t.Errorf("warm run phases %s, want om/lift,om/passes,om/emit", got)
	}
}
