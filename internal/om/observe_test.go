package om

import (
	"context"
	"errors"
	"testing"

	"repro/internal/tcc"
)

// TestProgObserverStages verifies the observer contract: StageLifted fires
// with the pre-pass program, StageOptimized with the post-pass one, both
// with a usable layout plan.
func TestProgObserverStages(t *testing.T) {
	p := buildProgram(t, []tcc.Source{{Name: "main", Text: testProgram}})
	var stages []ProgStage
	var liftedInsts, optimizedInsts int
	_, err := Run(context.Background(), p, WithLevel(LevelFull),
		WithProgObserver(func(stage ProgStage, pg *Prog, pl *Plan) error {
			stages = append(stages, stage)
			n := 0
			for _, pr := range pg.Procs {
				n += len(pr.Live())
			}
			switch stage {
			case StageLifted:
				liftedInsts = n
			case StageOptimized:
				optimizedInsts = n
			}
			if pl == nil {
				t.Errorf("stage %s: nil plan", stage)
			} else if pr := pg.Procs[0]; pl.GPGroup(pr) < 0 {
				t.Errorf("stage %s: plan has no GP group for %s", stage, pr.Name)
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 || stages[0] != StageLifted || stages[1] != StageOptimized {
		t.Fatalf("observer stages %v, want [lifted optimized]", stages)
	}
	if optimizedInsts >= liftedInsts {
		t.Fatalf("OM-full grew the program: %d lifted, %d optimized live instructions",
			liftedInsts, optimizedInsts)
	}
}

// TestProgObserverError verifies an observer error aborts the run at both
// stages.
func TestProgObserverError(t *testing.T) {
	for _, failAt := range []ProgStage{StageLifted, StageOptimized} {
		p := buildProgram(t, []tcc.Source{{Name: "main", Text: testProgram}})
		boom := errors.New("observer rejects " + string(failAt))
		_, err := Run(context.Background(), p, WithLevel(LevelSimple),
			WithProgObserver(func(stage ProgStage, pg *Prog, pl *Plan) error {
				if stage == failAt {
					return boom
				}
				return nil
			}))
		if !errors.Is(err, boom) {
			t.Fatalf("fail at %s: Run returned %v, want the observer's error", failAt, err)
		}
	}
}

// TestProgObserverWarmLiftStore verifies an observer under a warm lift
// store still fires at both stages: starting from the cached lifted form
// skips decode and lift, never the stages the observer watches.
func TestProgObserverWarmLiftStore(t *testing.T) {
	memo := NewMemo(nil)

	// Warm the memo with an unobserved run.
	p := buildProgram(t, []tcc.Source{{Name: "main", Text: testProgram}})
	if _, err := Run(context.Background(), p, WithLevel(LevelFull), WithMemo(memo)); err != nil {
		t.Fatal(err)
	}

	// The observed run must still fire both stages from the cached form.
	p = buildProgram(t, []tcc.Source{{Name: "main", Text: testProgram}})
	fired := 0
	if _, err := Run(context.Background(), p, WithLevel(LevelFull), WithMemo(memo),
		WithProgObserver(func(stage ProgStage, pg *Prog, pl *Plan) error {
			fired++
			return nil
		})); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("observer fired %d times under a warm lift store, want 2", fired)
	}
	if st := memo.LiftStats(); st.Hits != 1 {
		t.Fatalf("observed run: %d lift-store hits, want 1", st.Hits)
	}
}
