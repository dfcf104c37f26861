package om

import (
	"context"

	"repro/internal/buildcache"
	"repro/internal/link"
	"repro/internal/obs"
)

// Memo is the resident lifted-form cache behind OM's warm path. It maps a
// program's content hash to its pristine symbolic form, so a relink of the
// same modules (under any options) skips instruction decode and lifting
// entirely and starts at the passes. Keyed purely by content, it is safe to
// share across concurrent Runs and arbitrary option sets.
//
// A Memo never changes output: a warm Run is byte-identical to a cold one
// (pinned by the warm-path golden tests). Cached forms are cloned before
// use, never handed out.
type Memo struct {
	lifts *buildcache.StageStore
}

// NewMemo builds a memo holding up to 16 lifted programs. reg, when
// non-nil, receives the stage/lift/* hit, miss, and eviction counters.
func NewMemo(reg *obs.Registry) *Memo {
	return &Memo{lifts: buildcache.NewStageStore("lift", 16, 0, reg)}
}

// LiftStats snapshots the lifted-form store.
func (m *Memo) LiftStats() buildcache.StageStats { return m.lifts.Stats() }

// liftEntry is one cached lifted program: the pristine symbolic form plus
// the options-independent "before" statistics (static counts of the
// unoptimized form and the baseline GAT size), which depend only on the
// program content and so are computed once per entry.
type liftEntry struct {
	prog   *Prog
	before Stats
}

// liftFor returns a mutable lifted form of p, through the lifted-form cache:
// a hit clones the pristine form (no decode, no lift); a miss lifts fresh,
// stores a pristine clone with its before-statistics, and returns the
// original. The boolean reports a cache hit. The caller sets the returned
// form's parallelism.
func (m *Memo) liftFor(ctx context.Context, p *link.Program, par int) (*Prog, *liftEntry, bool, error) {
	key := "lift/" + p.Hash()
	if v, ok := m.lifts.Get(key); ok {
		le := v.(*liftEntry)
		return cloneProg(le.prog), le, true, nil
	}
	pg, err := lift(ctx, p, par)
	if err != nil {
		return nil, nil, false, err
	}
	le := &liftEntry{prog: cloneProg(pg)}
	if le.before, err = beforeStats(le.prog, p); err != nil {
		return nil, nil, false, err
	}
	m.lifts.Put(key, le, progFootprint(le.prog))
	return pg, le, false, nil
}

// beforeStats computes the options-independent before-statistics of a
// pristine lifted form: static instruction/annotation counts and the
// baseline (unreduced, unsorted) GAT footprint.
func beforeStats(pg *Prog, p *link.Program) (Stats, error) {
	var st Stats
	collectBefore(pg, &st)
	basePlan, err := link.AssignGATs(p, nil)
	if err != nil {
		return st, err
	}
	for _, slots := range basePlan.Slots {
		st.GATBytesBefore += uint64(len(slots)) * 8
	}
	return st, nil
}
