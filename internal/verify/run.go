package verify

import (
	"context"
	"fmt"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/om"
	"repro/internal/profile"
	"repro/internal/sim"
)

// Cell is one point of the verification matrix: an OM configuration whose
// output gets translation-validated (and differentially executed).
type Cell struct {
	Level    om.Level
	Schedule bool
	Ablation om.Ablation
	Profile  bool
}

// Name renders the cell for reports ("om-full-gat-reduction+sched+pgo").
func (c Cell) Name() string {
	n := c.Level.String()
	if c.Ablation != (om.Ablation{}) {
		n += c.Ablation.Name()
	}
	if c.Schedule {
		n += "+sched"
	}
	if c.Profile {
		n += "+pgo"
	}
	return n
}

// MatrixCells enumerates the golden verification matrix: every level with
// and without scheduling, every single-component ablation of OM-full, and
// profile-guided layout at OM-full.
func MatrixCells() []Cell {
	var cells []Cell
	for _, l := range []om.Level{om.LevelNone, om.LevelSimple, om.LevelFull} {
		for _, sched := range []bool{false, true} {
			cells = append(cells, Cell{Level: l, Schedule: sched})
		}
	}
	for _, ab := range om.Ablations()[1:] {
		cells = append(cells, Cell{Level: om.LevelFull, Schedule: true, Ablation: ab})
	}
	for _, sched := range []bool{false, true} {
		cells = append(cells, Cell{Level: om.LevelFull, Schedule: sched, Profile: true})
	}
	return cells
}

// QuickCells is the differential runner's default matrix: the levels plus
// scheduled and profile-guided OM-full (no ablations — those share all
// rewrite machinery with the full cell).
func QuickCells() []Cell {
	return []Cell{
		{Level: om.LevelNone},
		{Level: om.LevelSimple},
		{Level: om.LevelFull},
		{Level: om.LevelFull, Schedule: true},
		{Level: om.LevelFull, Schedule: true, Profile: true},
	}
}

// CellResult is one OM run checked at CheckFull.
type CellResult struct {
	Cell    Cell
	Image   *objfile.Image
	Journal *obs.JournalDoc
	Check   *CheckDoc
}

// EngineProfile runs the image under the simulator's engine profiler and
// attributes block counts to procedure symbols.
func EngineProfile(im *objfile.Image, maxInst uint64) (*profile.Profile, error) {
	res, err := sim.Run(im, sim.Config{MaxInstructions: maxInst, Profile: true})
	if err != nil {
		return nil, err
	}
	blocks := make([]profile.PCBlock, len(res.BlockProfile))
	for i, b := range res.BlockProfile {
		blocks[i] = profile.PCBlock{PC: b.PC, Len: b.Len, Count: b.Count}
	}
	return profile.FromImage(im, blocks)
}

// RunCell merges the objects and runs OM at the cell's settings under
// CheckFull: the dataflow analysis of the lifted program, the optimized
// program and the image, and translation validation of the decision journal
// against the image. A profile cell with a nil profile collects one by
// running the cell's unprofiled image under the engine profiler first.
// shared names modules to link dynamically.
func RunCell(ctx context.Context, objs []*objfile.Object, c Cell, prof *profile.Profile, shared ...string) (*CellResult, error) {
	merge := func() (*link.Program, error) {
		p, err := link.Merge(objs)
		if err != nil {
			return nil, err
		}
		if len(shared) > 0 {
			p.MarkShared(shared...)
		}
		return p, nil
	}
	opts := []om.Option{om.WithLevel(c.Level), om.WithSchedule(c.Schedule)}
	if c.Ablation != (om.Ablation{}) {
		opts = append(opts, om.WithAblation(c.Ablation))
	}
	if c.Profile {
		if prof == nil {
			p, err := merge()
			if err != nil {
				return nil, err
			}
			plain, err := om.Run(ctx, p, om.WithLevel(c.Level), om.WithSchedule(c.Schedule))
			if err != nil {
				return nil, fmt.Errorf("verify: %s profile pre-run: %w", c.Name(), err)
			}
			prof, err = EngineProfile(plain.Image, 100_000_000)
			if err != nil {
				return nil, fmt.Errorf("verify: %s profile collection: %w", c.Name(), err)
			}
		}
		opts = append(opts, om.WithProfile(prof))
	}
	p, err := merge()
	if err != nil {
		return nil, err
	}
	chk := &Checker{Level: CheckFull}
	res, err := om.Run(ctx, p, append(opts, chk.Options()...)...)
	if err != nil {
		return nil, fmt.Errorf("verify: %s: %w", c.Name(), err)
	}
	doc, err := chk.Finish(res)
	if err != nil {
		return nil, fmt.Errorf("verify: %s: %w", c.Name(), err)
	}
	return &CellResult{Cell: c, Image: res.Image, Journal: res.Journal, Check: doc}, nil
}

// MatrixEntry is one row of a matrix verification report. Checked counts
// the cell's check sites and validated journal events, Failed its error
// findings and failed verdict items.
type MatrixEntry struct {
	Label   string `json:"label"`
	Cell    string `json:"cell"`
	Checked uint64 `json:"checked"`
	Failed  uint64 `json:"failed"`
	Err     string `json:"err,omitempty"`
}

// RunMatrix verifies one program (already compiled to objects) across the
// given cells, collecting the engine profile once and reusing it for every
// profile cell. It returns one entry per cell; entries with Failed > 0 or
// a non-empty Err are verification failures.
func RunMatrix(ctx context.Context, label string, objs []*objfile.Object, cells []Cell) []MatrixEntry {
	var prof *profile.Profile
	out := make([]MatrixEntry, 0, len(cells))
	for _, c := range cells {
		e := MatrixEntry{Label: label, Cell: c.Name()}
		if c.Profile && prof == nil {
			// Collect one profile from the scheduled OM-full image and share
			// it across the profile cells.
			r, err := RunCell(ctx, objs, Cell{Level: om.LevelFull, Schedule: true}, nil)
			if err == nil {
				prof, err = EngineProfile(r.Image, 100_000_000)
			}
			if err != nil {
				e.Err = err.Error()
				out = append(out, e)
				continue
			}
		}
		r, err := RunCell(ctx, objs, c, prof)
		if err != nil {
			e.Err = err.Error()
			out = append(out, e)
			continue
		}
		e.Checked, e.Failed = r.Check.Checked(), r.Check.Errors()
		if err := r.Check.Err(); err != nil {
			e.Err = err.Error()
		}
		out = append(out, e)
	}
	return out
}
