package verify

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/progen"
	"repro/internal/rtlib"
	"repro/internal/sim"
	"repro/internal/tcc"
)

// This file is the differential execution engine: randomized programs from
// progen run unoptimized (standard linker) and through every matrix cell,
// and the final architectural state must agree — exit value, output-trap
// stream, output bytes, and the final contents of every data symbol the
// two layouts share. Each optimized image is additionally translation-
// validated, so one generated program exercises both pillars at once.

// DiffOptions configures a differential run.
type DiffOptions struct {
	// Cases is the number of generated programs (default 20).
	Cases int
	// Seed offsets the progen seed sequence.
	Seed int64
	// MaxInstructions bounds each simulation (default 50M).
	MaxInstructions uint64
	// Cells is the option matrix to run each case through (default
	// QuickCells).
	Cells []Cell
	// Gen configures the program generator (zero value: progen defaults).
	Gen progen.Config
}

// Mismatch records one behavioral divergence between the unoptimized and
// an optimized build.
type Mismatch struct {
	Seed   int64  `json:"seed"`
	Cell   string `json:"cell"`
	Field  string `json:"field"`
	Detail string `json:"detail"`
}

// DiffReport summarizes a differential run.
type DiffReport struct {
	Cases      int        `json:"cases"`
	Runs       int        `json:"runs"`
	Checked    uint64     `json:"checked"`
	Mismatches []Mismatch `json:"mismatches,omitempty"`
}

// Err returns an error if any case diverged.
func (r *DiffReport) Err() error {
	if len(r.Mismatches) == 0 {
		return nil
	}
	m := r.Mismatches[0]
	return fmt.Errorf("verify: %d differential mismatches; first: seed %d cell %s %s: %s",
		len(r.Mismatches), m.Seed, m.Cell, m.Field, m.Detail)
}

// finalState is the observable outcome of one simulation.
type finalState struct {
	exit    int64
	output  []int64
	outB    []byte
	machine *sim.Machine
	image   *objfile.Image
}

func execute(im *objfile.Image, maxInst uint64) (*finalState, error) {
	m, err := sim.New(im, sim.Config{MaxInstructions: maxInst})
	if err != nil {
		return nil, err
	}
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	return &finalState{exit: res.Exit, output: res.Output, outB: res.OutBytes, machine: m, image: im}, nil
}

// dataSymbols returns the image's data symbols that are uniquely named (a
// multiply-defined name cannot be matched across layouts).
func dataSymbols(im *objfile.Image) map[string]objfile.ImageSymbol {
	count := make(map[string]int)
	for _, s := range im.Symbols {
		if s.Kind == objfile.SymData {
			count[s.Name]++
		}
	}
	out := make(map[string]objfile.ImageSymbol)
	for _, s := range im.Symbols {
		if s.Kind == objfile.SymData && count[s.Name] == 1 && s.Size > 0 {
			out[s.Name] = s
		}
	}
	return out
}

// compare diffs two final states, appending mismatches to the report.
func compare(r *DiffReport, seed int64, cell string, base, opt *finalState) {
	add := func(field, format string, args ...any) {
		r.Mismatches = append(r.Mismatches, Mismatch{
			Seed: seed, Cell: cell, Field: field, Detail: fmt.Sprintf(format, args...),
		})
	}
	if base.exit != opt.exit {
		add("exit", "%d != %d", opt.exit, base.exit)
	}
	if fmt.Sprint(base.output) != fmt.Sprint(opt.output) {
		add("output", "trap stream diverged: %v != %v", opt.output, base.output)
	}
	if !bytes.Equal(base.outB, opt.outB) {
		add("outbytes", "%d bytes != %d bytes", len(opt.outB), len(base.outB))
	}
	// Final memory: every uniquely-named data symbol both layouts share
	// must hold identical bytes. Generated programs keep addresses out of
	// globals, so a divergence here is an optimizer bug, not a relocation.
	baseSyms := dataSymbols(base.image)
	optSyms := dataSymbols(opt.image)
	for name, bs := range baseSyms {
		os, ok := optSyms[name]
		if !ok || os.Size != bs.Size {
			continue
		}
		bb, err1 := base.machine.ReadBytes(bs.Addr, int(bs.Size))
		ob, err2 := opt.machine.ReadBytes(os.Addr, int(os.Size))
		if err1 != nil || err2 != nil {
			continue
		}
		if !bytes.Equal(bb, ob) {
			add("memory", "data symbol %s (%d bytes) diverged", name, bs.Size)
		}
		r.Checked++
	}
}

// Differential generates opts.Cases random programs and runs each through
// the full pipeline: compile, baseline link + simulate, then every matrix
// cell (OM + translation validation + simulate), diffing the final state
// against the baseline. Translation-validation failures are reported as
// mismatches in field "verdict".
func Differential(ctx context.Context, opts DiffOptions) (*DiffReport, error) {
	if opts.Cases <= 0 {
		opts.Cases = 20
	}
	if opts.MaxInstructions == 0 {
		opts.MaxInstructions = 50_000_000
	}
	if opts.Cells == nil {
		opts.Cells = QuickCells()
	}
	if opts.Gen == (progen.Config{}) {
		opts.Gen = progen.DefaultConfig()
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		return nil, err
	}

	r := &DiffReport{Cases: opts.Cases}
	for i := 0; i < opts.Cases; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seed := opts.Seed + int64(i)
		srcs := progen.Generate(seed, opts.Gen)
		var objs []*objfile.Object
		for _, s := range srcs {
			obj, err := tcc.Compile(s.Name, []tcc.Source{s}, tcc.DefaultOptions())
			if err != nil {
				return nil, fmt.Errorf("verify: seed %d compile %s: %w", seed, s.Name, err)
			}
			objs = append(objs, obj)
		}
		objs = append(objs, lib...)

		baseIm, err := link.Link(objs)
		if err != nil {
			return nil, fmt.Errorf("verify: seed %d link: %w", seed, err)
		}
		base, err := execute(baseIm, opts.MaxInstructions)
		if err != nil {
			return nil, fmt.Errorf("verify: seed %d baseline run: %w", seed, err)
		}
		r.Runs++

		for _, c := range opts.Cells {
			cr, err := RunCell(ctx, objs, c, nil)
			if err != nil {
				return nil, fmt.Errorf("verify: seed %d: %w", seed, err)
			}
			if v := cr.Check.Verify; v.Failed > 0 {
				r.Mismatches = append(r.Mismatches, Mismatch{
					Seed: seed, Cell: c.Name(), Field: "verdict",
					Detail: v.Err().Error(),
				})
			}
			r.Checked += cr.Check.Verify.Checked
			opt, err := execute(cr.Image, opts.MaxInstructions)
			if err != nil {
				r.Mismatches = append(r.Mismatches, Mismatch{
					Seed: seed, Cell: c.Name(), Field: "run",
					Detail: err.Error(),
				})
				continue
			}
			r.Runs++
			compare(r, seed, c.Name(), base, opt)
		}
	}
	return r, nil
}
