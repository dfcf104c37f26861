package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/profile"
	"repro/internal/progen"
	"repro/internal/rtlib"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/tcc"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// program is one compiled input program: its modules plus the runtime
// library, in link order.
type program struct {
	name   string
	objs   []*objfile.Object
	raw    [][]byte // objfile serialization of objs
	mods   int      // objs[:mods] are the program's own modules
	progen bool
	text   int // .text bytes of the standard link (set by reference)
}

// compile builds a program from sources, one object per module
// (compile-each), plus the runtime library.
func compile(name string, srcs []tcc.Source) (*program, error) {
	lib, err := rtlib.StandardObjects()
	if err != nil {
		return nil, err
	}
	p := &program{name: name, mods: len(srcs)}
	for _, m := range srcs {
		obj, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		p.objs = append(p.objs, obj)
	}
	p.objs = append(p.objs, lib...)
	for _, obj := range p.objs {
		var buf bytes.Buffer
		if err := obj.Write(&buf); err != nil {
			return nil, err
		}
		p.raw = append(p.raw, buf.Bytes())
	}
	return p, nil
}

// specPrograms compiles the 19-program suite.
func specPrograms() ([]*program, error) {
	var out []*program
	for _, b := range spec.All() {
		p, err := compile(b.Name, b.Modules)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// progenProgram compiles the generated program number i of a seed at scale
// times the default functions per module.
func progenProgram(seed int64, i, scale int) (*program, error) {
	cfg := progen.DefaultConfig()
	cfg.FuncsPerMod *= scale
	s := mix(seed, int64(scale)<<32|int64(i))
	p, err := compile(fmt.Sprintf("pg%dx-%d", scale, i), progen.Generate(s, cfg))
	if p != nil {
		p.progen = true
	}
	return p, err
}

// mix derives an independent seed from a seed and a stream index
// (splitmix64 finalizer).
func mix(seed, i int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i) + 0x632be59bd9b4e5d5
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// optKind is one OM option point.
type optKind int

const (
	optFull optKind = iota
	optFullSched
	optSimple
	optFullProfile
	optNone
)

func (k optKind) String() string {
	return [...]string{"full", "full-sched", "simple", "full-profile", "none"}[k]
}

// options returns the om.Run options of the point (the profile is added by
// the caller).
func (k optKind) options() []om.Option {
	switch k {
	case optFullSched:
		return []om.Option{om.WithLevel(om.LevelFull), om.WithSchedule(true)}
	case optSimple:
		return []om.Option{om.WithLevel(om.LevelSimple)}
	case optNone:
		return []om.Option{om.WithLevel(om.LevelNone)}
	}
	return []om.Option{om.WithLevel(om.LevelFull)}
}

// point is one distinct (program, options) input.
type point struct {
	prog *program
	opt  optKind
	prof *profile.Profile // optFullProfile only
}

func (pt *point) name() string { return pt.prog.name + "/" + pt.opt.String() }

func (pt *point) options() []om.Option {
	opts := pt.opt.options()
	if pt.prof != nil {
		opts = append(opts, om.WithProfile(pt.prof))
	}
	return opts
}

// link runs the local cold pipeline for the point: merge and om.Run.
func (pt *point) link(ctx context.Context) (*om.Result, error) {
	p, err := link.Merge(pt.prog.objs)
	if err != nil {
		return nil, err
	}
	return om.Run(ctx, p, pt.options()...)
}

// buildProfile profiles the program's OM-full image in the simulator and
// returns the om-profile/v1 document profile-guided points link with.
func buildProfile(ctx context.Context, prog *program) (*profile.Profile, error) {
	res, err := (&point{prog: prog, opt: optFull}).link(ctx)
	if err != nil {
		return nil, err
	}
	run, err := sim.Run(res.Image, sim.Config{Profile: true})
	if err != nil {
		return nil, fmt.Errorf("%s: profile run: %w", prog.name, err)
	}
	blocks := make([]profile.PCBlock, len(run.BlockProfile))
	for i, b := range run.BlockProfile {
		blocks[i] = profile.PCBlock{PC: b.PC, Len: b.Len, Count: b.Count}
	}
	return profile.FromImage(res.Image, blocks)
}

// reference runs the program's standard link.Link image: the output every
// optimized image must reproduce.
func reference(prog *program, cfg sim.Config) (*sim.Result, error) {
	im, err := link.Link(prog.objs)
	if err != nil {
		return nil, err
	}
	prog.text = textBytes(im)
	return sim.Run(im, cfg)
}

// sameRun reports whether an optimized image's run matches the reference.
func sameRun(got, want *sim.Result) error {
	if got.Exit != want.Exit {
		return fmt.Errorf("exit %d, want %d", got.Exit, want.Exit)
	}
	if len(got.Output) != len(want.Output) {
		return fmt.Errorf("%d output values, want %d", len(got.Output), len(want.Output))
	}
	for i := range got.Output {
		if got.Output[i] != want.Output[i] {
			return fmt.Errorf("output[%d] = %d, want %d", i, got.Output[i], want.Output[i])
		}
	}
	if !bytes.Equal(got.OutBytes, want.OutBytes) {
		return fmt.Errorf("output bytes differ")
	}
	return nil
}

// pointPrint is the exact record of one distinct point. Two runs with the
// same seed must produce identical prints.
type pointPrint struct {
	Point     string   `json:"point"`
	ImageSHA  string   `json:"image_sha256"`
	TextBytes int      `json:"text_bytes"`
	Stats     om.Stats `json:"stats"`
	SimCycles uint64   `json:"sim_cycles,omitempty"`
	SimInsts  uint64   `json:"sim_instructions,omitempty"`
	SimIMiss  uint64   `json:"sim_icache_misses,omitempty"`
}

func imageSHA(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

func imageBytes(im *objfile.Image) ([]byte, error) {
	var buf bytes.Buffer
	if err := im.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func textBytes(im *objfile.Image) int {
	n := 0
	for _, seg := range im.TextSegments() {
		n += len(seg.Data)
	}
	return n
}

// statsLayer sums the om.Stats counters the per-layer metrics report.
func statsLayer(prints []pointPrint, into map[string]float64) {
	for _, p := range prints {
		s := p.Stats
		into["om.addr_removed"] += float64(s.AddrConverted + s.AddrNullified)
		into["om.insts_deleted"] += float64(s.Deleted)
		into["om.insts_nullified"] += float64(s.Nullified)
		into["om.jsr_after"] += float64(s.JSRAfter)
		into["om.gp_reset_after"] += float64(s.GPResetAfter)
		into["om.gat_bytes_after"] += float64(s.GATBytesAfter)
		into["sim.instructions"] += float64(p.SimInsts)
		into["sim.icache_misses"] += float64(p.SimIMiss)
	}
}

// geomean returns the geometric mean of the positive entries of xs; points
// that had no timing-model run hold 0.
func geomean(xs []float64) float64 {
	var s float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return math.Exp(s / float64(n))
}

func writePrints(file string, prints []pointPrint) error {
	data, err := json.MarshalIndent(prints, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(data, '\n'), 0o644)
}
