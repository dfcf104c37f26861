package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/om"
	"repro/internal/sim"
)

// link-cold: one client relinks every point from its serialized modules with
// no resident cache — a developer's om link. Points are the 19 spec programs
// and linkColdProgen seeded progen programs at 4x functions per module, each
// under OM-full, OM-full+sched, OM-simple and OM-full with a profile built
// in set-up.
const linkColdProgen = 8

var linkColdOpts = []optKind{optFull, optFullSched, optSimple, optFullProfile}

type linkCold struct {
	seed   int64
	points []*point
	images []*objfile.Image // warm-up image per point
	data   [][]byte         // its serialization
	prints []pointPrint     // warm-up record per point
	order  cycleOrder
}

func setupLinkCold(ctx context.Context, seed int64) (instance, error) {
	progs, err := specPrograms()
	if err != nil {
		return nil, err
	}
	for i := 0; i < linkColdProgen; i++ {
		p, err := progenProgram(seed, i, 4)
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	w := &linkCold{seed: seed}
	for _, prog := range progs {
		prof, err := buildProfile(ctx, prog)
		if err != nil {
			return nil, err
		}
		for _, k := range linkColdOpts {
			pt := &point{prog: prog, opt: k}
			if k == optFullProfile {
				pt.prof = prof
			}
			w.points = append(w.points, pt)
		}
	}
	// Warm-up pass: every point once, untimed; its image is the reference
	// every timed op of the point must reproduce byte for byte.
	for i := range w.points {
		data, res, err := w.pipeline(ctx, i, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.points[i].name(), err)
		}
		w.images = append(w.images, res.Image)
		w.data = append(w.data, data)
		w.prints = append(w.prints, pointPrint{
			Point:     w.points[i].name(),
			ImageSHA:  imageSHA(data),
			TextBytes: textBytes(res.Image),
			Stats:     *res.Stats,
		})
	}
	return w, nil
}

func (w *linkCold) clients() int { return 1 }

// cycleOrder maps op seq to a point: each pass over the n points is a fresh
// seeded permutation. One client calls it, so it needs no lock.
type cycleOrder struct {
	cycle int
	perm  []int
}

func (c *cycleOrder) pick(seed int64, seq, n int) int {
	if c.perm == nil || seq/n != c.cycle {
		c.cycle = seq / n
		c.perm = rand.New(rand.NewSource(mix(seed, int64(c.cycle)))).Perm(n)
	}
	return c.perm[seq%n]
}

func (w *linkCold) traced(seq int) bool { return (seq/len(w.points))%2 == 1 }

// pipeline is the measured op: decode every module, merge, om.Run and
// serialize the image. A non-nil root records a span around each call.
func (w *linkCold) pipeline(ctx context.Context, i int, root *obs.Span) ([]byte, *om.Result, error) {
	pt := w.points[i]
	sp := root.Child("objfile.read")
	objs := make([]*objfile.Object, 0, len(pt.prog.raw))
	for _, data := range pt.prog.raw {
		obj, err := objfile.Read(bytes.NewReader(data))
		if err != nil {
			return nil, nil, err
		}
		objs = append(objs, obj)
	}
	sp.End()
	sp = root.Child("link.merge")
	p, err := link.Merge(objs)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp = root.Child("om")
	res, err := om.Run(ctx, p, append(pt.options(), om.WithSpan(sp))...)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp = root.Child("objfile.write")
	var buf bytes.Buffer
	err = res.Image.Write(&buf)
	sp.End()
	return buf.Bytes(), res, err
}

func (w *linkCold) op(ctx context.Context, seq int, lt *layerTimes) (time.Duration, error) {
	i := w.order.pick(w.seed, seq, len(w.points))
	var tr *obs.Trace
	if lt != nil {
		tr = obs.NewTrace("", "op", time.Time{}, nil)
	}
	t0 := time.Now()
	data, res, err := w.pipeline(ctx, i, tr.Root())
	lat := time.Since(t0)
	if err != nil {
		return lat, fmt.Errorf("%s: %w", w.points[i].name(), err)
	}
	if lt != nil {
		tr.Root().End()
		lt.addDoc(tr.Root().Doc(), true)
	}
	if err := res.Image.Validate(); err != nil {
		return lat, fmt.Errorf("%s: %w", w.points[i].name(), err)
	}
	if !bytes.Equal(data, w.data[i]) {
		return lat, fmt.Errorf("%s: image differs from the warm-up image", w.points[i].name())
	}
	return lat, nil
}

// finish runs every point's image once and compares its output with the
// program's standard link.Link image. Progen points run in the timing model
// and contribute their cycles; the spec programs run for millions of
// instructions each, so they are checked in the functional model only.
func (w *linkCold) finish(ctx context.Context) (*finishResult, error) {
	fin := &finishResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	refs := map[*program]*sim.Result{}
	var mu sync.Mutex
	ratios := make([]float64, len(w.points))
	cfgFor := func(pt *point) sim.Config {
		if pt.prog.progen {
			return sim.DefaultConfig()
		}
		return sim.Config{}
	}
	for _, pt := range w.points {
		if refs[pt.prog] != nil {
			continue
		}
		r, err := reference(pt.prog, cfgFor(pt))
		if err != nil {
			return nil, fmt.Errorf("%s: reference run: %w", pt.prog.name, err)
		}
		refs[pt.prog] = r
	}
	err := parallel(len(w.points), func(i int) error {
		pt := w.points[i]
		cfg := cfgFor(pt)
		got, err := sim.Run(w.images[i], cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", pt.name(), err)
		}
		want := refs[pt.prog]
		mu.Lock()
		defer mu.Unlock()
		if err := sameRun(got, want); err != nil {
			logf("%s: %v", pt.name(), err)
			fin.failed++
		}
		if cfg.Timing {
			w.prints[i].SimCycles = got.Stats.Cycles
			w.prints[i].SimInsts = got.Stats.Instructions
			w.prints[i].SimIMiss = got.Stats.ICacheMisses
			ratios[i] = float64(got.Stats.Cycles) / float64(want.Stats.Cycles)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range w.prints {
		fin.e2e["text_bytes"] += float64(p.TextBytes)
	}
	fin.e2e["sim_cycles_ratio"] = geomean(ratios)
	statsLayer(w.prints, fin.layer)
	fin.prints = w.prints
	return fin, nil
}

func (w *linkCold) heapOps() int { return 0 }
func (w *linkCold) close()       {}

// parallel runs fn(0..n-1) on two workers and returns the first error.
func parallel(n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	idx := make(chan int)
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return first
}
