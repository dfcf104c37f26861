// Package repro's root benchmarks time the reproduction's tooling, one
// benchmark per paper artifact plus pipeline micro-benchmarks:
//
//   - BenchmarkFig3Statics / Fig4Statics / Fig5Statics: the static-analysis
//     pipeline behind Figures 3-5 (compile + merge + OM at both levels).
//   - BenchmarkFig6Dynamic: the dynamic experiment behind Figure 6 (all
//     link variants of one benchmark, simulated).
//   - BenchmarkFig7StandardLink / OMNone / OMSimple / OMFull / OMFullSched
//     and BenchmarkFig7InterprocBuild: the build-time columns of Figure 7.
//   - BenchmarkGATReduction: the §5.1 GAT measurement.
//
// Absolute times differ from the 1994 DEC hardware, but the orderings the
// paper reports (OM a small constant over ld; scheduling superlinear on
// big-basic-block programs like fpppp; interprocedural rebuilds far slower
// than an optimizing link) are reproduced by these benchmarks.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/omd"
	"repro/internal/omd/client"
	"repro/internal/progen"
	"repro/internal/rtlib"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/tcc"
	"repro/internal/verify"
)

// runOM merges the objects and runs OM under the given options (the
// benchmarks' shorthand for the link.Merge + om.Run pipeline).
func runOM(objs []*objfile.Object, opts ...om.Option) (*objfile.Image, *om.Stats, error) {
	p, err := link.Merge(objs)
	if err != nil {
		return nil, nil, err
	}
	res, err := om.Run(context.Background(), p, opts...)
	if err != nil {
		return nil, nil, err
	}
	return res.Image, res.Stats, nil
}

// buildObjects compiles a benchmark's modules separately plus the library.
func buildObjects(b *testing.B, name string) []*objfile.Object {
	b.Helper()
	bench, ok := spec.ByName(name)
	if !ok {
		b.Fatalf("no benchmark %s", name)
	}
	var objs []*objfile.Object
	for _, m := range bench.Modules {
		obj, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		objs = append(objs, obj)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		b.Fatal(err)
	}
	return append(objs, lib...)
}

func benchOM(b *testing.B, name string, opts ...om.Option) {
	objs := buildObjects(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := runOM(objs, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7: build-time columns. The paper's table rows are programs;
// here li is the representative medium program and fpppp the
// big-basic-block stress case for the scheduling column.

func BenchmarkFig7StandardLink(b *testing.B) {
	objs := buildObjects(b, "li")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := link.Link(objs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7InterprocBuild(b *testing.B) {
	bench, _ := spec.ByName("li")
	lib, err := rtlib.StandardObjects()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj, err := tcc.Compile("li_all", bench.Modules, tcc.InterprocOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := link.Link(append([]*objfile.Object{obj}, lib...)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7OMNone(b *testing.B)   { benchOM(b, "li", om.WithLevel(om.LevelNone)) }
func BenchmarkFig7OMSimple(b *testing.B) { benchOM(b, "li", om.WithLevel(om.LevelSimple)) }
func BenchmarkFig7OMFull(b *testing.B)   { benchOM(b, "li", om.WithLevel(om.LevelFull)) }
func BenchmarkFig7OMFullSched(b *testing.B) {
	benchOM(b, "li", om.WithLevel(om.LevelFull), om.WithSchedule(true))
}

// BenchmarkFig7SchedBigBlocks shows the superlinear scheduling cost the
// paper observed on fpppp and doduc.
func BenchmarkFig7SchedBigBlocks(b *testing.B) {
	benchOM(b, "fpppp", om.WithLevel(om.LevelFull), om.WithSchedule(true))
}

// --- Figures 3-5: the static measurement pipeline.

func benchStatics(b *testing.B, name string) {
	objs := buildObjects(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lvl := range []om.Level{om.LevelNone, om.LevelSimple, om.LevelFull} {
			_, st, err := runOM(objs, om.WithLevel(lvl))
			if err != nil {
				b.Fatal(err)
			}
			if st.AddressLoads == 0 {
				b.Fatal("no address loads measured")
			}
		}
	}
}

func BenchmarkFig3Statics(b *testing.B) { benchStatics(b, "espresso") }
func BenchmarkFig4Statics(b *testing.B) { benchStatics(b, "spice") }
func BenchmarkFig5Statics(b *testing.B) { benchStatics(b, "tomcatv") }

// BenchmarkGATReduction measures the §5.1 quantity end to end.
func BenchmarkGATReduction(b *testing.B) {
	objs := buildObjects(b, "alvinn")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := runOM(objs, om.WithLevel(om.LevelFull))
		if err != nil {
			b.Fatal(err)
		}
		if st.GATBytesAfter >= st.GATBytesBefore {
			b.Fatal("GAT did not shrink")
		}
	}
}

// --- Figure 6: the dynamic experiment for one benchmark (spice, the
// smallest of the suite, to keep bench time reasonable).

func BenchmarkFig6Dynamic(b *testing.B) {
	objs := buildObjects(b, "spice")
	baseline, err := link.Link(objs)
	if err != nil {
		b.Fatal(err)
	}
	fullIm, _, err := runOM(objs, om.WithLevel(om.LevelFull), om.WithSchedule(true))
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1, err := sim.Run(baseline, cfg)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := sim.Run(fullIm, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r2.Stats.Instructions >= r1.Stats.Instructions {
			b.Fatal("OM-full did not reduce instruction count")
		}
		insts += r1.Stats.Instructions + r2.Stats.Instructions
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "inst/s")
}

// --- Link benchmarks. Cold is what every daemon job that misses the result
// memo and the image cache pays: decode every uploaded module, merge, and
// link from nothing.

// serializeObjects renders each module to the wire bytes a daemon receives.
func serializeObjects(b *testing.B, objs []*objfile.Object) [][]byte {
	b.Helper()
	var raw [][]byte
	for _, obj := range objs {
		var buf bytes.Buffer
		if err := obj.Write(&buf); err != nil {
			b.Fatal(err)
		}
		raw = append(raw, buf.Bytes())
	}
	return raw
}

// linkCold times the daemon's cold path over the given objects: decode
// every module from its wire bytes, merge, and link at OM-full, proving the
// link at the given check level with a fresh checker per op.
func linkCold(b *testing.B, objs []*objfile.Object, check verify.CheckLevel) {
	raw := serializeObjects(b, objs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var objs []*objfile.Object
		for _, data := range raw {
			obj, err := objfile.Read(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			objs = append(objs, obj)
		}
		if check == verify.CheckOff {
			if _, _, err := runOM(objs, om.WithLevel(om.LevelFull)); err != nil {
				b.Fatal(err)
			}
			continue
		}
		p, err := link.Merge(objs)
		if err != nil {
			b.Fatal(err)
		}
		chk := &verify.Checker{Level: check}
		res, err := om.Run(context.Background(), p, append(chk.Options(), om.WithLevel(om.LevelFull))...)
		if err != nil {
			b.Fatal(err)
		}
		doc, err := chk.Finish(res)
		if err != nil {
			b.Fatal(err)
		}
		if err := doc.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkCold links li, whose 768 KB of commons make it the program
// with the most zero data.
func BenchmarkLinkCold(b *testing.B) { linkCold(b, buildObjects(b, "li"), verify.CheckOff) }

// BenchmarkLinkCheckStatic is BenchmarkLinkCold under the static check
// (om -check static): the dataflow analysis of the lifted program, the
// optimized program and the image. Its ns/op over BenchmarkLinkCold's is
// what the check costs relative to the link it proves.
func BenchmarkLinkCheckStatic(b *testing.B) {
	linkCold(b, buildObjects(b, "li"), verify.CheckStatic)
}

// progen4x compiles the modules of a progen 4x program (seed 1): five
// times li's text, small commons.
func progen4x(b *testing.B) []*objfile.Object {
	b.Helper()
	cfg := progen.DefaultConfig()
	cfg.FuncsPerMod *= 4
	var objs []*objfile.Object
	for _, m := range progen.Generate(1, cfg) {
		obj, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		objs = append(objs, obj)
	}
	return objs
}

// BenchmarkLinkColdProgen links a progen 4x program, which weighs the
// pointerful symbolic form rather than data.
func BenchmarkLinkColdProgen(b *testing.B) {
	lib, err := rtlib.StandardObjects()
	if err != nil {
		b.Fatal(err)
	}
	linkCold(b, append(progen4x(b), lib...), verify.CheckOff)
}

// BenchmarkServeImageCacheHit times an omd job served from the image cache,
// admission to fetched image: an in-process server behind HTTP takes an
// upload of a progen 4x program it has already linked, under a simulation
// cap no earlier job used (a new job key with the same image key), and the
// client then fetches the image.
func BenchmarkServeImageCacheHit(b *testing.B) {
	cache, err := buildcache.New("")
	if err != nil {
		b.Fatal(err)
	}
	srv := omd.NewServer(omd.Config{Workers: 1, Cache: cache})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL, nil)
	ctx := context.Background()
	spec := omd.JobSpec{Version: omd.SpecVersion, Objects: serializeObjects(b, progen4x(b))}
	serve := func(maxInst uint64) {
		spec.MaxInstructions = maxInst
		st, err := c.SubmitWait(ctx, &spec)
		if err != nil {
			b.Fatal(err)
		}
		if st.State != omd.JobDone || (maxInst > 0 && !st.ImageCacheHit) {
			b.Fatalf("job %s: state %s (%s), image-cache hit %v", st.ID, st.State, st.Error, st.ImageCacheHit)
		}
		if _, err := c.Image(ctx, st.ID); err != nil {
			b.Fatal(err)
		}
	}
	serve(0) // the fresh link fills the image cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(uint64(i + 1))
	}
}

// --- Pipeline micro-benchmarks.

func BenchmarkCompileEach(b *testing.B) {
	bench, _ := spec.ByName("li")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range bench.Modules {
			if _, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkLift(b *testing.B) {
	objs := buildObjects(b, "li")
	p, err := link.Merge(objs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := om.Lift(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateFunctional(b *testing.B) {
	objs := buildObjects(b, "spice")
	im, err := link.Link(objs)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(im, sim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(im, sim.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Instructions)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

func BenchmarkSimulateTiming(b *testing.B) {
	objs := buildObjects(b, "spice")
	im, err := link.Link(objs)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(im, sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(im, sim.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Instructions)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// Sanity for the figure pipeline: keep the benchmarks honest by checking a
// couple of headline shapes once (not timed).
func TestBenchmarkShapes(t *testing.T) {
	objs := buildObjects2(t, "li")
	_, simple, err := runOM(objs, om.WithLevel(om.LevelSimple))
	if err != nil {
		t.Fatal(err)
	}
	_, full, err := runOM(objs, om.WithLevel(om.LevelFull))
	if err != nil {
		t.Fatal(err)
	}
	if simple.AddrRemovedFrac() < 0.3 {
		t.Errorf("OM-simple removed only %.0f%% of address loads", 100*simple.AddrRemovedFrac())
	}
	if full.AddrRemovedFrac() < simple.AddrRemovedFrac() {
		t.Error("OM-full removed fewer address loads than OM-simple")
	}
	if full.NullifiedFrac() < 0.05 {
		t.Errorf("OM-full deleted only %.1f%% of instructions", 100*full.NullifiedFrac())
	}
	fmt.Printf("li: simple %s\nli: full   %s\n", simple, full)
}

func buildObjects2(t *testing.T, name string) []*objfile.Object {
	t.Helper()
	bench, ok := spec.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %s", name)
	}
	var objs []*objfile.Object
	for _, m := range bench.Modules {
		obj, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	return append(objs, lib...)
}

// BenchmarkAblation times the full ablation pass set (the repository's
// added study attributing OM-full's win to its components).
func BenchmarkAblation(b *testing.B) {
	objs := buildObjects(b, "li")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ab := range om.Ablations() {
			p, err := link.Merge(objs)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := om.Run(context.Background(), p, om.WithAblation(ab)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
