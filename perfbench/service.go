package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/buildcache"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/omd"
	"repro/internal/omd/client"
	"repro/internal/sim"
	"repro/internal/tcc"
)

// service-mix: an in-process omd server (2 workers, default bounds, the
// in-memory build cache omd runs with by default) driven by two closed-loop
// clients through client.SubmitWait. Jobs upload objects. The traffic is
// synthetic: no recorded omd traffic exists, so the shares below were chosen
// to exercise every cache both ways and to put the latency quantiles inside
// traffic classes, not observed. 80% of ops draw a catalog point; catalog
// rank k has weight (serviceZipfV+k)^-serviceZipfS over a seeded ranking, and
// the catalog is larger than the server's 256-entry result memo, so the tail
// cycles through the memo, the image cache and the stage caches. 15% are
// never-seen uploads and 5% option changes on one of the last four uploads.
//
// The median op then lies inside the memo hits (about 58% of jobs, the
// fastest class) and the 90th percentile inside the never-seen uploads (15%,
// the slowest), away from the steps between traffic classes.
const (
	serviceClients = 2
	serviceCatalog = 80 // 1x programs; x4 option points = 320 > memo limit
	serviceBases   = 16 // 4x programs the never-seen uploads are built from
	serviceStream  = 1 << 18
	serviceZipfS   = 1.1
	serviceZipfV   = 4
	serviceWritePc = 15 // percent of ops that are never-seen uploads ...
	serviceChngPc  = 5  // ... and option changes on one of the last 4 uploads
	serviceHeapOps = 4000
)

var serviceOpts = []optKind{optFull, optFullSched, optSimple, optNone}

// served is a done job and the stream op it answered.
type served struct {
	id string
	so streamOp
}

// streamOp is one op of the seeded job stream: a catalog point, or upload
// number write under option opt.
type streamOp struct {
	catalog int // index into points, or -1 for an upload
	write   int
	opt     optKind
}

type serviceMix struct {
	seed    int64
	srv     *omd.Server
	hs      *httptest.Server
	cl      *client.Client
	points  []*point
	bases   []*program
	stream  []streamOp
	optJSON map[optKind][]byte
	before  *omd.MetricsSnapshot

	mu       sync.Mutex
	lastJob  map[string]served // distinct point -> a done job serving it
	uploads  map[int][][]byte  // write -> uploaded module bytes
	traffic  map[string]int    // memo / coalesced / image / fresh
	jobs     int
	writes   int
	rejected int
	execSum  time.Duration
	execN    int
}

func setupServiceMix(ctx context.Context, seed int64) (instance, error) {
	w := &serviceMix{
		seed:    seed,
		optJSON: map[optKind][]byte{},
		lastJob: map[string]served{},
		uploads: map[int][][]byte{},
		traffic: map[string]int{},
	}
	for _, k := range serviceOpts {
		data, err := om.MarshalOptions(k.options()...)
		if err != nil {
			return nil, err
		}
		w.optJSON[k] = data
	}
	// Catalog programs and upload bases are drawn near the median upload
	// size: a memo hit's latency is mostly decoding the upload and a fresh
	// upload's is linking it, so which programs the seed draws and makes
	// popular then barely moves either.
	catalog, err := typicalPrograms(seed, 1, serviceCatalog)
	if err != nil {
		return nil, err
	}
	for _, prog := range catalog {
		for _, k := range serviceOpts {
			w.points = append(w.points, &point{prog: prog, opt: k})
		}
	}
	if w.bases, err = typicalPrograms(mix(seed, 1), 4, serviceBases); err != nil {
		return nil, err
	}
	w.stream = makeStream(seed, len(w.points))

	cache, err := buildcache.New("")
	if err != nil {
		return nil, err
	}
	w.srv = omd.NewServer(omd.Config{Workers: serviceClients, Cache: cache})
	w.hs = httptest.NewServer(w.srv.Handler())
	w.cl = client.New(w.hs.URL, nil)

	// Warm-up pass: every catalog point once, plus one upload through the
	// write path, so lazy set-up (the server's runtime library, connection
	// pools) is done before timing.
	for i := range w.points {
		if err := w.submit(ctx, streamOp{catalog: i}); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up %s: %w", w.points[i].name(), err)
		}
	}
	if err := w.submit(ctx, streamOp{catalog: -1, write: -1, opt: optFull}); err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up upload: %w", err)
	}
	if w.before, err = w.cl.Metrics(ctx); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// makeStream draws the seeded job stream.
func makeStream(seed int64, catalog int) []streamOp {
	r := rand.New(rand.NewSource(mix(seed, 2)))
	zipf := rand.NewZipf(r, serviceZipfS, serviceZipfV, uint64(catalog-1))
	rank := r.Perm(catalog) // popularity rank -> catalog point
	stream := make([]streamOp, serviceStream)
	writes := 0
	for i := range stream {
		u := r.Intn(100)
		switch {
		case u < serviceWritePc || writes == 0:
			stream[i] = streamOp{catalog: -1, write: writes, opt: optFull}
			writes++
		case u < serviceWritePc+serviceChngPc:
			back := 1 + r.Intn(min(4, writes))
			stream[i] = streamOp{catalog: -1, write: writes - back, opt: serviceOpts[1+r.Intn(len(serviceOpts)-1)]}
		default:
			stream[i] = streamOp{catalog: rank[zipf.Uint64()]}
		}
	}
	return stream
}

func (w *serviceMix) clients() int        { return serviceClients }
func (w *serviceMix) traced(seq int) bool { return seq%2 == 1 }

// heapOps limits the peak-heap sample to the window's first jobs. omd keeps
// every job record, so its heap grows with the job count; over the whole
// window the peak would measure host speed.
func (w *serviceMix) heapOps() int { return serviceHeapOps }

// upload returns the module bytes of upload number write: a base program
// plus a one-line module that makes the program new to every cache.
func (w *serviceMix) upload(write int) ([][]byte, error) {
	w.mu.Lock()
	mods, ok := w.uploads[write]
	w.mu.Unlock()
	if ok {
		return mods, nil
	}
	base := w.bases[int(uint64(mix(w.seed, int64(write)))%serviceBases)]
	tag, err := tcc.Compile("tag", []tcc.Source{{Name: "tag",
		Text: fmt.Sprintf("long perfbench_upload = %d;\n", write)}}, tcc.DefaultOptions())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tag.Write(&buf); err != nil {
		return nil, err
	}
	mods = append(append([][]byte(nil), base.raw[:base.mods]...), buf.Bytes())
	w.mu.Lock()
	w.uploads[write] = mods
	w.mu.Unlock()
	return mods, nil
}

func (w *serviceMix) spec(so streamOp) (*omd.JobSpec, string, error) {
	if so.catalog >= 0 {
		pt := w.points[so.catalog]
		return &omd.JobSpec{Version: omd.SpecVersion, Objects: pt.prog.raw[:pt.prog.mods],
			Options: w.optJSON[pt.opt]}, pt.name(), nil
	}
	mods, err := w.upload(so.write)
	if err != nil {
		return nil, "", err
	}
	return &omd.JobSpec{Version: omd.SpecVersion, Objects: mods, Options: w.optJSON[so.opt]},
		fmt.Sprintf("upload%d/%s", so.write, so.opt), nil
}

// submit runs one warm-up job to completion and records the point it served.
func (w *serviceMix) submit(ctx context.Context, so streamOp) error {
	js, key, err := w.spec(so)
	if err != nil {
		return err
	}
	st, err := w.cl.SubmitWait(ctx, js)
	if err != nil {
		return err
	}
	if st.State != omd.JobDone {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	w.mu.Lock()
	w.lastJob[key] = served{st.ID, so}
	w.mu.Unlock()
	return nil
}

func (w *serviceMix) op(ctx context.Context, seq int, lt *layerTimes) (time.Duration, error) {
	so := w.stream[seq%len(w.stream)]
	js, key, err := w.spec(so)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	st, err := w.cl.SubmitWait(ctx, js)
	lat := time.Since(t0)
	w.mu.Lock()
	w.jobs++
	if so.catalog < 0 {
		w.writes++
	}
	if client.IsQueueFull(err) {
		w.rejected++
	}
	w.mu.Unlock()
	if err != nil {
		return lat, err
	}
	if st.State != omd.JobDone {
		return lat, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	w.mu.Lock()
	w.lastJob[key] = served{st.ID, so}
	switch {
	case st.MemoHit:
		w.traffic["memo"]++
	case st.Coalesced:
		w.traffic["coalesced"]++
	case st.ImageCacheHit:
		w.traffic["image"]++
	default:
		w.traffic["fresh"]++
	}
	if lt != nil {
		w.execSum += st.Exec
		w.execN++
	}
	w.mu.Unlock()
	if lt != nil {
		doc, err := w.cl.Trace(ctx, st.ID)
		if err != nil {
			return lat, err
		}
		lt.addDoc(doc.Root, false)
		lt.add("omd.http", lat-doc.Root.Duration)
	}
	return lat, nil
}

// finish fetches every distinct point's served image and compares it byte
// for byte with a local cold link, then runs each catalog image and its
// program's standard link.Link image in the timing model.
func (w *serviceMix) finish(ctx context.Context) (*finishResult, error) {
	after, err := w.cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	fin := &finishResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	w.trafficLayer(after, fin.layer)

	// Uploads: served image == local cold link of the same modules.
	lib := w.bases[0].objs[w.bases[0].mods:]
	var uploads []served
	for _, sv := range w.lastJob {
		if sv.so.catalog < 0 {
			uploads = append(uploads, sv)
		}
	}
	var mu sync.Mutex
	err = parallel(len(uploads), func(i int) error {
		sv := uploads[i]
		mods, err := w.upload(sv.so.write)
		if err != nil {
			return err
		}
		prog := &program{name: fmt.Sprintf("upload%d", sv.so.write), mods: len(mods)}
		for _, data := range mods {
			obj, err := objfile.Read(bytes.NewReader(data))
			if err != nil {
				return err
			}
			prog.objs = append(prog.objs, obj)
		}
		prog.objs = append(prog.objs, lib...)
		if _, err := w.sameAsCold(ctx, &point{prog: prog, opt: sv.so.opt}, sv.id); err != nil {
			logf("%s/%s: %v", prog.name, sv.so.opt, err)
			mu.Lock()
			fin.failed++
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Catalog: the same check, then the exact counts and a timing-model run
	// of every image against its program's standard link.Link image.
	images := make([]*objfile.Image, len(w.points))
	fin.prints = make([]pointPrint, len(w.points))
	for i, pt := range w.points {
		res, err := w.sameAsCold(ctx, pt, w.lastJob[pt.name()].id)
		if err != nil {
			logf("%s: %v", pt.name(), err)
			fin.failed++
			continue
		}
		data, err := imageBytes(res.Image)
		if err != nil {
			return nil, err
		}
		images[i] = res.Image
		fin.prints[i] = pointPrint{Point: pt.name(), ImageSHA: imageSHA(data),
			TextBytes: textBytes(res.Image), Stats: *res.Stats}
	}
	refs := map[*program]*sim.Result{}
	for _, pt := range w.points {
		if refs[pt.prog] == nil {
			if refs[pt.prog], err = reference(pt.prog, sim.DefaultConfig()); err != nil {
				return nil, err
			}
		}
	}
	ratios := make([]float64, len(w.points))
	err = parallel(len(w.points), func(i int) error {
		if images[i] == nil {
			return nil // its image check already failed
		}
		got, err := sim.Run(images[i], sim.DefaultConfig())
		if err != nil {
			return fmt.Errorf("%s: %w", w.points[i].name(), err)
		}
		want := refs[w.points[i].prog]
		if err := sameRun(got, want); err != nil {
			logf("%s: %v", w.points[i].name(), err)
			mu.Lock()
			fin.failed++
			mu.Unlock()
			return nil
		}
		fin.prints[i].SimCycles = got.Stats.Cycles
		fin.prints[i].SimInsts = got.Stats.Instructions
		fin.prints[i].SimIMiss = got.Stats.ICacheMisses
		ratios[i] = float64(got.Stats.Cycles) / float64(want.Stats.Cycles)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range fin.prints {
		fin.e2e["text_bytes"] += float64(p.TextBytes)
	}
	fin.e2e["sim_cycles_ratio"] = geomean(ratios)
	statsLayer(fin.prints, fin.layer)
	return fin, nil
}

// sameAsCold fetches the image job id served and compares it with a local
// cold link of the point.
func (w *serviceMix) sameAsCold(ctx context.Context, pt *point, id string) (*om.Result, error) {
	served, err := w.cl.Image(ctx, id)
	if err != nil {
		return nil, err
	}
	res, err := pt.link(ctx)
	if err != nil {
		return nil, err
	}
	cold, err := imageBytes(res.Image)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(served, cold) {
		return nil, fmt.Errorf("served image (job %s) differs from a local cold link", id)
	}
	return res, nil
}

// trafficLayer records the window's traffic shares and stage-cache counts,
// each with its base.
func (w *serviceMix) trafficLayer(after *omd.MetricsSnapshot, m map[string]float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	jobs := float64(w.jobs)
	m["omd.jobs"] = jobs
	m["omd.rejected"] = float64(w.rejected)
	if jobs > 0 {
		m["omd.memo_hit_frac"] = float64(w.traffic["memo"]) / jobs
		m["omd.coalesced_frac"] = float64(w.traffic["coalesced"]) / jobs
		m["omd.image_hit_frac"] = float64(w.traffic["image"]) / jobs
		m["omd.fresh_frac"] = float64(w.traffic["fresh"]) / jobs
		m["omd.write_frac"] = float64(w.writes) / jobs
	}
	if w.execN > 0 {
		m["omd.exec_time"] = ms(w.execSum) / float64(w.execN)
	}
	delta := func(name string) float64 {
		return float64(after.Counter(name) - w.before.Counter(name))
	}
	stage := func(prefix, stageName string) {
		hits, misses := delta("stage/"+stageName+"/hits"), delta("stage/"+stageName+"/misses")
		m[prefix+"_lookups"] = hits + misses
		if hits+misses > 0 {
			m[prefix+"_hit_frac"] = hits / (hits + misses)
		}
		m[prefix+"_evictions"] = delta("stage/" + stageName + "/evictions")
	}
	stage("buildcache.program", "program")
	stage("om.memo.lift", "lift")
	stage("om.memo.pass", "pass")
	ih := float64(after.Cache.ImageHits - w.before.Cache.ImageHits)
	im := float64(after.Cache.ImageMisses - w.before.Cache.ImageMisses)
	m["buildcache.image_lookups"] = ih + im
	if ih+im > 0 {
		m["buildcache.image_hit_frac"] = ih / (ih + im)
	}
}

func (w *serviceMix) close() {
	if w.hs != nil {
		w.hs.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
}

// typicalPrograms compiles 3n/2 seeded progen programs at scale and keeps
// the n whose own modules' serialized size is closest to their median.
func typicalPrograms(seed int64, scale, n int) ([]*program, error) {
	var cands []*program
	for i := 0; i < n*3/2; i++ {
		prog, err := progenProgram(seed, i, scale)
		if err != nil {
			return nil, err
		}
		cands = append(cands, prog)
	}
	size := func(p *program) int {
		total := 0
		for _, data := range p.raw[:p.mods] {
			total += len(data)
		}
		return total
	}
	sort.SliceStable(cands, func(i, j int) bool { return size(cands[i]) < size(cands[j]) })
	median := size(cands[len(cands)/2])
	dist := func(p *program) int { return max(size(p)-median, median-size(p)) }
	sort.SliceStable(cands, func(i, j int) bool { return dist(cands[i]) < dist(cands[j]) })
	return cands[:n], nil
}
