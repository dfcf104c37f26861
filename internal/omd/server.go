package omd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildcache"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/om"
	"repro/internal/rtlib"
	"repro/internal/sim"
	"repro/internal/tcc"
	"repro/internal/verify"
)

// Config sizes the service.
type Config struct {
	// Workers bounds concurrently executing jobs. <= 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds admitted-but-unstarted executions; a submission
	// that would exceed it is rejected with 429 + Retry-After. <= 0
	// selects 64. Coalesced duplicates never occupy a slot — only
	// distinct in-flight keys do.
	QueueDepth int
	// JobTimeout caps every job's queue-wait + execution time (a job may
	// request less via TimeoutMS). <= 0 selects 5 minutes.
	JobTimeout time.Duration
	// CheckSample, when > 0, shadow-checks every Nth fresh execution of an
	// unchecked job at the full level. A shadow failure logs and bumps
	// omd/check-shadow-failures but never fails the job — only jobs whose
	// spec sets a check level fail on a bad check. 0 disables sampling.
	CheckSample int
	// Cache keeps compiled objects across jobs and, with a directory,
	// compiled objects and linked images across restarts. Nil runs
	// uncached.
	Cache *buildcache.Cache
	// Metrics receives the service's counters, gauges, and latency
	// histograms; nil creates a private registry (it still backs
	// /metrics).
	Metrics *obs.Registry
	// SlowJob, when > 0, logs the full span tree of any job whose total
	// latency (admission to finish) reaches it, at Warn level on Slog.
	SlowJob time.Duration
	// Slog receives structured job-lifecycle records, every one carrying
	// the job's trace id so log lines, traces, and API results correlate;
	// nil discards them.
	Slog *slog.Logger
	// Clock injects the time source for job timestamps and trace spans;
	// nil selects time.Now. Tests use a stepped fake for deterministic span
	// durations.
	Clock func() time.Time
}

// TraceHeader is the HTTP header that propagates a client-assigned trace id
// into the job's span tree; absent, the server assigns one at admission.
const TraceHeader = "Om-Trace-Id"

// flight is one admitted execution. Every job with the same key attaches
// to the same flight (singleflight): N identical submissions run one link
// and share the result. refs counts parties that still await the outcome;
// when a waiting client disconnects it drops its ref, and a flight nobody
// awaits cancels itself — cancellation reaches om.Run and sim.RunContext
// through the flight context.
type flight struct {
	key    string
	run    *resolved
	ctx    context.Context
	cancel context.CancelFunc
	jobs   []*jobRecord // guarded by Server.mu
	refs   int          // guarded by Server.mu
	done   chan struct{}
	res    *result
	err    error

	// exec is the execution span, opened on the lead job's trace when a
	// worker picks the flight up. Coalesced jobs share the execution; at
	// completion its SpanDoc is grafted into their traces with a
	// shared="flight" attribute so every job's trace shows where its time
	// went without double-owning the span.
	exec *obs.Span
}

// result is a completed execution's payload. The done job records that
// hold it own it; the memo and the image index only point at it.
type result struct {
	image         []byte
	stats         *om.Stats
	journal       *obs.JournalDoc
	check         *verify.CheckDoc
	sim           *SimStats
	imageCacheHit bool
	// imageKey is the image's key in the image index, "" for a traced or
	// checked job, whose image the index never serves.
	imageKey string
}

// jobRecord is the server-side state of one submitted job.
type jobRecord struct {
	id        string
	key       string
	state     JobState
	coalesced bool
	memoHit   bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	res       *result
	errMsg    string
	fl        *flight // nil once terminal

	// trace is the job's live span tree, rooted at request receipt, and
	// wait its open queue-wait (or attached-wait) span. traceDoc is the
	// immutable snapshot taken when the job reaches a terminal state, which
	// GET /debug/flights lists; taking it drops trace and wait, so a
	// terminal record holds one copy of its spans. queueWait/exec are the
	// derived phase durations surfaced in JobStatus.
	traceID   string
	trace     *obs.Trace
	wait      *obs.Span
	traceDoc  *obs.TraceDoc
	queueWait time.Duration
	exec      time.Duration
}

// Server owns the admission queue, the worker pool, and the job store. It
// serves the HTTP API via Handler.
//
// The job store (jobs, order) is the only in-memory owner of finished
// work: every record keeps its result and its trace document. The memo,
// the image index and GET /debug/flights all read what retained records
// hold, so a bound on the store bounds them too.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	cache   *buildcache.Cache
	slog    *slog.Logger
	now     func() time.Time
	started time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *flight
	wg         sync.WaitGroup

	mu       sync.Mutex
	draining bool
	running  int // flights currently executing on workers
	flights  map[string]*flight
	jobs     map[string]*jobRecord
	order    []*jobRecord // submission order
	nextID   int
	// memo maps a job key to the result its done records hold, and images
	// an image key to the image such a result holds.
	memo   map[string]*result
	images map[string][]byte

	// execGate, when set (tests only), runs at the top of every execution
	// and may block to create controlled congestion.
	execGate func(key string)

	// checkSeq counts fresh executions for CheckSample's every-Nth
	// shadow-check draw.
	checkSeq atomic.Uint64

	libOnce sync.Once
	lib     []*objfile.Object
	libErr  error
}

// NewServer builds the service and starts its worker pool. Stop it with
// Drain (graceful) or Close (immediate).
func NewServer(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 5 * time.Minute
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	lg := cfg.Slog
	if lg == nil {
		lg = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		cache:      cfg.Cache,
		slog:       lg,
		now:        now,
		started:    now(),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *flight, cfg.QueueDepth),
		flights:    make(map[string]*flight),
		jobs:       make(map[string]*jobRecord),
		memo:       make(map[string]*result),
		images:     make(map[string][]byte),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// libObjects compiles the runtime library at most once per server, through
// the build cache when one is configured.
func (s *Server) libObjects() ([]*objfile.Object, error) {
	s.libOnce.Do(func() {
		if s.cache != nil {
			s.lib, s.libErr = rtlib.ObjectsVia(s.cache.Compile, tcc.DefaultOptions())
			return
		}
		s.lib, s.libErr = rtlib.StandardObjects()
	})
	return s.lib, s.libErr
}

// errQueueFull is the admission-queue overflow signal (HTTP 429).
var errQueueFull = errors.New("omd: admission queue full")

// errDraining rejects submissions during shutdown (HTTP 503).
var errDraining = errors.New("omd: server is draining")

// submit admits one job: memo hit, coalesce onto an in-flight execution,
// or enqueue a new flight. wait marks the submitter as a live waiter whose
// disconnect may cancel an otherwise-unwatched flight; async submissions
// hold their reference to completion.
//
// traceID names the job's span tree ("" lets the server assign one);
// reqStart backdates the trace root to request receipt so the admission
// span covers decode + resolve work done before the lock (zero selects the
// submission instant).
func (s *Server) submit(rs *resolved, wait bool, traceID string, reqStart time.Time) (*jobRecord, *flight, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.reg.Counter("omd/rejected-draining").Add(1)
		return nil, nil, errDraining
	}
	s.reg.Counter("omd/submitted").Add(1)
	s.nextID++
	now := s.now()
	if reqStart.IsZero() {
		reqStart = now
	}
	rec := &jobRecord{
		id:        fmt.Sprintf("j%d", s.nextID),
		key:       rs.key,
		state:     JobQueued,
		submitted: now,
	}
	if traceID == "" {
		traceID = "t-" + rec.id
	}
	rec.traceID = traceID
	rec.trace = obs.NewTrace(traceID, "job", reqStart, s.now)
	rec.trace.Root().SetAttr("job", rec.id)
	admission := rec.trace.Root().ChildAt("admission", reqStart)

	if res, ok := s.memo[rs.key]; ok {
		rec.state, rec.res, rec.memoHit = JobDone, res, true
		rec.started, rec.finished = rec.submitted, rec.submitted
		s.reg.Counter("omd/memo-hits").Add(1)
		admission.SetAttr("outcome", "memo-hit")
		admission.End()
		// A fresh clock reading: the root must close at or after the
		// admission span it contains.
		s.finishTrace(rec, s.now())
		s.slog.Info("omd job done",
			"trace", rec.traceID, "job", rec.id,
			"state", string(rec.state), "memo_hit", true)
		s.storeJob(rec)
		return rec, nil, nil
	}
	if f, ok := s.flights[rs.key]; ok {
		rec.coalesced, rec.fl = true, f
		admission.SetAttr("outcome", "coalesced")
		admission.End()
		rec.wait = rec.trace.Root().Child("attached-wait")
		if f.jobs[0].state == JobRunning {
			rec.state = JobRunning
			rec.started = now
		}
		f.jobs = append(f.jobs, rec)
		f.refs++
		s.reg.Counter("omd/coalesce-hits").Add(1)
		s.storeJob(rec)
		return rec, f, nil
	}

	fctx, cancel := context.WithTimeout(s.baseCtx, rs.deadline(s.cfg.JobTimeout))
	f := &flight{
		key: rs.key, run: rs, ctx: fctx, cancel: cancel,
		jobs: []*jobRecord{rec}, refs: 1, done: make(chan struct{}),
	}
	rec.fl = f
	select {
	case s.queue <- f:
		s.flights[rs.key] = f
		s.reg.SetGauge("omd/queue-depth", float64(len(s.queue)))
		admission.SetAttr("outcome", "admitted")
		admission.End()
		rec.wait = rec.trace.Root().Child("queue-wait")
		s.storeJob(rec)
		return rec, f, nil
	default:
		cancel()
		s.reg.Counter("omd/rejected-queue-full").Add(1)
		return nil, nil, errQueueFull
	}
}

// finishTrace closes a terminal job's span tree, snapshots it, derives the
// phase durations surfaced in JobStatus, and drops the live tree the
// document now stands for. Callers hold mu; now is the terminal instant.
func (s *Server) finishTrace(rec *jobRecord, now time.Time) {
	if rec.trace == nil || rec.traceDoc != nil {
		return
	}
	rec.wait.EndAt(now)
	root := rec.trace.Root()
	root.SetAttr("state", string(rec.state))
	root.EndAt(now)
	rec.traceDoc = rec.trace.Doc()
	if !rec.started.IsZero() {
		rec.queueWait = rec.started.Sub(rec.submitted)
		if !rec.finished.IsZero() {
			rec.exec = rec.finished.Sub(rec.started)
		}
	}
	rec.trace, rec.wait = nil, nil
}

func (s *Server) storeJob(rec *jobRecord) {
	s.jobs[rec.id] = rec
	s.order = append(s.order, rec)
}

// release drops a waiter's interest in a flight. The last leaving waiter
// cancels the flight: the cancellation propagates through om.Run and
// sim.RunContext, so an execution nobody is waiting for stops burning a
// worker mid-simulation rather than running to completion.
func (s *Server) release(f *flight) {
	s.mu.Lock()
	f.refs--
	abandon := f.refs <= 0
	s.mu.Unlock()
	if abandon {
		s.reg.Counter("omd/flights-abandoned").Add(1)
		f.cancel()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for f := range s.queue {
		s.runFlight(f)
	}
}

func (s *Server) runFlight(f *flight) {
	if gate := s.execGate; gate != nil {
		gate(f.key)
	}
	// Read the pickup instant under mu: submit holds mu from queueing the
	// flight until it has opened the lead's queue-wait span, so the wait
	// can never end before it began.
	s.mu.Lock()
	now := s.now()
	s.running++
	s.reg.SetGauge("omd/queue-depth", float64(len(s.queue)))
	s.reg.SetGauge("omd/workers-busy", float64(s.running))
	for _, rec := range f.jobs {
		rec.state = JobRunning
		rec.started = now
	}
	// The lead job's trace owns the execution span; its queue wait ends at
	// pickup. Coalesced jobs keep their attached-wait open to completion.
	lead := f.jobs[0]
	lead.wait.EndAt(now)
	f.exec = lead.trace.Root().ChildAt("execute", now)
	s.mu.Unlock()

	s.reg.Counter("omd/jobs-executed").Add(1)
	jobDone := obs.StartSpan(s.reg.Timer("omd/job"))
	res, err := s.executeRecovered(f.ctx, f.run, f.exec)
	jobDone()
	f.cancel() // release the deadline timer

	now = s.now()
	f.exec.EndAt(now)
	s.mu.Lock()
	s.running--
	s.reg.SetGauge("omd/workers-busy", float64(s.running))
	delete(s.flights, f.key)
	if err == nil {
		s.retain(f.key, res)
	}
	execDoc := f.exec.Doc()
	type doneLog struct {
		rec   *jobRecord
		doc   *obs.TraceDoc
		total time.Duration
	}
	logs := make([]doneLog, 0, len(f.jobs))
	for i, rec := range f.jobs {
		rec.finished = now
		rec.fl = nil
		if err != nil {
			rec.state = JobFailed
			rec.errMsg = err.Error()
		} else {
			rec.state = JobDone
			rec.res = res
		}
		s.finishTrace(rec, now)
		if i > 0 && rec.traceDoc != nil && execDoc != nil {
			// Graft a shallow copy of the shared execution into the
			// coalesced job's document so its trace shows where the time
			// went; the marker keeps it distinguishable from spans the job
			// owns (it may predate the job's own admission).
			shared := *execDoc
			shared.Attrs = sharedAttrs(execDoc.Attrs)
			rec.traceDoc.Root.Children = append(rec.traceDoc.Root.Children, &shared)
		}
		if rec.traceDoc != nil {
			logs = append(logs, doneLog{rec, rec.traceDoc, rec.traceDoc.Root.Duration})
		}
	}
	s.mu.Unlock()
	// Log before releasing the waiters, so a ?wait=1 client that reads the
	// log as soon as its job is done finds the job's records there.
	for _, l := range logs {
		s.logJobDone(l.rec, l.doc, l.total, err)
	}
	f.res, f.err = res, err
	close(f.done)
}

// executeRecovered runs one execution and turns a panic in it into the
// flight's error, so a job that crashes the linker, a check or the
// simulator fails alone instead of taking the daemon down: the error
// carries the panic value, the execution span the stack, and omd/panics
// counts it.
func (s *Server) executeRecovered(ctx context.Context, rs *resolved, sp *obs.Span) (res *result, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.reg.Counter("omd/panics").Add(1)
			sp.SetAttr("panic", fmt.Sprint(v))
			sp.SetAttr("stack", string(debug.Stack()))
			res, err = nil, fmt.Errorf("omd: execution panicked: %v", v)
		}
	}()
	return s.execute(ctx, rs, sp)
}

// sharedAttrs copies a span's attributes and adds the shared-flight marker.
func sharedAttrs(attrs map[string]string) map[string]string {
	out := make(map[string]string, len(attrs)+1)
	for k, v := range attrs {
		out[k] = v
	}
	out["shared"] = "flight"
	return out
}

// logJobDone emits the structured completion record, correlated to the
// job's trace, and the full span tree when the job breaches the slow-job
// threshold.
func (s *Server) logJobDone(rec *jobRecord, doc *obs.TraceDoc, total time.Duration, err error) {
	attrs := []any{
		"trace", doc.TraceID,
		"job", rec.id,
		"state", string(rec.state),
		"total", total,
		"queue_wait", rec.queueWait,
		"exec", rec.exec,
		"coalesced", rec.coalesced,
	}
	if err != nil {
		s.slog.Error("omd job failed", append(attrs, "error", err.Error())...)
	} else {
		s.slog.Info("omd job done", attrs...)
	}
	if s.cfg.SlowJob > 0 && total >= s.cfg.SlowJob {
		s.slog.Warn("omd slow job",
			"trace", doc.TraceID, "job", rec.id,
			"total", total, "threshold", s.cfg.SlowJob,
			"spans", "\n"+doc.Render())
	}
}

// retain indexes a result that done job records now hold: the memo under
// its job key and, for an image the index may serve, the image index under
// its image key. Callers hold mu.
func (s *Server) retain(key string, res *result) {
	s.memo[key] = res
	if res.imageKey != "" {
		s.images[res.imageKey] = res.image
	}
}

// loadProgram compiles or decodes a job's modules, adds the runtime
// library unless the job opts out, and merges them. Every link that misses
// the image cache starts here: no decoded program outlives its job.
func (s *Server) loadProgram(rs *resolved, sp *obs.Span) (*link.Program, error) {
	var objs []*objfile.Object
	var err error
	if rs.spec.Benchmark != "" {
		cs := sp.Child("compile")
		cs.SetAttr("benchmark", rs.spec.Benchmark)
		compileDone := obs.StartSpan(s.reg.Timer("omd/compile"))
		objs, err = s.compileBenchmark(rs)
		compileDone()
		cs.End()
	} else {
		ds := sp.Child("decode-objects")
		objs, err = rs.decodeObjects()
		ds.End()
	}
	if err != nil {
		return nil, err
	}
	if !rs.spec.NoStdlib {
		lib, err := s.libObjects()
		if err != nil {
			return nil, err
		}
		objs = append(append([]*objfile.Object(nil), objs...), lib...)
	}
	ms := sp.Child("merge")
	defer ms.End()
	return link.Merge(objs)
}

// execute runs one link job end to end. A known image (keyed on program,
// options and profile, so a repeat that differs only in simulation finds
// it in the image index, or in the build cache's directory) needs nothing
// resolved at all, and its bytes are served as stored, decoded only to
// simulate. Any other job compiles or decodes its modules, merges them,
// and om.Run lifts the program and runs the passes, layout and emission. A traced or checked job bypasses the image cache — neither
// a journal nor the symbolic program can be reproduced from a cached image.
//
// sp is the execution span on the lead job's trace; every stage becomes a
// child, so the span tree mirrors the short-circuit (a cached image shows
// only the lookup).
func (s *Server) execute(ctx context.Context, rs *resolved, sp *obs.Span) (*result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A checked job needs the symbolic program and the journal of the run
	// that produced its image, so it can never be answered from the image
	// cache (same reason as a traced job). Shadow sampling is drawn here,
	// before the cache lookup would short-circuit, so every Nth fresh
	// execution is checked even when its image could have been served cold.
	chk := &verify.Checker{Level: rs.check}
	shadow := chk.Level == verify.CheckOff && s.cfg.CheckSample > 0 &&
		s.checkSeq.Add(1)%uint64(s.cfg.CheckSample) == 0
	if shadow {
		chk.Level = verify.CheckFull
	}
	// Untraced, unchecked jobs read and write the image cache; a shadow-
	// checked one only writes it.
	imageKey := ""
	if !rs.traced && rs.check == verify.CheckOff {
		imageKey = rs.imageKey()
	}
	if imageKey != "" && !shadow {
		// The image index answers first; the build cache keeps images
		// only in a directory and counts every lookup that reaches it.
		ics := sp.Child("image-cache")
		s.mu.Lock()
		data, ok := s.images[imageKey]
		s.mu.Unlock()
		if ok {
			s.reg.Counter("omd/image-index-hits").Add(1)
		} else {
			data, ok = s.cache.GetImage(imageKey)
		}
		ics.SetAttr("hit", strconv.FormatBool(ok))
		ics.End()
		if ok {
			// The cached bytes are the image; only the simulator needs it
			// decoded.
			res := &result{image: data, imageCacheHit: true, imageKey: imageKey}
			if rs.spec.Simulate {
				im, err := objfile.ReadImage(bytes.NewReader(data))
				if err != nil {
					return nil, err
				}
				if res.sim, err = s.simulate(ctx, im, rs, sp); err != nil {
					return nil, err
				}
			}
			return res, nil
		}
	}

	p, err := s.loadProgram(rs, sp)
	if err != nil {
		return nil, err
	}

	omSpan := sp.Child("om")
	linkDone := obs.StartSpan(s.reg.Timer("omd/link"))
	opts := append(append([]om.Option(nil), rs.opts...),
		om.WithMetrics(s.reg), om.WithSpan(omSpan))
	if rs.prof != nil {
		opts = append(opts, om.WithProfile(rs.prof))
	}
	opts = append(opts, chk.Options()...)
	omres, err := om.Run(ctx, p, opts...)
	linkDone()
	omSpan.End()
	if err != nil {
		return nil, err
	}
	res := &result{stats: omres.Stats, journal: omres.Journal, imageKey: imageKey}
	if chk.Level != verify.CheckOff {
		if res.check, err = s.check(chk, omres, sp, shadow); err != nil {
			return nil, err
		}
	}
	// The image is encoded once; the result and the image index share
	// that one slice.
	res.image = omres.Image.Encode()
	if imageKey != "" {
		if err := s.cache.PutImage(imageKey, res.image); err != nil {
			return nil, err
		}
	}
	if !rs.traced {
		// The journal, if any, was forced for the check only.
		res.journal = nil
	}
	if rs.spec.Simulate {
		if res.sim, err = s.simulate(ctx, omres.Image, rs, sp); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (s *Server) compileBenchmark(rs *resolved) ([]*objfile.Object, error) {
	b := rs.bench
	if rs.eachMode {
		var objs []*objfile.Object
		for _, m := range b.Modules {
			obj, err := s.cache.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			objs = append(objs, obj)
		}
		return objs, nil
	}
	obj, err := s.cache.Compile(b.Name+"_all", b.Modules, tcc.InterprocOptions())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	return []*objfile.Object{obj}, nil
}

func (s *Server) simulate(ctx context.Context, im *objfile.Image, rs *resolved, sp *obs.Span) (*SimStats, error) {
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = 2_000_000_000
	if rs.spec.MaxInstructions > 0 {
		cfg.MaxInstructions = rs.spec.MaxInstructions
	}
	simSpan := sp.Child("sim")
	simDone := obs.StartSpan(s.reg.Timer("omd/sim"))
	out, err := sim.RunContext(ctx, im, cfg)
	simDone()
	simSpan.End()
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	return &SimStats{
		Exit:         out.Exit,
		Output:       out.Output,
		Cycles:       out.Stats.Cycles,
		Instructions: out.Stats.Instructions,
		ICacheMisses: out.Stats.ICacheMisses,
		DCacheMisses: out.Stats.DCacheMisses,
	}, nil
}

// check completes a checked execution's document under one "check" child
// span carrying the level, the mode and the totals. A failed check fails the
// job unless it is a sampled shadow check, which logs and counts instead, so
// background checking never breaks a build that was not asked to prove
// itself; a failed shadow check attaches no document.
func (s *Server) check(chk *verify.Checker, omres *om.Result, sp *obs.Span, shadow bool) (*verify.CheckDoc, error) {
	cs := sp.Child("check")
	defer cs.End()
	mode := "explicit"
	if shadow {
		mode = "shadow"
	}
	cs.SetAttr("level", chk.Level.String())
	cs.SetAttr("mode", mode)
	s.reg.Counter("omd/check-runs").Add(1)
	checkDone := obs.StartSpan(s.reg.Timer("omd/check"))
	doc, err := chk.Finish(omres)
	checkDone()
	if doc != nil {
		cs.SetAttr("checked", strconv.FormatUint(doc.Checked(), 10))
		cs.SetAttr("errors", strconv.FormatUint(doc.Errors(), 10))
		s.reg.Counter("omd/check-checked").Add(doc.Checked())
		s.reg.Counter("omd/check-errors").Add(doc.Errors())
		err = doc.Err()
	}
	if err != nil {
		cs.SetAttr("outcome", "failed")
		if !shadow {
			return nil, fmt.Errorf("omd: %w", err)
		}
		s.reg.Counter("omd/check-shadow-failures").Add(1)
		s.slog.Warn("omd shadow check failed", "err", err.Error())
		return nil, nil
	}
	cs.SetAttr("outcome", "ok")
	return doc, nil
}

// Drain stops admissions and waits for every queued and running job to
// finish; the context bounds the wait, after which in-flight work is
// hard-canceled. Drain is idempotent and safe to call concurrently.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	if first {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	if first {
		s.slog.Info("omd draining", "queued", len(s.queue))
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return fmt.Errorf("omd: drain timed out, in-flight jobs canceled: %w", ctx.Err())
	}
}

// Close hard-stops the server: cancels every flight and reaps the pool.
func (s *Server) Close() {
	s.baseCancel()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = s.Drain(ctx)
}

func (s *Server) status(rec *jobRecord) JobStatus {
	st := JobStatus{
		ID:          rec.id,
		Key:         rec.key,
		State:       rec.state,
		Coalesced:   rec.coalesced,
		MemoHit:     rec.memoHit,
		Error:       rec.errMsg,
		SubmittedAt: rec.submitted,
		TraceID:     rec.traceID,
		QueueWait:   rec.queueWait,
		Exec:        rec.exec,
	}
	if !rec.started.IsZero() {
		t := rec.started
		st.StartedAt = &t
	}
	if !rec.finished.IsZero() {
		t := rec.finished
		st.FinishedAt = &t
	}
	if rec.res != nil {
		st.ImageCacheHit = rec.res.imageCacheHit
		st.Stats = rec.res.stats
		st.Sim = rec.res.sim
		st.ImageBytes = len(rec.res.image)
		if rec.res.journal != nil {
			st.JournalEvents = len(rec.res.journal.Events)
		}
		if d := rec.res.check; d != nil {
			st.Check = d.Level
			st.CheckSites = d.Checked()
		}
	}
	return st
}

// MetricsSnapshot is the /metrics payload: the registry, cache traffic,
// and queue occupancy in one deterministic document.
type MetricsSnapshot struct {
	Metrics []obs.SnapshotEntry `json:"metrics"`
	Cache   buildcache.Stats    `json:"cache"`
	Queue   QueueInfo           `json:"queue"`
}

// QueueInfo describes the admission queue and pool.
type QueueInfo struct {
	Depth    int   `json:"depth"`
	Capacity int   `json:"capacity"`
	Workers  int   `json:"workers"`
	Running  int   `json:"running"`
	Draining bool  `json:"draining"`
	UptimeMS int64 `json:"uptime_ms"`
}

// Counter returns a named counter's value from the snapshot (0 if absent).
func (m *MetricsSnapshot) Counter(name string) uint64 {
	for _, e := range m.Metrics {
		if e.Name == name && e.Kind == "counter" {
			return e.Count
		}
	}
	return 0
}

// Snapshot assembles the /metrics payload. Go runtime health — goroutine
// count, heap in use, cumulative GC pause — is refreshed into the registry
// as gauges on every snapshot, so both the JSON and Prometheus views carry
// it.
func (s *Server) Snapshot() MetricsSnapshot {
	s.recordRuntimeGauges()
	s.mu.Lock()
	draining := s.draining
	running := s.running
	s.mu.Unlock()
	return MetricsSnapshot{
		Metrics: s.reg.Snapshot(),
		Cache:   s.cache.Stats(),
		Queue: QueueInfo{
			Depth:    len(s.queue),
			Capacity: s.cfg.QueueDepth,
			Workers:  s.cfg.Workers,
			Running:  running,
			Draining: draining,
			UptimeMS: s.now().Sub(s.started).Milliseconds(),
		},
	}
}

// recordRuntimeGauges samples the Go runtime into the registry.
func (s *Server) recordRuntimeGauges() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.reg.SetGauge("runtime/goroutines", float64(runtime.NumGoroutine()))
	s.reg.SetGauge("runtime/heap-inuse-bytes", float64(ms.HeapInuse))
	s.reg.SetGauge("runtime/gc-pause-total-ns", float64(ms.PauseTotalNs))
}

// promEntries flattens the full snapshot — registry, cache traffic, queue
// occupancy — into one entry list for Prometheus text exposition.
func (s *Server) promEntries() []obs.SnapshotEntry {
	snap := s.Snapshot()
	c := snap.Cache
	q := snap.Queue
	counter := func(name string, v uint64) obs.SnapshotEntry {
		return obs.SnapshotEntry{Name: name, Kind: "counter", Count: v}
	}
	gauge := func(name string, v float64) obs.SnapshotEntry {
		return obs.SnapshotEntry{Name: name, Kind: "gauge", Gauge: v}
	}
	draining := 0.0
	if q.Draining {
		draining = 1
	}
	entries := append(snap.Metrics,
		counter("buildcache/hits", uint64(c.Hits)),
		counter("buildcache/disk-hits", uint64(c.DiskHits)),
		counter("buildcache/compiles", uint64(c.Misses)),
		counter("buildcache/image-hits", uint64(c.ImageHits)),
		counter("buildcache/image-misses", uint64(c.ImageMisses)),
		gauge("omd/queue-capacity", float64(q.Capacity)),
		gauge("omd/workers", float64(q.Workers)),
		gauge("omd/workers-running", float64(q.Running)),
		gauge("omd/draining", draining),
		gauge("omd/uptime-seconds", float64(q.UptimeMS)/1000),
	)
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Name != entries[j].Name {
			return entries[i].Name < entries[j].Name
		}
		return entries[i].Kind < entries[j].Kind
	})
	return entries
}

// retryAfter estimates how long a rejected client should back off: the
// mean job latency so far, clamped to [1s, 60s].
func (s *Server) retryAfter() int {
	st := s.reg.Timer("omd/job").Stats()
	if st.Count == 0 {
		return 1
	}
	secs := int(st.Sum.Seconds()/float64(st.Count)) + 1
	if secs > 60 {
		secs = 60
	}
	return secs
}

// Connection timeouts of the server HTTPServer builds. A request's headers
// are small, so a client still sending them after readHeaderTimeout is
// holding a connection, not uploading. The body is bounded by maxSubmitBody
// (8 MiB): at minUploadRate (1 Mbit/s) it takes 64 s, so readTimeout
// allows that after the headers. There is no write timeout: a ?wait=1
// submission holds its response open for a whole link plus simulation,
// which JobTimeout bounds instead.
const (
	readHeaderTimeout = 10 * time.Second
	minUploadRate     = 128 << 10 // bytes per second
	readTimeout       = readHeaderTimeout + maxSubmitBody/minUploadRate*time.Second
	idleTimeout       = 2 * time.Minute
)

// HTTPServer returns an http.Server serving Handler on addr with read,
// header and idle timeouts, so a slow or idle client cannot hold a
// connection open without bound.
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// Handler returns the HTTP API:
//
//	GET  /healthz            liveness + drain state
//	GET  /metrics            MetricsSnapshot (registry, cache, queue);
//	                         ?format=prometheus (or Accept: text/plain)
//	                         selects Prometheus text exposition
//	POST /jobs               submit a job: multipart/form-data with a
//	                         "spec" part (the JSON document) and one
//	                         "object" part per uploaded module, or the
//	                         bare document; ?wait=1 blocks until done;
//	                         Om-Trace-Id names the job's trace
//	GET  /jobs               all job statuses, submission order
//	GET  /jobs/{id}          one job's status
//	GET  /jobs/{id}/image    the linked image (octet-stream)
//	GET  /jobs/{id}/journal  the decision journal (om-journal/v1)
//	GET  /jobs/{id}/check    the check document (om-check/v1; checked
//	                         jobs only)
//	GET  /jobs/{id}/trace    the job's span tree (om-trace/v1; live
//	                         snapshot while the job runs)
//	GET  /debug/flights      the traces of the newest terminal jobs,
//	                         newest first in submission order; ?n= (a
//	                         positive count, default 128) caps them
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/image", s.handleImage)
	mux.HandleFunc("GET /jobs/{id}/journal", s.handleJournal)
	mux.HandleFunc("GET /jobs/{id}/check", s.handleCheck)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /debug/flights", s.handleFlights)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	_ = enc.Encode(v)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"status": status})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "prometheus" ||
		(format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain")) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = obs.WritePrometheus(w, s.promEntries())
		return
	}
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	reqStart := s.now()
	js, err := decodeSubmit(r.Header.Get("Content-Type"), r.ContentLength, http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err != nil {
		code := http.StatusBadRequest
		if se := (*submitError)(nil); errors.As(err, &se) {
			code = se.status
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
		return
	}
	rs, err := js.resolve()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	wait := r.URL.Query().Get("wait") == "1"
	rec, f, err := s.submit(rs, wait, cleanTraceID(r.Header.Get(TraceHeader)), reqStart)
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
		return
	case errors.Is(err, errDraining):
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	if !wait || f == nil {
		code := http.StatusAccepted
		if f == nil {
			code = http.StatusOK // memo hit: already done
		}
		writeJSON(w, code, s.snapshotJob(rec.id))
		return
	}
	select {
	case <-f.done:
		writeJSON(w, http.StatusOK, s.snapshotJob(rec.id))
	case <-r.Context().Done():
		// Client disconnected mid-wait: drop our interest; the last
		// departing waiter cancels the execution itself.
		s.release(f)
	}
}

func (s *Server) snapshotJob(id string) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status(s.jobs[id])
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, rec := range s.order {
		out = append(out, s.status(rec))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// jobFor resolves {id} or writes a 404.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *jobRecord {
	s.mu.Lock()
	rec := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if rec == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
	}
	return rec
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if rec := s.jobFor(w, r); rec != nil {
		writeJSON(w, http.StatusOK, s.snapshotJob(rec.id))
	}
}

func (s *Server) handleImage(w http.ResponseWriter, r *http.Request) {
	rec := s.jobFor(w, r)
	if rec == nil {
		return
	}
	s.mu.Lock()
	res := rec.res
	s.mu.Unlock()
	if res == nil {
		writeJSON(w, http.StatusConflict, map[string]string{"error": "job has no result yet"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(res.image)
}

// cleanTraceID restricts a client-supplied trace id to printable ASCII and
// a sane length; anything else falls back to a server-assigned id.
func cleanTraceID(id string) string {
	if len(id) > 128 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if id[i] < '!' || id[i] > '~' {
			return ""
		}
	}
	return id
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec := s.jobFor(w, r)
	if rec == nil {
		return
	}
	s.mu.Lock()
	doc := rec.traceDoc
	tr := rec.trace
	s.mu.Unlock()
	if doc == nil {
		// Not terminal yet: serve a live snapshot of the open tree.
		doc = tr.Doc()
	}
	if doc == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no trace"})
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleFlights lists the trace documents of the newest terminal jobs,
// newest first in submission order: a job still running is skipped, and a
// memo hit, terminal on admission, is listed.
func (s *Server) handleFlights(w http.ResponseWriter, r *http.Request) {
	n := 128
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("omd: n must be a positive integer, got %q", q)})
			return
		}
		n = v
	}
	var out []*obs.TraceDoc
	s.mu.Lock()
	for i := len(s.order) - 1; i >= 0 && len(out) < n; i-- {
		if doc := s.order[i].traceDoc; doc != nil {
			out = append(out, doc)
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	rec := s.jobFor(w, r)
	if rec == nil {
		return
	}
	s.mu.Lock()
	res := rec.res
	s.mu.Unlock()
	if res == nil || res.journal == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no journal (trace not requested or result cached)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteJournal(w, res.journal)
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	rec := s.jobFor(w, r)
	if rec == nil {
		return
	}
	s.mu.Lock()
	res := rec.res
	s.mu.Unlock()
	if res == nil || res.check == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no check document (job not checked)"})
		return
	}
	writeJSON(w, http.StatusOK, res.check)
}
