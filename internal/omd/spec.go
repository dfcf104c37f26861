// Package omd is the link-time optimization service: a resident daemon
// that accepts serialized link jobs over HTTP/JSON, schedules them on a
// bounded worker pool behind an explicit admission queue, coalesces
// identical in-flight requests into a single execution, and keeps the
// build cache warm across requests — the WHOPR-shaped answer to running
// whole-program optimization repeatedly over the same inputs.
//
// A job is an omd-job/v2 document (JobSpec): the program to link (a named
// benchmark of the suite, or uploaded object modules), the resolved OM
// option set in its canonical om-options/v1 form, an optional om-profile/v1
// document for profile-guided layout, the check level the link must pass,
// and an optional simulation of the linked image. The spec maps one-to-one
// onto om.Run options, so a remote job and a local cmd/om invocation of the
// same inputs produce byte-identical images. The server's coalescing key is
// a content hash over everything that determines the result; the build
// cache's image store is keyed on the narrower set that determines the
// image (program, options, profile).
package omd

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"time"

	"repro/internal/buildcache"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/profile"
	benchspec "repro/internal/spec"
	"repro/internal/verify"
)

// SpecVersion tags the job document format; submissions carrying any other
// version are rejected before admission.
const SpecVersion = "omd-job/v2"

// JobSpec is the serializable description of one link job. Exactly one of
// Benchmark and Objects must be set.
type JobSpec struct {
	// Version must be SpecVersion.
	Version string `json:"version"`
	// Benchmark names a program of the built-in suite (spec.ByName).
	Benchmark string `json:"benchmark,omitempty"`
	// BuildMode selects how a benchmark's sources are compiled:
	// "compile-each" (default) or "compile-all".
	BuildMode string `json:"build_mode,omitempty"`
	// Objects are serialized object modules (objfile format) uploaded by
	// the client, as an alternative to a named benchmark.
	Objects [][]byte `json:"objects,omitempty"`
	// NoStdlib skips linking the runtime library (uploaded objects that
	// already include it).
	NoStdlib bool `json:"no_stdlib,omitempty"`
	// Options is the OM option set in canonical om-options/v1 form
	// (om.MarshalOptions); nil selects the defaults (OM-full).
	Options json.RawMessage `json:"options,omitempty"`
	// Profile is an optional om-profile/v1 document driving
	// profile-guided procedure layout.
	Profile json.RawMessage `json:"profile,omitempty"`
	// Simulate runs the linked image in the timing simulator and returns
	// dynamic statistics with the result.
	Simulate bool `json:"simulate,omitempty"`
	// Check is the level the link must prove itself at: "off" (or empty),
	// "static" (dataflow analysis of the lifted program, the optimized
	// program and the image) or "full" (static plus translation validation
	// of the decision journal). Any error finding or failed verdict fails
	// the job; the om-check/v1 document is served at GET /jobs/{id}/check.
	// A checked job always executes: no cache retains the symbolic program
	// or the journal the check needs.
	Check string `json:"check,omitempty"`
	// MaxInstructions caps a simulation (0 = server default).
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
	// TimeoutMS overrides the server's per-job deadline (capped by it).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// resolved is a validated JobSpec with every serialized field decoded and
// the coalescing key computed. Uploaded object modules are deliberately NOT
// decoded here: the warm path must answer a repeat submission from the
// resident decoded-program cache without parsing a single module, so the
// keys hash the raw bytes and decoding happens on the execution cold path
// (where a malformed module fails the job rather than the submission).
type resolved struct {
	spec     JobSpec
	canonOpt []byte      // canonical om-options/v1 bytes
	opts     []om.Option // decoded option list (level/sched/ablation/trace/…)
	traced   bool        // options request a decision journal
	check    verify.CheckLevel
	prof     *profile.Profile
	bench    benchspec.Benchmark // benchmark jobs
	eachMode bool                // compile-each (benchmark jobs)
	key      string
	// progKey identifies the merged program independent of options: the
	// program inputs (raw uploaded bytes, or benchmark sources + build
	// mode) plus stdlib inclusion. It keys the decoded-program cache.
	progKey string
}

// Resolve validates the spec, decodes its serialized parts, and derives the
// job's content-hash key. The key covers everything that determines the
// result — sources or object bytes, the canonical option form, the
// profile's content hash, stdlib inclusion, and the simulation request — so
// two jobs with equal keys are interchangeable and safe to coalesce.
func (js *JobSpec) resolve() (*resolved, error) {
	if js.Version != SpecVersion {
		return nil, versionError(js.Version)
	}
	if (js.Benchmark == "") == (len(js.Objects) == 0) {
		return nil, fmt.Errorf("omd: exactly one of benchmark and objects must be set")
	}
	if js.TimeoutMS < 0 {
		return nil, fmt.Errorf("omd: negative timeout_ms")
	}
	r := &resolved{spec: *js, eachMode: true}
	var err error
	if r.check, err = verify.ParseCheckLevel(js.Check); err != nil {
		return nil, fmt.Errorf("omd: %w", err)
	}

	optDoc := js.Options
	if optDoc == nil {
		d, err := om.MarshalOptions()
		if err != nil {
			return nil, err
		}
		optDoc = d
	}
	opts, err := om.UnmarshalOptions(optDoc)
	if err != nil {
		return nil, err
	}
	// Re-marshal so the key sees one canonical byte form regardless of the
	// client's whitespace or field order.
	canon, err := om.MarshalOptions(opts...)
	if err != nil {
		return nil, err
	}
	r.canonOpt, r.opts = canon, opts
	// The canonical form is pinned by om's golden test, so probing one
	// field of it is stable.
	var probe struct {
		Trace bool `json:"trace"`
	}
	if err := json.Unmarshal(canon, &probe); err != nil {
		return nil, err
	}
	r.traced = probe.Trace

	if js.Profile != nil {
		p, err := profile.Read(bytes.NewReader(js.Profile))
		if err != nil {
			return nil, fmt.Errorf("omd: profile: %w", err)
		}
		r.prof = p
	}

	if js.Benchmark != "" {
		b, ok := benchspec.ByName(js.Benchmark)
		if !ok {
			return nil, fmt.Errorf("omd: unknown benchmark %q", js.Benchmark)
		}
		r.bench = b
		switch js.BuildMode {
		case "", "compile-each":
			r.eachMode = true
		case "compile-all":
			r.eachMode = false
		default:
			return nil, fmt.Errorf("omd: unknown build_mode %q", js.BuildMode)
		}
	} else {
		if js.BuildMode != "" {
			return nil, fmt.Errorf("omd: build_mode applies only to benchmark jobs")
		}
		for i, data := range js.Objects {
			if len(data) == 0 {
				return nil, fmt.Errorf("omd: object %d is empty", i)
			}
		}
	}
	if err := r.computeKey(); err != nil {
		return nil, err
	}
	return r, nil
}

// versionError rejects a job document of another version.
func versionError(v string) error {
	return fmt.Errorf("omd: job version %q, want %q (v2 replaced verify and lint with check)", v, SpecVersion)
}

// variant is the non-program half of the coalescing key: the canonical
// option form plus every request knob that changes the result.
func (r *resolved) variant() string {
	return fmt.Sprintf("omd/%s/nostdlib=%v/sim=%v/maxinst=%d/check=%s",
		r.canonOpt, r.spec.NoStdlib, r.spec.Simulate, r.spec.MaxInstructions, r.check)
}

// profileHash is the profile's content hash, or "" without a profile.
func (r *resolved) profileHash() string {
	if r.prof == nil {
		return ""
	}
	return r.prof.Hash()
}

// imageKey is the image's identity in the build cache: the program
// (progKey), the canonical option form and the profile's content hash.
// Unlike the coalescing key it leaves out simulation, the instruction cap
// and the check level, which change a job's result but never its image.
// Execution computes it, so a memo-hit submission never pays for it.
func (r *resolved) imageKey() string {
	h := sha256.New()
	writeStr(h, SpecVersion+"/image")
	writeStr(h, r.progKey)
	writeStr(h, string(r.canonOpt))
	writeStr(h, r.profileHash())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// writeStr feeds a length-prefixed string to a key hash.
func writeStr(h hash.Hash, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

func (r *resolved) computeKey() error {
	profHash := r.profileHash()
	if r.spec.Benchmark == "" {
		// The raw uploaded bytes are the objfile serialization, so this key
		// equals the decoded-object ImageKey without parsing anything.
		r.key = buildcache.RawImageKey(r.spec.Objects, r.variant(), profHash)
		r.progKey = rawProgramKey(r.spec.Objects, r.spec.NoStdlib)
		return nil
	}
	// Benchmark jobs hash the sources themselves, not just the name, so
	// the key stays content-addressed across daemon versions that ship
	// different generated suites.
	h := sha256.New()
	writeStr(h, SpecVersion+"/bench")
	writeStr(h, r.bench.Name)
	writeStr(h, fmt.Sprint(r.eachMode))
	for _, m := range r.bench.Modules {
		writeStr(h, m.Name)
		writeStr(h, m.Text)
	}
	writeStr(h, r.variant())
	writeStr(h, profHash)
	r.key = fmt.Sprintf("%x", h.Sum(nil))

	hp := sha256.New()
	writeStr(hp, SpecVersion+"/program/bench")
	writeStr(hp, r.bench.Name)
	writeStr(hp, fmt.Sprint(r.eachMode))
	for _, m := range r.bench.Modules {
		writeStr(hp, m.Name)
		writeStr(hp, m.Text)
	}
	writeStr(hp, fmt.Sprint(r.spec.NoStdlib))
	r.progKey = fmt.Sprintf("%x", hp.Sum(nil))
	return nil
}

// rawProgramKey is the options-independent program identity of an uploaded
// job: the raw module bytes plus stdlib inclusion. The runtime library is
// resident per server process, so its content needs no hashing here.
func rawProgramKey(raw [][]byte, noStdlib bool) string {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(raw)))
	h.Write(n[:])
	for _, data := range raw {
		binary.LittleEndian.PutUint64(n[:], uint64(len(data)))
		h.Write(n[:])
		h.Write(data)
	}
	binary.LittleEndian.PutUint64(n[:], uint64(len(SpecVersion)))
	h.Write(n[:])
	h.Write([]byte(SpecVersion))
	if noStdlib {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// decodeObjects parses the uploaded modules. Only the execution cold path
// calls it: a warm job is answered from the decoded-program cache without
// touching the bytes again.
func (r *resolved) decodeObjects() ([]*objfile.Object, error) {
	objs := make([]*objfile.Object, 0, len(r.spec.Objects))
	for i, data := range r.spec.Objects {
		obj, err := objfile.Read(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("omd: object %d: %w", i, err)
		}
		objs = append(objs, obj)
	}
	return objs, nil
}

// deadline returns the job's deadline budget under the server cap.
func (r *resolved) deadline(serverCap time.Duration) time.Duration {
	if r.spec.TimeoutMS > 0 {
		if d := time.Duration(r.spec.TimeoutMS) * time.Millisecond; d < serverCap {
			return d
		}
	}
	return serverCap
}

// JobState is a job's lifecycle position.
type JobState string

const (
	// JobQueued: admitted, waiting for (or coalesced onto) an execution.
	JobQueued JobState = "queued"
	// JobRunning: its flight holds a worker.
	JobRunning JobState = "running"
	// JobDone: result available.
	JobDone JobState = "done"
	// JobFailed: execution failed (the error string says why; a canceled
	// or deadline-exceeded job lands here too).
	JobFailed JobState = "failed"
)

// SimStats is the dynamic half of a job result.
type SimStats struct {
	Exit         int64   `json:"exit"`
	Output       []int64 `json:"output"`
	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	ICacheMisses uint64  `json:"icache_misses"`
	DCacheMisses uint64  `json:"dcache_misses"`
}

// JobStatus is the wire form of one job's state, returned by submit, poll,
// and list.
type JobStatus struct {
	ID    string   `json:"id"`
	Key   string   `json:"key"`
	State JobState `json:"state"`
	// Coalesced: this job attached to an execution another job started.
	Coalesced bool `json:"coalesced,omitempty"`
	// MemoHit: served instantly from a completed result with the same key.
	MemoHit bool `json:"memo_hit,omitempty"`
	// ImageCacheHit: the image came from the persistent build cache
	// (stats/journal are absent — they exist only on fresh runs).
	ImageCacheHit bool       `json:"image_cache_hit,omitempty"`
	Error         string     `json:"error,omitempty"`
	SubmittedAt   time.Time  `json:"submitted_at"`
	StartedAt     *time.Time `json:"started_at,omitempty"`
	FinishedAt    *time.Time `json:"finished_at,omitempty"`
	Stats         *om.Stats  `json:"stats,omitempty"`
	Sim           *SimStats  `json:"sim,omitempty"`
	ImageBytes    int        `json:"image_bytes,omitempty"`
	JournalEvents int        `json:"journal_events,omitempty"`
	// Check is the level the result was checked at ("static" or "full";
	// empty when unchecked), and CheckSites totals the check sites and
	// validated journal events of its om-check/v1 document, served at GET
	// /jobs/{id}/check. A job whose check fails never reaches JobDone.
	Check      string `json:"check,omitempty"`
	CheckSites uint64 `json:"check_sites,omitempty"`
	// TraceID correlates this job with GET /jobs/{id}/trace, the flight
	// recorder, and the server's structured logs.
	TraceID string `json:"trace_id,omitempty"`
	// QueueWait and Exec are the trace-derived phase durations: admission
	// to worker pickup, and pickup to finish. Both are zero until the job
	// reaches a terminal state (and stay zero on a memo hit, which never
	// queues or executes).
	QueueWait time.Duration `json:"queue_wait_ns,omitempty"`
	Exec      time.Duration `json:"exec_ns,omitempty"`
}
