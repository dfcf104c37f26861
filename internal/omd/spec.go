// Package omd is the link-time optimization service: a resident daemon
// that accepts serialized link jobs over HTTP/JSON, schedules them on a
// bounded worker pool behind an explicit admission queue, coalesces
// identical in-flight requests into a single execution, and keeps the
// build cache warm across requests — the WHOPR-shaped answer to running
// whole-program optimization repeatedly over the same inputs.
//
// A job is an omd-job/v3 document (JobSpec): the program to link (a named
// benchmark of the suite, or uploaded object modules), the resolved OM
// option set in its canonical om-options/v2 form, an optional om-profile/v1
// document for profile-guided layout, the check level the link must pass,
// and an optional simulation of the linked image. Uploaded modules do not
// travel inside the document: POST /jobs is a multipart/form-data body whose
// first part ("spec") is the document and whose later parts ("object") are
// the modules' objfile bytes, in order (see decodeSubmit). The spec maps
// one-to-one onto om.Run options, so a remote job and a local cmd/om
// invocation of the same inputs produce byte-identical images. The server's
// coalescing key is a content hash over everything that determines the
// result; the build cache's image store is keyed on the narrower set that
// determines the image (program, options, profile).
package omd

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/profile"
	benchspec "repro/internal/spec"
	"repro/internal/verify"
)

// SpecVersion tags the job document format; submissions carrying any other
// version are rejected before admission.
const SpecVersion = "omd-job/v3"

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
	// the client, as an alternative to a named benchmark. They are not
	// part of the JSON document: each travels as one raw "object" part of
	// the multipart submission body.
	Objects [][]byte `json:"-"`
	// NoStdlib skips linking the runtime library (uploaded objects that
	// already include it).
	NoStdlib bool `json:"no_stdlib,omitempty"`
	// Options is the OM option set in canonical om-options/v2 form
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
// decoded here: a memo hit or an image-cache hit never needs them parsed,
// so the keys hash the raw bytes and decoding happens when the job links
// (where a malformed module fails the job rather than the submission).
type resolved struct {
	spec JobSpec
	optionSet
	check    verify.CheckLevel
	prof     *profile.Profile
	bench    benchspec.Benchmark // benchmark jobs
	eachMode bool                // compile-each (benchmark jobs)
	// key is the coalescing and result-memo key: progKey, the variant and
	// the profile hash.
	key string
	// progKey identifies the merged program independent of options: the
	// program inputs (raw uploaded bytes, or benchmark sources + build
	// mode) plus stdlib inclusion. The image key folds it in.
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

	if js.Options == nil {
		r.optionSet, err = defaultOptions()
	} else {
		r.optionSet, err = parseOptions(js.Options)
	}
	if err != nil {
		return nil, err
	}

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
	r.computeKey()
	return r, nil
}

// optionSet is a job's decoded option list with its canonical form.
type optionSet struct {
	canonOpt []byte      // canonical om-options/v2 bytes
	opts     []om.Option // decoded option list (level/sched/ablation/trace/…)
	traced   bool        // options request a decision journal
}

// parseOptions decodes an om-options/v2 document and re-marshals it, so the
// key sees one canonical byte form regardless of the client's whitespace or
// field order.
func parseOptions(doc []byte) (optionSet, error) {
	opts, err := om.UnmarshalOptions(doc)
	if err != nil {
		return optionSet{}, err
	}
	canon, err := om.MarshalOptions(opts...)
	if err != nil {
		return optionSet{}, err
	}
	return optionSet{canonOpt: canon, opts: slices.Clip(opts), traced: om.TraceRequested(opts...)}, nil
}

// defaultOptions is the option set of a job without options, resolved once
// per process. Every job shares its slices, which nothing writes.
var defaultOptions = sync.OnceValues(func() (optionSet, error) {
	doc, err := om.MarshalOptions()
	if err != nil {
		return optionSet{}, err
	}
	return parseOptions(doc)
})

// versionError rejects a job document of another version.
func versionError(v string) error {
	return fmt.Errorf("omd: job version %q, want %q (v3 sends objects as multipart parts, "+
		"not in the document; v2 replaced verify and lint with check)", v, SpecVersion)
}

// Submission body bounds. The largest upload the suite or progen produces
// is a progen 16x program sent with no_stdlib: its 3 modules (about 385 KB
// over the seeds tried, at most 164 KB in one module) plus the runtime
// library's 6 modules (11.5 KB), so 9 object parts and about 400 KB. A
// suite benchmark sent the same way is at most 10 parts and 24 KB.
const (
	// maxSubmitBody is 20x the largest upload, rounded up to a power of
	// two: programs several times larger than any generated one still fit,
	// and the body a submission can make the server hold stays at 8 MiB.
	maxSubmitBody = 8 << 20
	// maxObjectParts is about 25x the most modules an upload has (10): a
	// part costs a header map and a slice however small it is, so the
	// count needs its own bound below the byte bound.
	maxObjectParts = 256
)

// submitError is a POST /jobs body the server refuses before resolving
// the document; status is the HTTP status it answers with.
type submitError struct {
	status int
	err    error
}

func (e *submitError) Error() string { return e.err.Error() }
func (e *submitError) Unwrap() error { return e.err }

func badBody(format string, args ...any) error {
	return &submitError{http.StatusBadRequest, fmt.Errorf(format, args...)}
}

// readError classifies a failed body read: over maxSubmitBody is a 413,
// anything else a malformed body.
func readError(err error) error {
	if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
		return &submitError{http.StatusRequestEntityTooLarge,
			fmt.Errorf("omd: request body over %d bytes", mbe.Limit)}
	}
	return badBody("omd: request body: %v", err)
}

// decodeSubmit reads a POST /jobs body into a JobSpec. A multipart/form-data
// body carries the JSON job document as its first part, named "spec", and
// each uploaded module's objfile bytes as one later part named "object", in
// link order. A body of any other content type is the bare document: the
// spec part of a job with no uploads. declared is the body's declared length
// (-1 when unknown); it only sizes the buffer the objects are read into.
// Every error is a *submitError.
func decodeSubmit(contentType string, declared int64, body io.Reader) (*JobSpec, error) {
	mt, params, err := mime.ParseMediaType(contentType)
	if err != nil || mt != "multipart/form-data" {
		return decodeSpec(body)
	}
	mr := multipart.NewReader(body, params["boundary"])
	arena := make(uploadArena, 0, min(max(declared, 0), arenaPrealloc))
	var js *JobSpec
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, readError(err)
		}
		name := part.FormName()
		switch {
		case js == nil && name != "spec":
			return nil, badBody("omd: first part is %q, want \"spec\"", name)
		case js == nil:
			if js, err = decodeSpec(part); err != nil {
				return nil, err
			}
		case name != "object":
			return nil, badBody("omd: part %q after the spec, want \"object\"", name)
		case len(js.Objects) == maxObjectParts:
			return nil, &submitError{http.StatusRequestEntityTooLarge,
				fmt.Errorf("omd: more than %d object parts", maxObjectParts)}
		default:
			data, err := arena.read(part)
			if err != nil {
				return nil, readError(err)
			}
			if len(data) == 0 {
				return nil, badBody("omd: object part %d is empty", len(js.Objects))
			}
			js.Objects = append(js.Objects, data)
		}
	}
	if js == nil {
		return nil, badBody("omd: no \"spec\" part")
	}
	return js, nil
}

// arenaPrealloc caps the buffer a declared body length reserves before its
// bytes arrive. It holds every suite and progen 1x/4x upload (at most about
// 100 KB) in one allocation; a larger body grows it.
const arenaPrealloc = 256 << 10

// uploadArena is the buffer a submission's object parts are read into, one
// after another. Each object is a slice of it capped at its own length, so
// a later part never writes into an earlier one.
type uploadArena []byte

// read appends r's bytes to the arena and returns them. When the arena
// fills, the part read so far moves to a new buffer of twice the size;
// earlier objects stay where they are.
func (a *uploadArena) read(r io.Reader) ([]byte, error) {
	buf, start := *a, len(*a)
	for {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf)-start, max(2*cap(buf), 4<<10))
			copy(grown, buf[start:])
			buf, start = grown, 0
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			*a = buf
			return buf[start:len(buf):len(buf)], nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeSpec reads one job document, rejecting fields this version does
// not have. A document of another version usually fails on one (v2's
// objects, v1's verify and lint), so a failed decode whose version can
// still be read names the version this server speaks instead.
func decodeSpec(r io.Reader) (*JobSpec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, readError(err)
	}
	js := new(JobSpec)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(js); err != nil {
		var probe struct {
			Version string `json:"version"`
		}
		if json.Unmarshal(data, &probe) == nil && probe.Version != "" && probe.Version != SpecVersion {
			err = versionError(probe.Version)
		}
		return nil, badBody("%v", err)
	}
	return js, nil
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
	h := newKeyHash()
	h.str(SpecVersion + "/image")
	h.str(r.progKey)
	h.bytes(r.canonOpt)
	h.str(r.profileHash())
	return h.hexSum()
}

// keyHash is a SHA-256 key hash fed length-prefixed strings. A string and
// its prefix go through one reused buffer, so feeding one never allocates
// a copy of it.
type keyHash struct {
	hash.Hash
	buf []byte
}

func newKeyHash() *keyHash {
	return &keyHash{Hash: sha256.New(), buf: make([]byte, 0, 256)}
}

// str feeds a length-prefixed string.
func (h *keyHash) str(s string) {
	h.buf = binary.LittleEndian.AppendUint64(h.buf[:0], uint64(len(s)))
	h.buf = append(h.buf, s...)
	h.Write(h.buf)
}

// bytes feeds a length-prefixed byte string, framed like str.
func (h *keyHash) bytes(b []byte) {
	h.buf = binary.LittleEndian.AppendUint64(h.buf[:0], uint64(len(b)))
	h.Write(h.buf)
	h.Write(b)
}

// hexSum returns the hash in hex and resets it for the next key.
func (h *keyHash) hexSum() string {
	h.buf = h.Sum(h.buf[:0])
	s := hex.EncodeToString(h.buf)
	h.Reset()
	return s
}

// computeKey hashes the program inputs once, into progKey, and derives the
// coalescing key from progKey, the variant and the profile hash, so an
// upload's bytes go through SHA-256 exactly once per submission.
func (r *resolved) computeKey() {
	h := newKeyHash()
	if r.spec.Benchmark == "" {
		h.str(SpecVersion + "/program/objects")
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(r.spec.Objects)))
		h.Write(n[:])
		for _, data := range r.spec.Objects {
			binary.LittleEndian.PutUint64(n[:], uint64(len(data)))
			h.Write(n[:])
			h.Write(data)
		}
	} else {
		// Benchmark jobs hash a digest of the sources, not just the name,
		// so the key stays content-addressed across daemon versions that
		// ship different generated suites.
		h.str(SpecVersion + "/program/bench")
		h.str(r.bench.Name)
		h.str(strconv.FormatBool(r.eachMode))
		h.str(sourceDigests()[r.bench.Name])
	}
	// The runtime library is resident per server process, so its content
	// needs no hashing here; whether it is linked does.
	h.str(strconv.FormatBool(r.spec.NoStdlib))
	r.progKey = h.hexSum()

	h.str(SpecVersion + "/job")
	h.str(r.progKey)
	h.str(r.variant())
	h.str(r.profileHash())
	r.key = h.hexSum()
}

// sourceDigests maps each built-in benchmark's name to the SHA-256 of its
// module names and texts. The suite is compiled into the binary, so the
// table is built once per process, on the first benchmark job, rather than
// hashing the sources on every submission.
var sourceDigests = sync.OnceValue(func() map[string]string {
	digests := make(map[string]string)
	h := newKeyHash()
	for _, b := range benchspec.All() {
		for _, m := range b.Modules {
			h.str(m.Name)
			h.str(m.Text)
		}
		digests[b.Name] = string(h.Sum(nil))
		h.Reset()
	}
	return digests
})

// decodeObjects parses the uploaded modules. Only a link calls it: a memo
// hit or an image-cache hit never touches the bytes again.
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
