// Package client is the typed HTTP client for the omd link service: it
// submits omd-job/v3 specs, polls job status, and fetches results, speaking
// the wire types of package omd directly. A submission is a
// multipart/form-data body: the JSON document as the "spec" part, then each
// uploaded module's raw objfile bytes as an "object" part.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/omd"
)

// Client talks to one omd server.
type Client struct {
	base string
	hc   *http.Client
}

// defaultHTTPClient is the client New uses when given none. Its transport
// buffers each connection's writes in submitBuffer bytes, which hold a
// typical submit body: net/http then reads a body straight into that buffer.
// With the default 4 KiB buffer it hands all but the first few KiB of every
// body to the connection through a copy buffer of the body's size,
// allocated per request.
var defaultHTTPClient = &http.Client{Transport: submitTransport()}

// submitBuffer is the write buffer of defaultHTTPClient's connections: an
// upload of a program's modules runs to tens of KiB.
const submitBuffer = 64 << 10

func submitTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.WriteBufferSize = submitBuffer
	return t
}

// New returns a client for the server at baseURL (e.g. "http://localhost:7333").
// httpClient nil selects a client whose connections buffer a whole typical
// submit body.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = defaultHTTPClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: httpClient}
}

// APIError is a non-2xx server response.
type APIError struct {
	Code int
	// RetryAfter is the server's backoff hint in seconds (429 only).
	RetryAfter int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("omd: server returned %d: %s", e.Code, e.Message)
}

// IsQueueFull reports whether err is the server's admission-queue-overflow
// rejection (HTTP 429).
func IsQueueFull(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Code == http.StatusTooManyRequests
}

func (c *Client) do(req *http.Request) (*http.Response, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	defer resp.Body.Close()
	ae := &APIError{Code: resp.StatusCode}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		ae.RetryAfter = ra
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err == nil {
		ae.Message = body.Error
	}
	return nil, ae
}

func (c *Client) getBytes(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit enqueues a job and returns immediately with its queued status.
func (c *Client) Submit(ctx context.Context, spec *omd.JobSpec) (*omd.JobStatus, error) {
	return c.submit(ctx, spec, "", false)
}

// SubmitWait enqueues a job and blocks until it finishes (or ctx is done —
// disconnecting tells the server this waiter is gone, which cancels the
// execution if no one else shares it).
func (c *Client) SubmitWait(ctx context.Context, spec *omd.JobSpec) (*omd.JobStatus, error) {
	return c.submit(ctx, spec, "", true)
}

// SubmitTraced enqueues a job under a caller-chosen trace id, propagated to
// the server in the Om-Trace-Id header so the job's span tree, log lines,
// and flight-recorder entry all carry the caller's correlation key. An
// empty id lets the server assign one (identical to Submit/SubmitWait).
func (c *Client) SubmitTraced(ctx context.Context, spec *omd.JobSpec, traceID string, wait bool) (*omd.JobStatus, error) {
	return c.submit(ctx, spec, traceID, wait)
}

func (c *Client) submit(ctx context.Context, spec *omd.JobSpec, traceID string, wait bool) (*omd.JobStatus, error) {
	body, contentType, err := submitBody(spec)
	if err != nil {
		return nil, err
	}
	url := c.base + "/jobs"
	if wait {
		url += "?wait=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if traceID != "" {
		req.Header.Set(omd.TraceHeader, traceID)
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st omd.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// submitBody writes spec as a POST /jobs body: the document (which leaves
// the objects out) as the "spec" part, then one "object" part per module,
// each carrying its bytes unencoded.
func submitBody(spec *omd.JobSpec) ([]byte, string, error) {
	doc, err := json.Marshal(spec)
	if err != nil {
		return nil, "", err
	}
	// Each part adds its boundary line and two header lines, under 256
	// bytes; growing once keeps the modules from being copied twice.
	size := len(doc) + 256*(len(spec.Objects)+2)
	for _, obj := range spec.Objects {
		size += len(obj)
	}
	var buf bytes.Buffer
	buf.Grow(size)
	mw := multipart.NewWriter(&buf)
	part := func(name, contentType string, data []byte) error {
		h := textproto.MIMEHeader{}
		h.Set("Content-Disposition", `form-data; name="`+name+`"`)
		h.Set("Content-Type", contentType)
		w, err := mw.CreatePart(h)
		if err == nil {
			_, err = w.Write(data)
		}
		return err
	}
	if err := part("spec", "application/json", doc); err != nil {
		return nil, "", err
	}
	for _, obj := range spec.Objects {
		if err := part("object", "application/octet-stream", obj); err != nil {
			return nil, "", err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), mw.FormDataContentType(), nil
}

// Status fetches one job's current state.
func (c *Client) Status(ctx context.Context, id string) (*omd.JobStatus, error) {
	var st omd.JobStatus
	if err := c.getJSON(ctx, "/jobs/"+id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait polls a job until it reaches a terminal state. The poll interval
// starts at `initial` (<= 0 selects 20ms) and doubles after every inactive
// poll up to 32× the start, so short jobs resolve quickly while long jobs
// don't hammer the server. Each sleep is jittered ±25% — derived from the
// job id so the schedule is reproducible — which spreads out the polls of
// many waiters that submitted in the same burst.
func (c *Client) Wait(ctx context.Context, id string, initial time.Duration) (*omd.JobStatus, error) {
	if initial <= 0 {
		initial = 20 * time.Millisecond
	}
	max := 32 * initial
	// Cheap deterministic jitter source: hash the job id once, then step a
	// xorshift sequence per poll. No global RNG, no time-based seeding.
	seed := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		seed ^= uint64(id[i])
		seed *= 1099511628211
	}
	if seed == 0 {
		seed = 1
	}
	interval := initial
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State == omd.JobDone || st.State == omd.JobFailed {
			return st, nil
		}
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		// delay = interval ± 25%.
		jitter := time.Duration(seed % uint64(interval/2))
		delay := interval*3/4 + jitter
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
		if interval *= 2; interval > max {
			interval = max
		}
	}
}

// List fetches every job's status in submission order.
func (c *Client) List(ctx context.Context) ([]omd.JobStatus, error) {
	var out []omd.JobStatus
	if err := c.getJSON(ctx, "/jobs", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Image fetches a finished job's linked image bytes.
func (c *Client) Image(ctx context.Context, id string) ([]byte, error) {
	return c.getBytes(ctx, "/jobs/"+id+"/image")
}

// Journal fetches a traced job's decision journal (om-journal/v1 bytes).
func (c *Client) Journal(ctx context.Context, id string) ([]byte, error) {
	return c.getBytes(ctx, "/jobs/"+id+"/journal")
}

// Check fetches a checked job's om-check/v1 document.
func (c *Client) Check(ctx context.Context, id string) ([]byte, error) {
	return c.getBytes(ctx, "/jobs/"+id+"/check")
}

// Trace fetches a job's span tree (om-trace/v1). While the job is live the
// server returns a snapshot of the open tree; after completion, the final
// recorded document.
func (c *Client) Trace(ctx context.Context, id string) (*obs.TraceDoc, error) {
	var doc obs.TraceDoc
	if err := c.getJSON(ctx, "/jobs/"+id+"/trace", &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Flights fetches the server's most recent completed traces, newest first.
// n <= 0 returns everything the flight recorder retains.
func (c *Client) Flights(ctx context.Context, n int) ([]*obs.TraceDoc, error) {
	path := "/debug/flights"
	if n > 0 {
		path += "?n=" + strconv.Itoa(n)
	}
	var out []*obs.TraceDoc
	if err := c.getJSON(ctx, path, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Metrics fetches the server's metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (*omd.MetricsSnapshot, error) {
	var snap omd.MetricsSnapshot
	if err := c.getJSON(ctx, "/metrics", &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// Healthy reports whether the server answers /healthz with 200.
func (c *Client) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return true
}
