package omd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/omd"
	"repro/internal/omd/client"
	"repro/internal/rtlib"
	"repro/internal/tcc"
)

// formPart is one part of a hand-built POST /jobs body.
type formPart struct {
	name, file string
	data       []byte
}

// curlBody builds a multipart body the way `curl -F name=@file` does: every
// part is a form file with a filename and an octet-stream content type.
func curlBody(t *testing.T, parts ...formPart) ([]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range parts {
		w, err := mw.CreateFormFile(p.name, p.file)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(p.data)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), mw.FormDataContentType()
}

// post sends one POST /jobs?wait=1 and decodes the reply as a JobStatus and
// as an error document.
func post(t *testing.T, url, contentType string, body io.Reader) (int, omd.JobStatus, string) {
	t.Helper()
	resp, err := http.Post(url+"/jobs?wait=1", contentType, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st omd.JobStatus
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("reply %d is not JSON: %q", resp.StatusCode, data)
	}
	json.Unmarshal(data, &e)
	return resp.StatusCode, st, e.Error
}

// twoModules compiles a two-module program and returns its serialized
// objects and the image a local link of them (runtime library included,
// default options) produces.
func twoModules(t *testing.T) ([][]byte, []byte) {
	t.Helper()
	srcs := []tcc.Source{
		{Name: "main", Text: "long add(long a, long b);\nlong g;\nlong main() { g = add(g, 40); print(g + 2); return 0; }\n"},
		{Name: "add", Text: "long add(long a, long b) { return a + b; }\n"},
	}
	var objs []*objfile.Object
	var raw [][]byte
	for _, src := range srcs {
		obj, err := tcc.Compile(src.Name, []tcc.Source{src}, tcc.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obj.Write(&buf); err != nil {
			t.Fatal(err)
		}
		objs, raw = append(objs, obj), append(raw, buf.Bytes())
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		t.Fatal(err)
	}
	p, err := link.Merge(append(objs, lib...))
	if err != nil {
		t.Fatal(err)
	}
	res, err := om.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := res.Image.Write(&img); err != nil {
		t.Fatal(err)
	}
	return raw, img.Bytes()
}

// TestSubmitWireFormat: a job's objects travel as raw multipart parts. A
// curl-style upload serves the image of a local link of the same modules,
// and the typed client's upload of them is the same job; a benchmark job
// still runs from a bare JSON body; a v2 document, whose objects were
// base64 inside it, gets a 400 naming v3 whatever the order of its fields;
// and options in the retired om-options/v1 form get a 400 naming the
// current form.
func TestSubmitWireFormat(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	mods, local := twoModules(t)
	body, ct := curlBody(t,
		formPart{"spec", "job.json", []byte(`{"version":"` + omd.SpecVersion + `"}`)},
		formPart{"object", "main.o", mods[0]},
		formPart{"object", "add.o", mods[1]})
	code, st, msg := post(t, ts.URL, ct, bytes.NewReader(body))
	if code != http.StatusOK || st.State != omd.JobDone {
		t.Fatalf("curl-style upload: %d %s %q", code, st.State, msg)
	}
	served, err := c.Image(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, local) {
		t.Fatalf("curl-style upload: served image differs from a local om.Run (%d vs %d bytes)", len(served), len(local))
	}
	again, err := c.SubmitWait(ctx, &omd.JobSpec{Version: omd.SpecVersion, Objects: mods})
	if err != nil {
		t.Fatal(err)
	}
	if again.Key != st.Key || !again.MemoHit {
		t.Errorf("client upload of the same modules: key %s memo %v, want key %s from the memo", again.Key, again.MemoHit, st.Key)
	}

	code, st, msg = post(t, ts.URL, "application/json",
		strings.NewReader(`{"version":"`+omd.SpecVersion+`","benchmark":"compress"}`))
	if code != http.StatusOK || st.State != omd.JobDone || st.ImageBytes == 0 {
		t.Fatalf("bare JSON benchmark job: %d %s %q", code, st.State, msg)
	}

	v2 := []string{
		`{"version":"omd-job/v2","objects":["QVhQTw=="]}`,
		`{"objects":["QVhQTw=="],"version":"omd-job/v2"}`,
		`{"version":"omd-job/v2","benchmark":"li"}`,
	}
	for _, doc := range v2 {
		code, _, msg := post(t, ts.URL, "application/json", strings.NewReader(doc))
		if code != http.StatusBadRequest || !strings.Contains(msg, omd.SpecVersion) {
			t.Errorf("v2 document %s: %d %q, want 400 naming %s", doc, code, msg, omd.SpecVersion)
		}
		body, ct := curlBody(t, formPart{"spec", "job.json", []byte(doc)})
		code, _, msg = post(t, ts.URL, ct, bytes.NewReader(body))
		if code != http.StatusBadRequest || !strings.Contains(msg, omd.SpecVersion) {
			t.Errorf("v2 document %s as a spec part: %d %q, want 400 naming %s", doc, code, msg, omd.SpecVersion)
		}
	}

	v1opts := `{"version":"` + omd.SpecVersion + `","benchmark":"li","options":` +
		`{"version":"om-options/v1","level":"full","schedule":false,"instrument":false,"trace":false}}`
	code, _, msg = post(t, ts.URL, "application/json", strings.NewReader(v1opts))
	if code != http.StatusBadRequest || !strings.Contains(msg, om.OptionsVersion) {
		t.Errorf("om-options/v1 job: %d %q, want 400 naming %s", code, msg, om.OptionsVersion)
	}
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestSubmitBodyRejected: a body the server cannot take as a job gets a
// JSON error before admission — 400 for a malformed body, 413 for one over
// a bound — and admits nothing.
func TestSubmitBodyRejected(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	spec := formPart{"spec", "job.json", []byte(`{"version":"` + omd.SpecVersion + `"}`)}
	obj := formPart{"object", "a.o", []byte("AXPO")}
	many := []formPart{spec}
	for i := 0; i <= omd.MaxObjectParts; i++ {
		many = append(many, obj)
	}
	cases := []struct {
		name  string
		parts []formPart
		code  int
	}{
		{"no parts", nil, http.StatusBadRequest},
		{"no spec part", []formPart{obj}, http.StatusBadRequest},
		{"spec not first", []formPart{obj, spec}, http.StatusBadRequest},
		{"two spec parts", []formPart{spec, spec, obj}, http.StatusBadRequest},
		{"unknown part", []formPart{spec, {"objects", "a.o", []byte("AXPO")}}, http.StatusBadRequest},
		{"empty object part", []formPart{spec, obj, {"object", "b.o", nil}}, http.StatusBadRequest},
		{"too many object parts", many, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, ct := curlBody(t, tc.parts...)
			code, _, msg := post(t, ts.URL, ct, bytes.NewReader(body))
			if code != tc.code || msg == "" {
				t.Fatalf("%d %q, want %d with an error", code, msg, tc.code)
			}
		})
	}
	t.Run("no boundary", func(t *testing.T) {
		code, _, msg := post(t, ts.URL, "multipart/form-data", strings.NewReader("--x\r\n\r\n--x--\r\n"))
		if code != http.StatusBadRequest || msg == "" {
			t.Fatalf("%d %q, want 400 with an error", code, msg)
		}
	})
	t.Run("oversized body", func(t *testing.T) {
		// One object part whose bytes alone fill the bound, streamed so the
		// test never holds the body.
		head, ct := curlBody(t, spec)
		boundary := ct[strings.Index(ct, "boundary=")+len("boundary="):]
		head = bytes.TrimSuffix(head, []byte("--"+boundary+"--\r\n"))
		head = append(head, fmt.Sprintf("--%s\r\nContent-Disposition: form-data; name=\"object\"\r\n\r\n", boundary)...)
		tail := "\r\n--" + boundary + "--\r\n"
		body := io.MultiReader(bytes.NewReader(head), io.LimitReader(zeros{}, omd.MaxSubmitBody), strings.NewReader(tail))
		code, _, msg := post(t, ts.URL, ct, body)
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "bytes") {
			t.Fatalf("%d %q, want 413 naming the bound", code, msg)
		}
	})
	if snap := s.Snapshot(); snap.Counter("omd/submitted") != 0 {
		t.Errorf("rejected bodies admitted %d jobs", snap.Counter("omd/submitted"))
	}
}
