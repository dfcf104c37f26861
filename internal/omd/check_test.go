package omd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/om"
	"repro/internal/omd"
	"repro/internal/omd/client"
	"repro/internal/verify"
)

// submitWait submits spec and waits for it, failing the test on a
// transport error.
func submitWait(t *testing.T, c *client.Client, spec *omd.JobSpec) *omd.JobStatus {
	t.Helper()
	st, err := c.SubmitWait(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCheckJob: a job submitted with a check level is checked at it — the
// dataflow reports of the lifted program, the optimized program and the
// image, plus at full the verdict document. The totals land in the status
// and the omd/check-* counters, the om-check/v1 document is served at
// /jobs/{id}/check, the trace carries one check span, and a repeat
// submission is a memo hit that keeps the document.
func TestCheckJob(t *testing.T) {
	for _, level := range []string{"static", "full"} {
		t.Run(level, func(t *testing.T) {
			c := startHTTP(t, newTestServer(t, omd.Config{Workers: 2, QueueDepth: 8}))
			ctx := context.Background()
			spec := &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li", Check: level}
			st := submitWait(t, c, spec)
			if st.State != omd.JobDone || st.Check != level || st.CheckSites == 0 || st.JournalEvents != 0 {
				t.Fatalf("status %+v, want done, checked at %s, no journal", st, level)
			}

			raw, err := c.Check(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			var doc verify.CheckDoc
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Schema != verify.CheckSchema || doc.Level != level || len(doc.Reports) != 3 {
				t.Fatalf("served %s level %s with %d reports", doc.Schema, doc.Level, len(doc.Reports))
			}
			for i, stage := range []string{"lifted", "optimized", ""} {
				if doc.Reports[i].Stage != stage {
					t.Fatalf("report %d stage %q, want %q", i, doc.Reports[i].Stage, stage)
				}
			}
			if (doc.Verify != nil) != (level == "full") {
				t.Fatalf("verdict document present=%v at level %s", doc.Verify != nil, level)
			}
			if doc.Verify != nil {
				if err := doc.Verify.Check(); err != nil {
					t.Fatalf("served verdict document is inconsistent: %v", err)
				}
			}
			if err := doc.Err(); err != nil || doc.Checked() != st.CheckSites {
				t.Fatalf("document %v over %d sites, status says %d", err, doc.Checked(), st.CheckSites)
			}

			tr, err := c.Trace(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			cs := tr.Find("check")
			if cs == nil || cs.Attrs["level"] != level || cs.Attrs["mode"] != "explicit" || cs.Attrs["outcome"] != "ok" {
				t.Fatalf("check span %+v", cs)
			}
			snap, err := c.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Counter("omd/check-runs") != 1 || snap.Counter("omd/check-checked") != st.CheckSites ||
				snap.Counter("omd/check-errors") != 0 {
				t.Errorf("omd/check-runs %d, -checked %d, -errors %d", snap.Counter("omd/check-runs"),
					snap.Counter("omd/check-checked"), snap.Counter("omd/check-errors"))
			}

			if st2 := submitWait(t, c, spec); !st2.MemoHit || st2.Check != level || st2.CheckSites != st.CheckSites {
				t.Fatalf("memoized check job lost its document: %+v", st2)
			}
		})
	}
}

// TestCheckKeyDistinct: the check level changes what a job proves, so each
// level of the same inputs gets its own coalescing key (a memoized
// unchecked result must never answer a checked request), "off" keys like
// no level, and an unchecked job serves no check document.
func TestCheckKeyDistinct(t *testing.T) {
	c := startHTTP(t, newTestServer(t, omd.Config{Workers: 2, QueueDepth: 8}))
	keys := map[string]string{}
	for _, level := range []string{"", "static", "full"} {
		st := submitWait(t, c, &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "compress", Check: level})
		if st.State != omd.JobDone || st.MemoHit || st.Check != level {
			t.Fatalf("check=%q: %+v", level, st)
		}
		if prev, dup := keys[st.Key]; dup {
			t.Fatalf("check=%q shares its key with check=%q", level, prev)
		}
		keys[st.Key] = level
		if level == "" {
			var ae *client.APIError
			if _, err := c.Check(context.Background(), st.ID); !errors.As(err, &ae) || ae.Code != http.StatusNotFound {
				t.Fatalf("unchecked job's check document: %v, want 404", err)
			}
		}
	}
	off, err := omd.ResolveKey(&omd.JobSpec{Version: omd.SpecVersion, Benchmark: "compress", Check: "off"})
	if err != nil || keys[off] != "" {
		t.Fatalf("check=off: %v, keyed like check=%q", err, keys[off])
	}
	if _, err := omd.ResolveKey(&omd.JobSpec{Version: omd.SpecVersion, Benchmark: "compress", Check: "lint"}); err == nil {
		t.Fatal("unknown check level accepted")
	}
}

// TestLintKeyDistinct: a static check changes what a job proves, so a
// check=static and an unchecked submission of the same inputs must not
// share a coalescing key.
func TestLintKeyDistinct(t *testing.T) { checkedKeyDistinct(t, "static") }

// TestVerifyKeyDistinct: a full check changes what a job proves, so a
// check=full and an unchecked submission of the same inputs must not share
// a coalescing key (a memoized unchecked result must never answer a full
// check request).
func TestVerifyKeyDistinct(t *testing.T) { checkedKeyDistinct(t, "full") }

// checkedKeyDistinct submits the same inputs unchecked and then at level,
// and fails unless the checked job ran fresh under its own key.
func checkedKeyDistinct(t *testing.T, level string) {
	c := startHTTP(t, newTestServer(t, omd.Config{Workers: 2, QueueDepth: 8}))
	plain := submitWait(t, c, &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "compress"})
	checked := submitWait(t, c, &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "compress", Check: level})
	if plain.Key == checked.Key {
		t.Fatalf("check=%s does not enter the coalescing key", level)
	}
	if checked.MemoHit {
		t.Fatalf("check=%s job answered from an unchecked memo entry", level)
	}
	if plain.Check != "" || plain.CheckSites != 0 {
		t.Fatalf("unchecked job claims a check: %+v", plain)
	}
	if checked.State != omd.JobDone || checked.Check != level {
		t.Fatalf("check=%s job: %+v", level, checked)
	}
}

// TestCheckSample: with CheckSample=1 every fresh execution of an unchecked
// job is shadow-checked at full. A clean job carries the document; with a
// deliberately broken pass the job still completes, without a document,
// and the failure is counted.
func TestCheckSample(t *testing.T) {
	s := newTestServer(t, omd.Config{Workers: 1, QueueDepth: 8, CheckSample: 1})
	c := startHTTP(t, s)
	ctx := context.Background()

	st := submitWait(t, c, &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li"})
	if st.State != omd.JobDone || st.Check != "full" || st.CheckSites == 0 {
		t.Fatalf("sampled execution was not shadow-checked at full: %+v", st)
	}
	tr, err := c.Trace(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cs := tr.Find("check"); cs == nil || cs.Attrs["mode"] != "shadow" || cs.Attrs["level"] != "full" {
		t.Fatalf("check span %+v, want a full shadow check", cs)
	}

	t.Cleanup(om.SetFaultHookForTesting(func(pg *om.Prog) { om.DeleteKeptLoad(pg) }))
	// li keeps address loads for the fault to delete; new options make
	// the job a fresh execution.
	st = submitWait(t, c, &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li",
		Options: optDoc(t, om.WithLevel(om.LevelFull), om.WithSchedule(true))})
	if st.State != omd.JobDone || st.Check != "" {
		t.Fatalf("failed shadow check: %+v, want done without a document", st)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counter("omd/check-runs") != 2 || snap.Counter("omd/check-shadow-failures") != 1 {
		t.Errorf("omd/check-runs %d, -shadow-failures %d, want 2 and 1",
			snap.Counter("omd/check-runs"), snap.Counter("omd/check-shadow-failures"))
	}
}

// TestCheckCatchesBrokenPass: the service-level half of the fault-injection
// criterion — with a deliberately broken OM pass, a job fails at both check
// levels and the error findings are counted.
func TestCheckCatchesBrokenPass(t *testing.T) {
	t.Cleanup(om.SetFaultHookForTesting(func(pg *om.Prog) { om.DeleteKeptLoad(pg) }))
	for _, level := range []string{"static", "full"} {
		t.Run(level, func(t *testing.T) {
			c := startHTTP(t, newTestServer(t, omd.Config{Workers: 1, QueueDepth: 8}))
			st := submitWait(t, c, &omd.JobSpec{Version: omd.SpecVersion, Benchmark: "li", Check: level})
			if st.State != omd.JobFailed || !strings.Contains(st.Error, "check "+level) {
				t.Fatalf("broken pass not caught at %s: %s (%s)", level, st.State, st.Error)
			}
			snap, err := c.Metrics(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if snap.Counter("omd/check-errors") == 0 {
				t.Error("check errors not counted")
			}
		})
	}
}

// TestSpecV1Rejected: a job document of version 1, whose verify
// and lint flags v2 replaced with check, gets a 400 naming the version the
// server speaks, whether it carries v1 fields or not.
func TestSpecV1Rejected(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, omd.Config{Workers: 1, QueueDepth: 8}).Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		bytes.NewReader([]byte(`{"version":"omd-job/v1","benchmark":"li","verify":true,"lint":true}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, omd.SpecVersion) {
		t.Fatalf("v1 document: %d %q, want 400 naming %s", resp.StatusCode, body.Error, omd.SpecVersion)
	}

	_, err = client.New(ts.URL, ts.Client()).Submit(context.Background(), &omd.JobSpec{Version: "omd-job/v1", Benchmark: "li"})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != http.StatusBadRequest || !strings.Contains(ae.Message, omd.SpecVersion) {
		t.Fatalf("v1 submit: %v, want a 400 APIError naming %s", err, omd.SpecVersion)
	}
}
