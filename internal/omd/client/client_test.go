package client_test

import (
	"context"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/omd"
	"repro/internal/omd/client"
	"repro/internal/tcc"
)

// TestMemoHitSubmitBodyBytes: a memo-hit submit through client.New(url,
// nil) holds its upload twice, once as the client's request body and once
// as the server's decode arena, so each extra body byte costs about two
// allocated bytes. With net/http's default 4 KiB write buffer the transport
// would also copy all but the first few KiB of every body through a
// body-sized buffer of its own, a third.
func TestMemoHitSubmitBodyBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are not meaningful")
	}
	cache, err := buildcache.New("")
	if err != nil {
		t.Fatal(err)
	}
	s := omd.NewServer(omd.Config{Workers: 1, Cache: cache})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, nil)
	ctx := context.Background()

	// perSubmit uploads a module of about n statements, then resubmits it
	// as memo hits and returns its body size and the bytes each resubmit
	// allocated.
	perSubmit := func(n int) (body, alloc float64) {
		var src strings.Builder
		src.WriteString("long main() {\n\tlong i;\n\ti = 0;\n")
		for i := 0; i < n; i++ {
			src.WriteString("\ti = i + 1;\n")
		}
		src.WriteString("\treturn i;\n}\n")
		obj, err := tcc.Compile("m", []tcc.Source{{Name: "m", Text: src.String()}}, tcc.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		spec := &omd.JobSpec{Version: omd.SpecVersion, Objects: [][]byte{obj.Encode()}}
		if st, err := c.SubmitWait(ctx, spec); err != nil || st.State != omd.JobDone {
			t.Fatalf("first submit: %+v, %v", st, err)
		}
		const runs = 40
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if st, err := c.SubmitWait(ctx, spec); err != nil || !st.MemoHit {
				t.Fatalf("resubmit %d: %+v, %v; want a memo hit", i, st, err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(len(spec.Objects[0])), float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallBody, smallAlloc := perSubmit(500)
	bigBody, bigAlloc := perSubmit(4000)
	if perByte := (bigAlloc - smallAlloc) / (bigBody - smallBody); perByte > 2.5 {
		t.Errorf("a memo-hit submit allocates %.2f bytes per body byte (%.0f B for a %.0f B body, %.0f B for %.0f B), want about 2",
			perByte, smallAlloc, smallBody, bigAlloc, bigBody)
	}
}
