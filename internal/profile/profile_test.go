package profile

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func sample() *Profile {
	p := New("synthetic")
	p.Procs = []ProcCount{
		{Name: "main", Entries: 1, Weight: 10},
		{Name: "f", Entries: 5, Weight: 50},
	}
	p.Blocks = []BlockCount{
		{Proc: "main", Index: 0, Count: 1},
		{Proc: "f", Index: 0, Count: 5},
		{Proc: "f", Index: 1, Count: 45},
	}
	p.Edges = []Edge{{Caller: "main", Callee: "f", Weight: 5}}
	return p
}

// TestRoundTrip: Write then Read reproduces the profile, canonically
// ordered.
func TestRoundTrip(t *testing.T) {
	p := sample()
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip changed the profile:\nwrote %+v\nread  %+v", p, q)
	}
	if q.Procs[0].Name != "f" {
		t.Errorf("procs not canonically sorted: %+v", q.Procs)
	}
}

// TestReadRejects: wrong schema and malformed entries fail loudly.
func TestReadRejects(t *testing.T) {
	for name, doc := range map[string]string{
		"bad schema":   `{"schema":"om-profile/v0","procs":[]}`,
		"not json":     `hello`,
		"empty proc":   `{"schema":"om-profile/v1","procs":[{"name":"","entries":1}]}`,
		"neg index":    `{"schema":"om-profile/v1","procs":[],"blocks":[{"proc":"f","index":-1,"count":1}]}`,
		"empty caller": `{"schema":"om-profile/v1","procs":[],"edges":[{"caller":"","callee":"f","weight":1}]}`,
	} {
		if _, err := Read(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: Read accepted it", name)
		}
	}
}

// TestValidate: names are checked against the target program.
func TestValidate(t *testing.T) {
	p := sample()
	if err := p.ValidateNames(map[string]bool{"main": true, "f": true}); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	if err := p.ValidateNames(map[string]bool{"main": true}); err == nil {
		t.Fatal("profile with unknown procedure accepted")
	}
}

// TestMerge: counts sum deterministically regardless of argument order.
func TestMerge(t *testing.T) {
	a, b := sample(), sample()
	b.Edges = append(b.Edges, Edge{Caller: "f", Callee: "main", Weight: 2})
	ab, ba := Merge(a, b), Merge(b, a)
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("merge is order-dependent:\nab %+v\nba %+v", ab, ba)
	}
	if ab.Source != "merge" {
		t.Errorf("merge source %q", ab.Source)
	}
	for _, pc := range ab.Procs {
		if pc.Name == "f" && (pc.Entries != 10 || pc.Weight != 100) {
			t.Errorf("f not summed: %+v", pc)
		}
	}
	want := []Edge{{"f", "main", 2}, {"main", "f", 10}}
	if !reflect.DeepEqual(ab.Edges, want) {
		t.Errorf("edges = %+v, want %+v", ab.Edges, want)
	}
}

// TestHash: equal content hashes equally even from different input order;
// any count change produces a different hash (the cache-key property).
func TestHash(t *testing.T) {
	a := sample()
	b := sample()
	// Same content, scrambled input order.
	b.Procs[0], b.Procs[1] = b.Procs[1], b.Procs[0]
	b.Blocks[0], b.Blocks[2] = b.Blocks[2], b.Blocks[0]
	if a.Hash() != b.Hash() {
		t.Fatal("hash depends on input order")
	}
	c := sample()
	c.Blocks[1].Count++
	if a.Hash() == c.Hash() {
		t.Fatal("hash ignores a count change")
	}
}
