package dataflow

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Schema identifies the findings document format.
const Schema = "om-lint/v1"

// Finding is one reported check result.
type Finding struct {
	ID       string   `json:"id"`
	Check    string   `json:"check"`
	Severity Severity `json:"severity"`
	Proc     string   `json:"proc"`
	// Addr locates the instruction (exact at image level, the layout
	// estimate at program level).
	Addr   uint64 `json:"addr"`
	Detail string `json:"detail"`
}

// String renders the finding in the one-line text form the checking
// commands print.
func (f Finding) String() string {
	return fmt.Sprintf("%s %s %s +%#x: %s", f.ID, f.Check, f.Proc, f.Addr, f.Detail)
}

// Report is an om-lint/v1 findings document: what was analyzed, how many
// check sites were evaluated, and every finding.
type Report struct {
	Schema string `json:"schema"`
	// Source is "prog" (OM's symbolic form) or "image" (a linked
	// executable).
	Source string `json:"source"`
	// Stage distinguishes pre- and post-optimization program-level runs
	// ("lifted", "optimized"; empty for images).
	Stage  string `json:"stage,omitempty"`
	Procs  int    `json:"procs"`
	Blocks int    `json:"blocks"`
	Insts  int    `json:"insts"`
	// Checked counts evaluated check sites; a clean report proves that
	// many sites, it is not merely the absence of output.
	Checked  uint64    `json:"checked"`
	Findings []Finding `json:"findings"`
}

// add appends a finding for check id, resolving its catalog entry.
func (r *Report) add(f Finding) {
	if f.Check == "" {
		ci := checkInfo(f.ID)
		f.Check, f.Severity = ci.Name, ci.Severity
	}
	r.Findings = append(r.Findings, f)
}

// sort orders findings by procedure address, then check ID, for stable
// output across runs.
func (r *Report) sort() {
	sort.Slice(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.Detail < b.Detail
	})
}

// Errors counts error-severity findings — the number a lint gate fails on.
func (r *Report) Errors() int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == SevError {
			n++
		}
	}
	return n
}

// ByID tallies findings per check ID.
func (r *Report) ByID() map[string]int {
	m := make(map[string]int)
	for _, f := range r.Findings {
		m[f.ID]++
	}
	return m
}

// Write emits the document as indented JSON in the repository's house
// style.
func (r *Report) Write(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "\t")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ReadReport parses an om-lint/v1 document.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, err
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("dataflow: document schema %q, want %q", r.Schema, Schema)
	}
	return &r, nil
}
