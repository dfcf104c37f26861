package verify

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dataflow"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/om"
)

// CheckLevel is how much a link proves about its own output. Every surface
// (om -check, the omd job spec, omverify) takes the same three levels.
type CheckLevel int

const (
	// CheckOff proves nothing.
	CheckOff CheckLevel = iota
	// CheckStatic runs the dataflow analysis over the lifted program, the
	// optimized program and the emitted image.
	CheckStatic
	// CheckFull adds translation validation: the decision journal of the
	// run is replayed against the image, witness by witness.
	CheckFull
)

var checkLevelNames = [...]string{"off", "static", "full"}

func (l CheckLevel) String() string { return checkLevelNames[l] }

// ParseCheckLevel parses "off", "static" or "full"; empty means off.
func ParseCheckLevel(s string) (CheckLevel, error) {
	if s == "" {
		return CheckOff, nil
	}
	for l, n := range checkLevelNames {
		if s == n {
			return CheckLevel(l), nil
		}
	}
	return CheckOff, fmt.Errorf("unknown check level %q (want off, static or full)", s)
}

// CheckSchema identifies the check document format, the one top-level
// document every checking surface writes and reads.
const CheckSchema = "om-check/v1"

// CheckDoc is the outcome of one check: the om-lint/v1 reports (of a
// checked link, the lifted program, the optimized program and the image,
// in that order; of an image alone, the image) and at CheckFull the
// om-verify/v1 verdict document.
type CheckDoc struct {
	Schema  string             `json:"schema"`
	Level   string             `json:"level"`
	Reports []*dataflow.Report `json:"reports"`
	Verify  *Doc               `json:"verify,omitempty"`
}

// Checked totals the evaluated check sites and validated journal events.
func (d *CheckDoc) Checked() uint64 {
	var n uint64
	for _, r := range d.Reports {
		n += r.Checked
	}
	if d.Verify != nil {
		n += d.Verify.Checked
	}
	return n
}

// Errors counts error findings across the reports plus failed verdict
// items.
func (d *CheckDoc) Errors() uint64 {
	var n uint64
	for _, r := range d.Reports {
		n += uint64(r.Errors())
	}
	if d.Verify != nil {
		n += d.Verify.Failed
	}
	return n
}

// Err is the one failure rule of every checked surface: any error-severity
// finding in any report, or any failed verdict. Info findings (missed
// optimizations) never fail a check.
func (d *CheckDoc) Err() error {
	for _, r := range d.Reports {
		for _, f := range r.Findings {
			if f.Severity == dataflow.SevError {
				what := r.Source
				if r.Stage != "" {
					what += ":" + r.Stage
				}
				return fmt.Errorf("check %s: %d error(s); first in %s: %s", d.Level, d.Errors(), what, f)
			}
		}
	}
	if d.Verify != nil {
		return d.Verify.Err()
	}
	return nil
}

// Write serializes the document as indented JSON with a trailing newline.
func (d *CheckDoc) Write(w io.Writer) error {
	data, err := json.MarshalIndent(d, "", "\t")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ReadCheckDoc parses a document written by Write. It rejects any other
// schema, an unknown level, and a verdict document whose totals disagree
// with its verdicts.
func ReadCheckDoc(r io.Reader) (*CheckDoc, error) {
	var d CheckDoc
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if d.Schema != CheckSchema {
		return nil, fmt.Errorf("check: schema %q, want %q", d.Schema, CheckSchema)
	}
	if _, err := ParseCheckLevel(d.Level); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if d.Verify != nil {
		if err := d.Verify.Check(); err != nil {
			return nil, err
		}
	}
	return &d, nil
}

// CheckImage checks a linked image: the dataflow analysis of the image
// and, given the decision journal of the run that produced it, translation
// validation of the journal against it. The document is at CheckStatic
// without a journal and at CheckFull with one. It errors only when an
// input cannot be analyzed; findings and verdicts are judged by the
// document's Err.
func CheckImage(im *objfile.Image, j *obs.JournalDoc) (*CheckDoc, error) {
	rep, err := dataflow.AnalyzeImage(im)
	if err != nil {
		return nil, fmt.Errorf("check image: %w", err)
	}
	d := &CheckDoc{Schema: CheckSchema, Level: CheckStatic.String(), Reports: []*dataflow.Report{rep}}
	if j != nil {
		d.Level = CheckFull.String()
		if d.Verify, err = Translate(im, j); err != nil {
			return nil, fmt.Errorf("check: %w", err)
		}
	}
	return d, nil
}

// Checker runs a link's checks: Options arms om.Run for the level, and
// Finish completes the document from the run's result. A Checker serves
// one run.
type Checker struct {
	Level   CheckLevel
	reports []*dataflow.Report
}

// Options returns the om.Run options the level needs: a program observer
// feeding the dataflow analysis (static and full) and a decision journal
// (full).
func (c *Checker) Options() []om.Option {
	if c.Level == CheckOff {
		return nil
	}
	opts := []om.Option{om.WithProgObserver(func(stage om.ProgStage, pg *om.Prog, pl *om.Plan) error {
		rep, err := dataflow.AnalyzeProg(pg, pl, string(stage))
		if err != nil {
			return fmt.Errorf("check %s: %w", stage, err)
		}
		c.reports = append(c.reports, rep)
		return nil
	})}
	if c.Level == CheckFull {
		opts = append(opts, om.WithTrace())
	}
	return opts
}

// Finish completes the document with CheckImage: the run's image and, at
// CheckFull, its journal. It errors only when an input cannot be analyzed;
// findings and verdicts are judged by the document's Err.
func (c *Checker) Finish(res *om.Result) (*CheckDoc, error) {
	if c.Level == CheckOff {
		return nil, nil
	}
	if len(c.reports) != 2 {
		return nil, fmt.Errorf("check: %d program analyses ran, want lifted and optimized", len(c.reports))
	}
	var j *obs.JournalDoc
	if c.Level == CheckFull {
		j = res.Journal // Options forced the journal
	}
	d, err := CheckImage(res.Image, j)
	if err != nil {
		return nil, err
	}
	d.Reports = append(c.reports, d.Reports...)
	return d, nil
}
