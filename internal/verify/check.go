package verify

import (
	"fmt"

	"repro/internal/dataflow"
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

// CheckSchema identifies the check document format.
const CheckSchema = "om-check/v1"

// CheckDoc is the outcome of one checked link: the om-lint/v1 reports of
// the lifted program, the optimized program and the image, in that order,
// and at CheckFull the om-verify/v1 verdict document.
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

// Finish analyzes the run's image and, at CheckFull, validates its journal.
// It errors only when an input cannot be analyzed; findings and verdicts
// are judged by the document's Err.
func (c *Checker) Finish(res *om.Result) (*CheckDoc, error) {
	if c.Level == CheckOff {
		return nil, nil
	}
	if len(c.reports) != 2 {
		return nil, fmt.Errorf("check: %d program analyses ran, want lifted and optimized", len(c.reports))
	}
	img, err := dataflow.AnalyzeImage(res.Image)
	if err != nil {
		return nil, fmt.Errorf("check image: %w", err)
	}
	d := &CheckDoc{Schema: CheckSchema, Level: c.Level.String(), Reports: append(c.reports, img)}
	if c.Level == CheckFull {
		if d.Verify, err = Translate(res.Image, res.Journal); err != nil {
			return nil, fmt.Errorf("check: %w", err)
		}
	}
	return d, nil
}
