// Package verify is the toolchain's correctness engine: translation
// validation of OM's decision journal against the final image, differential
// execution of randomized programs across the option matrix, and the one
// check level (off, static, full) every surface takes, with its one failure
// rule. Structural checks on images belong to the dataflow analysis. Its
// one top-level output is the om-check/v1 document of a check, which embeds
// the om-verify/v1 verdict document, the counterpart to the om-journal/v1
// decision journal.
package verify

import (
	"fmt"

	"repro/internal/obs"
)

// Schema identifies the verdict document embedded in an om-check/v1
// document; bump on incompatible change so downstream tooling can reject
// documents it does not understand.
const Schema = "om-verify/v1"

// Verdict is one verification result, covering Count journal events that
// share (cat, proc, target, reason).
type Verdict struct {
	// Cat is the site category ("addr", "call", "gpreset", "layout").
	Cat string `json:"cat"`
	// Proc is the enclosing procedure.
	Proc string `json:"proc,omitempty"`
	// Target names the symbol the checked sites refer to, when known.
	Target string `json:"target,omitempty"`
	// Reason is the journal reason code the verdict covers.
	Reason string `json:"reason,omitempty"`
	// Rule names the validator rule that produced the verdict (e.g.
	// "lda-witness", "bsr-target").
	Rule string `json:"rule"`
	// Count is the number of journal events (or checked items) the verdict
	// covers.
	Count uint64 `json:"count"`
	OK    bool   `json:"ok"`
	// Err explains a failed verdict.
	Err string `json:"err,omitempty"`
}

// Doc is the serialized verdict document for one verified OM run.
type Doc struct {
	Schema string `json:"schema"`
	// Level is the optimization level of the verified run ("om-full", ...).
	Level string `json:"level,omitempty"`
	// Checked is the total number of items covered (sum of verdict counts).
	Checked uint64 `json:"checked"`
	// Failed is the number of covered items whose verdict failed.
	Failed uint64 `json:"failed"`
	// ByReason tallies covered journal events per reason code; omtrace
	// -verify cross-checks it against the journal's reason_counts so the
	// two accounting systems cannot silently diverge.
	ByReason map[string]uint64 `json:"reason_counts"`
	Verdicts []Verdict         `json:"verdicts"`
}

// add appends a verdict and folds it into the document totals.
func (d *Doc) add(v Verdict) {
	d.Verdicts = append(d.Verdicts, v)
	d.Checked += v.Count
	if !v.OK {
		d.Failed += v.Count
	}
	if v.Reason != "" {
		if d.ByReason == nil {
			d.ByReason = make(map[string]uint64)
		}
		d.ByReason[v.Reason] += v.Count
	}
}

// Err returns an error summarizing the failed verdicts, or nil if every
// verdict passed.
func (d *Doc) Err() error {
	if d.Failed == 0 {
		return nil
	}
	for _, v := range d.Verdicts {
		if !v.OK {
			return fmt.Errorf("verify: %d/%d checks failed; first: %s %s %s [%s]: %s",
				d.Failed, d.Checked, v.Cat, v.Proc, v.Reason, v.Rule, v.Err)
		}
	}
	return fmt.Errorf("verify: %d/%d checks failed", d.Failed, d.Checked)
}

// Check verifies the document's internal accounting: totals match the
// verdict list and the per-reason tally matches the verdicts.
func (d *Doc) Check() error {
	if d.Schema != Schema {
		return fmt.Errorf("verify: schema %q, want %q", d.Schema, Schema)
	}
	var checked, failed uint64
	byReason := make(map[string]uint64)
	for _, v := range d.Verdicts {
		checked += v.Count
		if !v.OK {
			failed += v.Count
		}
		if v.Reason != "" {
			byReason[v.Reason] += v.Count
		}
	}
	if checked != d.Checked {
		return fmt.Errorf("verify: %d items in verdicts, checked says %d", checked, d.Checked)
	}
	if failed != d.Failed {
		return fmt.Errorf("verify: %d failed items in verdicts, failed says %d", failed, d.Failed)
	}
	if len(byReason) != len(d.ByReason) {
		return fmt.Errorf("verify: %d distinct reasons in verdicts, %d in reason_counts",
			len(byReason), len(d.ByReason))
	}
	for r, n := range byReason {
		if d.ByReason[r] != n {
			return fmt.Errorf("verify: reason %s: %d items, reason_counts says %d", r, n, d.ByReason[r])
		}
	}
	return nil
}

// CrossCheck proves the verdict document and a decision journal agree on
// the per-reason event population: every journal reason count must equal
// the verdicts' covered-event count for that reason, and vice versa. This
// is the omtrace -verify gate — if the validator silently dropped events,
// or the journal grew a reason the validator does not model, it fails.
func (d *Doc) CrossCheck(j *obs.JournalDoc) error {
	if err := d.Check(); err != nil {
		return err
	}
	for reason, n := range j.Counts {
		if got := d.ByReason[reason]; got != n {
			return fmt.Errorf("verify: reason %s: journal has %d events, verdicts cover %d", reason, n, got)
		}
	}
	for reason, n := range d.ByReason {
		if _, ok := j.Counts[reason]; !ok {
			return fmt.Errorf("verify: reason %s: verdicts cover %d events, journal has none", reason, n)
		}
	}
	return nil
}
