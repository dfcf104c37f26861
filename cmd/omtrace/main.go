// Command omtrace renders OM decision journals (written by `om -trace` or
// `omrepro -trace`) into human-readable "why was this site not optimized"
// reports, machine-readable JSON summaries, and a CI-friendly accounting
// check: every address load, call site, and GP-reset pair of the program
// must appear in the journal exactly once.
//
// Usage:
//
//	omtrace [-check [-verify doc]] [-json] [-kept] [-proc name] [-reason substr] journal.json...
//
// -check -verify cross-checks the journal against the verdicts of an
// om-check/v1 document (written by `om -check full -trace` as
// <trace>.check.json, or by `omverify -image -journal -json`): the two
// accounting systems must agree event-for-event on every reason code, so a
// validator that silently dropped events — or a journal reason the
// validator does not model — fails the gate. A document without verdicts
// (check level static) is refused.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/verify"
)

func main() {
	check := flag.Bool("check", false, "verify journal accounting (events cover 100% of sites) and exit")
	verifyFile := flag.String("verify", "", "om-check/v1 document whose verdicts to cross-check reason counts against (with -check)")
	jsonOut := flag.Bool("json", false, "emit a JSON summary instead of the text report")
	keptOnly := flag.Bool("kept", false, "list only sites that stayed unoptimized")
	procFilter := flag.String("proc", "", "restrict the site listing to the named procedure")
	reasonFilter := flag.String("reason", "", "restrict the site listing to reason codes containing this substring")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: omtrace [-check [-verify doc]] [-json] [-kept] [-proc name] [-reason substr] journal.json...")
		os.Exit(2)
	}
	if *verifyFile != "" && !*check {
		fmt.Fprintln(os.Stderr, "omtrace: -verify requires -check")
		os.Exit(2)
	}

	var vdoc *verify.Doc
	if *verifyFile != "" {
		vf, err := os.Open(*verifyFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "omtrace:", err)
			os.Exit(1)
		}
		doc, err := verify.ReadCheckDoc(vf)
		vf.Close()
		if err == nil && doc.Verify == nil {
			err = fmt.Errorf("check level %s holds no verdicts; link with -check full", doc.Level)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "omtrace: %s: %v\n", *verifyFile, err)
			os.Exit(1)
		}
		vdoc = doc.Verify
	}

	ok := true
	for _, name := range flag.Args() {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "omtrace:", err)
			os.Exit(1)
		}
		d, err := obs.ReadJournal(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "omtrace: %s: %v\n", name, err)
			os.Exit(1)
		}
		switch {
		case *check:
			err := d.Check()
			if err == nil && vdoc != nil {
				err = vdoc.CrossCheck(d)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "omtrace: %s: FAIL: %v\n", name, err)
				ok = false
			} else {
				extra := ""
				if n, present := d.Totals["layout"]; present {
					extra = fmt.Sprintf(", %d layout", n)
				}
				cross := ""
				if vdoc != nil {
					cross = fmt.Sprintf("; %d verdicts cover every reason", vdoc.Checked)
				}
				fmt.Printf("%s: ok (%d addr, %d call, %d gpreset%s events, all accounted for%s)\n",
					name, d.Totals["addr"], d.Totals["call"], d.Totals["gpreset"], extra, cross)
			}
		case *jsonOut:
			emitJSON(name, d)
		default:
			report(name, d, *keptOnly, *procFilter, *reasonFilter)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// emitJSON prints a machine-readable summary in the repository's JSON
// house style (tab-indented, trailing newline, like BENCH_sim.json).
func emitJSON(name string, d *obs.JournalDoc) {
	summary := struct {
		File   string            `json:"file"`
		Schema string            `json:"schema"`
		Level  string            `json:"level,omitempty"`
		Totals map[string]uint64 `json:"totals"`
		Counts map[string]uint64 `json:"reason_counts"`
	}{name, d.Schema, d.Level, d.Totals, d.Counts}
	data, err := json.MarshalIndent(summary, "", "\t")
	if err != nil {
		fmt.Fprintln(os.Stderr, "omtrace:", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(data, '\n'))
}

// report prints the per-reason tally and the site listing.
func report(name string, d *obs.JournalDoc, keptOnly bool, procFilter, reasonFilter string) {
	fmt.Printf("%s: %s — %d address loads, %d call sites, %d GP-resets\n",
		name, d.Level, d.Totals["addr"], d.Totals["call"], d.Totals["gpreset"])
	for _, reason := range d.Reasons() {
		fmt.Printf("  %-36s %6d\n", reason, d.Counts[reason])
	}
	fmt.Println()
	shown := 0
	for _, e := range d.Events {
		if keptOnly && !strings.Contains(e.Reason, ":kept:") {
			continue
		}
		if procFilter != "" && e.Proc != procFilter {
			continue
		}
		if reasonFilter != "" && !strings.Contains(e.Reason, reasonFilter) {
			continue
		}
		line := fmt.Sprintf("  %s+%d: %s", e.Proc, e.Index, describe(e))
		if e.Detail != "" {
			line += " (" + e.Detail + ")"
		}
		fmt.Println(line)
		shown++
	}
	if shown > 0 {
		fmt.Println()
	}
}

// describe turns an event into a "what happened and why" sentence.
func describe(e obs.Event) string {
	what := map[string]string{
		"addr":    "address load",
		"call":    "call",
		"gpreset": "GP-reset pair",
		"layout":  "procedure",
	}[e.Cat]
	target := ""
	if e.Target != "" {
		target = " of " + e.Target
	}
	switch {
	case strings.Contains(e.Reason, ":kept:"):
		why := strings.TrimPrefix(e.Reason, e.Cat+":kept:")
		return fmt.Sprintf("%s%s kept: %s", what, target, why)
	default:
		did := strings.TrimPrefix(e.Reason, e.Cat+":")
		return fmt.Sprintf("%s%s %s", what, target, did)
	}
}
