// Command om is the optimizing linker: it merges object modules, lifts the
// whole program to symbolic form, performs link-time address-calculation
// optimization at the selected level, and writes an executable image.
//
// Usage:
//
//	om [-o a.out] [-level none|simple|full] [-schedule] [-nostdlib]
//	   [-profile file] [-stats] [-trace file] [-check off|static|full]
//	   [-metrics] [-v] file.o...
//
// -check makes the link prove its output before writing it. static runs the
// whole-program dataflow analysis over the symbolic program before and
// after the optimization passes and over the emitted image; full adds
// translation validation of the image against the link's own decision
// journal. Any error finding or failed verdict refuses the image. With
// -trace, the whole om-check/v1 document (every report, info findings
// included, and at full the verdicts) is written next to the journal as
// <trace>.check.json, also when the check refuses the image.
//
// -profile enables profile-guided procedure layout from an om-profile/v1
// document (collected with axsim -profileout or om -instrument feedback);
// the profile must match the program being linked — stale procedure names
// fail the link.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/harness"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/om"
	"repro/internal/profile"
	"repro/internal/rtlib"
	"repro/internal/verify"
)

func main() {
	out := flag.String("o", "a.out", "output image file")
	level := flag.String("level", "full", "optimization level: none, simple, or full")
	sched := flag.Bool("schedule", false, "reschedule code after optimizing (full only)")
	nostdlib := flag.Bool("nostdlib", false, "do not link the runtime library")
	shared := flag.String("shared", "", "comma-separated module names to treat as a dynamically-linked shared library")
	profFile := flag.String("profile", "", "om-profile JSON document driving profile-guided procedure layout")
	stats := flag.Bool("stats", false, "print static optimization statistics")
	trace := flag.String("trace", "", "write the decision journal (one event per address load/call/GP-reset) to this file, and with -check the check document to <file>.check.json")
	checkFlag := flag.String("check", "off", "prove the output before writing it: off, static (dataflow analysis) or full (static plus translation validation)")
	metrics := flag.Bool("metrics", false, "print per-phase timings as JSON on stderr")
	verbose := flag.Bool("v", false, "print progress")
	flag.Parse()

	// All progress goes through one Logger so -trace/-metrics output and
	// progress lines compose (and tests can swap the sink).
	var logger harness.Logger = harness.LoggerFunc(func(string, ...any) {})
	if *verbose {
		logger = harness.LoggerFunc(func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		})
	}

	checkLevel, err := verify.ParseCheckLevel(*checkFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "om:", err)
		os.Exit(2)
	}
	chk := &verify.Checker{Level: checkLevel}

	lvl, err := om.ParseLevel(*level)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "om: no input objects")
		os.Exit(2)
	}
	objs, err := rtlib.LoadObjects(flag.Args(), !*nostdlib)
	if err != nil {
		fmt.Fprintln(os.Stderr, "om:", err)
		os.Exit(1)
	}
	logger.Logf("om: read %d object modules (%d with the runtime library)", flag.NArg(), len(objs))

	p, err := link.Merge(objs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "om:", err)
		os.Exit(1)
	}
	if *shared != "" {
		p.MarkShared(strings.Split(*shared, ",")...)
	}
	opts := []om.Option{
		om.WithLevel(lvl), om.WithSchedule(*sched),
	}
	if *profFile != "" {
		pf, err := os.Open(*profFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "om:", err)
			os.Exit(1)
		}
		prof, err := profile.Read(pf)
		pf.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "om: %s: %v\n", *profFile, err)
			os.Exit(1)
		}
		opts = append(opts, om.WithProfile(prof))
		logger.Logf("om: profile %s: %d procedures, %d call edges",
			*profFile, len(prof.Procs), len(prof.Edges))
	}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		opts = append(opts, om.WithMetrics(reg))
	}
	if *trace != "" {
		opts = append(opts, om.WithTrace())
	}
	res, err := om.Run(context.Background(), p, append(opts, chk.Options()...)...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "om:", err)
		os.Exit(1)
	}
	logger.Logf("om: optimized at %v: %v", lvl, res.Stats)
	im := res.Image
	if chk.Level != verify.CheckOff {
		doc, err := chk.Finish(res)
		if err == nil && *trace != "" {
			if err = writeCheckDoc(*trace+".check.json", doc); err == nil {
				logger.Logf("om: wrote the check document to %s.check.json", *trace)
			}
		}
		if err == nil {
			err = doc.Err()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "om: %v; refusing to write %s\n", err, *out)
			os.Exit(1)
		}
		logger.Logf("om: check %s ok (%d checks)", chk.Level, doc.Checked())
	}
	if *stats {
		fmt.Fprintln(os.Stderr, res.Stats)
	}
	if *trace != "" {
		tf, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "om:", err)
			os.Exit(1)
		}
		if err := obs.WriteJournal(tf, res.Journal); err != nil {
			fmt.Fprintln(os.Stderr, "om:", err)
			os.Exit(1)
		}
		tf.Close()
		logger.Logf("om: wrote decision journal (%d events) to %s", len(res.Journal.Events), *trace)
	}
	if reg != nil {
		data, err := json.MarshalIndent(reg.Snapshot(), "", "\t")
		if err != nil {
			fmt.Fprintln(os.Stderr, "om:", err)
			os.Exit(1)
		}
		os.Stderr.Write(append(data, '\n'))
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "om:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := im.Write(f); err != nil {
		fmt.Fprintln(os.Stderr, "om:", err)
		os.Exit(1)
	}
	logger.Logf("om: wrote %s", *out)
}

// writeCheckDoc writes a check document to the named file.
func writeCheckDoc(name string, doc *verify.CheckDoc) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := doc.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
