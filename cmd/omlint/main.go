// Command omlint statically proves OM's address-calculation invariants: it
// runs the whole-program dataflow analysis (CFG construction, reaching
// definitions, liveness, and an abstract interpretation of register
// contents) over OM's symbolic program form and over final linked images,
// without executing anything.
//
// Usage:
//
//	omlint -image a.out [-json] [-missed]
//	omlint -faultcheck
//	omlint -checks [-json]
//	omlint [-level full] [-sched] [-nostdlib] [-json] [-missed] file.o...
//
// -image analyzes an already-linked executable: the dataflow checks plus
// the image's structure (it validates, its entry and every bsr land on
// procedure entries, every text word decodes, every branch lands in text,
// GPs name GATs, and every GAT slot holds an address inside the image).
// With object file arguments, the objects are linked, optimized at -level,
// and checked at the static level (om -check static): the lifted symbolic
// program (pre-pass), the optimized symbolic program (post-pass), and the
// emitted image. The golden matrix runs under omverify -matrix, whose full
// check includes these analyses.
//
// -faultcheck is the detection-power self-test: it installs the standard
// fault injection (a kept address load silently deleted after the passes)
// and fails unless the analysis reports the break.
//
// -missed includes info-severity findings (missed optimizations,
// unreachable code) in the text output; errors are always shown. The exit
// status reflects error findings only.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/rtlib"
	"repro/internal/tcc"
	"repro/internal/verify"
)

func main() {
	image := flag.String("image", "", "analyze this linked image")
	faultcheck := flag.Bool("faultcheck", false, "self-test: inject the standard pass fault and require a finding")
	checks := flag.Bool("checks", false, "print the check catalog")
	level := flag.String("level", "full", "optimization level for object file arguments (none, simple, full)")
	sched := flag.Bool("sched", false, "enable instruction scheduling for object file arguments")
	nostdlib := flag.Bool("nostdlib", false, "do not add the runtime library to object file arguments")
	missed := flag.Bool("missed", false, "include info-severity findings (missed optimizations) in text output")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of the text report")
	flag.Parse()

	ctx := context.Background()
	switch {
	case *checks:
		runChecks(*jsonOut)
	case *faultcheck:
		runFaultcheck(ctx)
	case *image != "":
		runImage(*image, *jsonOut, *missed)
	case flag.NArg() > 0:
		runObjects(ctx, flag.Args(), *level, *sched, *nostdlib, *jsonOut, *missed)
	default:
		fmt.Fprintln(os.Stderr, "usage: omlint -image a.out | -faultcheck | -checks | file.o...")
		os.Exit(2)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "omlint: "+format+"\n", args...)
	os.Exit(1)
}

// runChecks prints the stable check catalog.
func runChecks(jsonOut bool) {
	cat := dataflow.Checks()
	if jsonOut {
		emitJSON(cat)
		return
	}
	for _, c := range cat {
		fmt.Printf("%s %-22s %-5s %s\n", c.ID, c.Name, c.Severity, c.Doc)
	}
}

// runImage analyzes one linked image.
func runImage(imgFile string, jsonOut, missed bool) {
	f, err := os.Open(imgFile)
	if err != nil {
		fail("%v", err)
	}
	im, err := objfile.ReadImage(f)
	f.Close()
	if err != nil {
		fail("%s: %v", imgFile, err)
	}
	rep, err := dataflow.AnalyzeImage(im)
	if err != nil {
		fail("%s: %v", imgFile, err)
	}
	report(imgFile, []*dataflow.Report{rep}, jsonOut, missed)
}

// runObjects links the objects, optimizes at the requested level, and
// analyzes the symbolic program at both observer stages plus the image.
func runObjects(ctx context.Context, files []string, level string, sched, nostdlib, jsonOut, missed bool) {
	lvl, err := om.ParseLevel(strings.TrimPrefix(level, "om-"))
	if err != nil {
		fail("%v", err)
	}
	var objs []*objfile.Object
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			fail("%v", err)
		}
		obj, err := objfile.Read(f)
		f.Close()
		if err != nil {
			fail("%s: %v", name, err)
		}
		objs = append(objs, obj)
	}
	if !nostdlib {
		lib, err := rtlib.StandardObjects()
		if err != nil {
			fail("%v", err)
		}
		objs = append(objs, lib...)
	}
	reps, err := lintObjects(ctx, objs, lvl, sched)
	if err != nil {
		fail("%v", err)
	}
	report(strings.Join(files, ","), reps, jsonOut, missed)
}

// lintObjects links and optimizes the objects under the static check,
// returning its three reports: the lifted program, the optimized program,
// and the emitted image.
func lintObjects(ctx context.Context, objs []*objfile.Object, lvl om.Level, sched bool) ([]*dataflow.Report, error) {
	p, err := link.Merge(objs)
	if err != nil {
		return nil, err
	}
	chk := &verify.Checker{Level: verify.CheckStatic}
	res, err := om.Run(ctx, p, append([]om.Option{om.WithLevel(lvl), om.WithSchedule(sched)}, chk.Options()...)...)
	if err != nil {
		return nil, err
	}
	doc, err := chk.Finish(res)
	if err != nil {
		return nil, err
	}
	return doc.Reports, nil
}

// faultcheckProgram is the fixture the self-test optimizes and breaks. The
// address-taken comparator guarantees a GAT address load survives OM-full
// (a procedure literal cannot be converted to GP-relative arithmetic or to
// a bsr), giving the fault hook a victim.
const faultcheckProgram = `
long table[24];
long acc = 0;

long step(long a, long b) { return b - a; }

long main() {
	long i;
	for (i = 0; i < 24; i = i + 1) {
		table[i] = lhash(i) % 97;
		acc = acc + table[i];
	}
	qsort8(table, 0, 23, step);
	print(acc);
	return 0;
}
`

// runFaultcheck proves detection power: with the standard fault injection
// installed (a kept address load deleted after the passes), the static
// check must produce at least one error finding.
func runFaultcheck(ctx context.Context) {
	injected := false
	defer om.SetFaultHookForTesting(func(pg *om.Prog) { injected = om.DeleteKeptLoad(pg) })()

	obj, err := tcc.Compile("prog", []tcc.Source{{Name: "prog", Text: faultcheckProgram}}, tcc.DefaultOptions())
	if err != nil {
		fail("%v", err)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		fail("%v", err)
	}
	reps, err := lintObjects(ctx, append([]*objfile.Object{obj}, lib...), om.LevelFull, false)
	if err != nil {
		fail("%v", err)
	}
	if !injected {
		fail("faultcheck: no kept address load to break — fixture no longer exercises the hook")
	}
	errs := 0
	for _, r := range reps {
		for _, f := range r.Findings {
			if f.Severity == dataflow.SevError {
				fmt.Printf("caught: %s:%s %s\n", r.Source, r.Stage, f.String())
				errs++
			}
		}
	}
	if errs == 0 {
		fail("faultcheck: the injected fault produced no error finding — detection power lost")
	}
	fmt.Printf("faultcheck ok: %d error finding(s) on the broken program\n", errs)
}

// report renders one or more findings documents and exits nonzero on any
// error finding.
func report(label string, reps []*dataflow.Report, jsonOut, missed bool) {
	errs := 0
	for _, r := range reps {
		errs += r.Errors()
	}
	if jsonOut {
		if len(reps) == 1 {
			if err := reps[0].Write(os.Stdout); err != nil {
				fail("%v", err)
			}
		} else {
			emitJSON(struct {
				Schema  string             `json:"schema"`
				Reports []*dataflow.Report `json:"reports"`
			}{dataflow.Schema, reps})
		}
	} else {
		for _, r := range reps {
			what := r.Source
			if r.Stage != "" {
				what += ":" + r.Stage
			}
			info := len(r.Findings) - r.Errors()
			fmt.Printf("%-12s %-36s %6d checks  %d errors, %d info\n",
				label, what, r.Checked, r.Errors(), info)
			for _, f := range r.Findings {
				if f.Severity == dataflow.SevError || missed {
					fmt.Printf("  %s %s\n", f.Severity, f.String())
				}
			}
		}
	}
	if errs > 0 {
		os.Exit(1)
	}
}

// emitJSON prints v in the repository's JSON house style (tab-indented,
// trailing newline).
func emitJSON(v any) {
	data, err := json.MarshalIndent(v, "", "\t")
	if err != nil {
		fail("%v", err)
	}
	os.Stdout.Write(append(data, '\n'))
}
