// Command omverify is the correctness gate for the link-time optimizer: it
// checks linked images, runs the check matrix over benchmarks and user
// objects, and differentially executes generated programs across the
// option matrix. A single link is checked by om -check.
//
// Usage:
//
//	omverify -matrix [-bench name,...] [-quick] [-json]
//	omverify -diff N [-seed S] [-json]
//	omverify -image a.out [-journal journal.json] [-json]
//	omverify -checks [-json]
//	omverify -faultcheck
//	omverify [-quick] [-nostdlib] [-json] file.o...
//
// -matrix compiles the named benchmarks (default: the full suite) and runs
// every golden matrix cell — each optimization level with and without
// scheduling, every single-component ablation of OM-full, and
// profile-guided layout — under the full check: the dataflow analysis of
// the lifted program, the optimized program and the image, plus
// translation validation of the decision journal. A cell fails on any
// error finding or failed verdict. -quick restricts the run to the
// differential runner's smaller cell set.
//
// -diff N generates N random programs, links each one unoptimized and
// through every quick cell, and diffs the final architectural state (exit,
// output traps, output bytes, data memory); the optimized images are also
// translation-validated, so one run exercises both pillars.
//
// -image checks an already-linked image and prints its om-check/v1
// document with -json. Alone it runs the dataflow analysis of the image,
// structure included (level static); with the decision journal of the link
// that produced it (om -trace), it also translation-validates the journal
// against the image (level full). It exits 1 on any error finding or
// failed verdict.
//
// -checks prints the dataflow analysis's check catalog (DF001…).
//
// -faultcheck is the detection-power self-test: it installs the standard
// fault injection (a kept address load silently deleted after the passes),
// links a fixture under om -check static, and fails unless the analysis
// reports the break.
//
// With object file arguments, the objects are linked and checked across
// the matrix cells; no other command runs the matrix over user objects.
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
	"repro/internal/obs"
	"repro/internal/om"
	"repro/internal/rtlib"
	benchspec "repro/internal/spec"
	"repro/internal/tcc"
	"repro/internal/verify"
)

func main() {
	matrix := flag.Bool("matrix", false, "verify the golden matrix over built-in benchmarks")
	bench := flag.String("bench", "", "comma-separated benchmark names for -matrix (default: all)")
	quick := flag.Bool("quick", false, "use the quick cell set instead of the full golden matrix")
	diff := flag.Int("diff", 0, "run N differential cases (generated programs, unoptimized vs every quick cell)")
	seed := flag.Int64("seed", 1, "base seed for -diff program generation")
	image := flag.String("image", "", "check this linked image instead of running the matrix")
	journal := flag.String("journal", "", "decision journal of the -image link: adds translation validation (check level full)")
	checks := flag.Bool("checks", false, "print the dataflow check catalog")
	faultcheck := flag.Bool("faultcheck", false, "self-test: inject the standard pass fault and require a static finding")
	nostdlib := flag.Bool("nostdlib", false, "do not add the runtime library to object file arguments")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of the text report")
	flag.Parse()

	ctx := context.Background()
	switch {
	case *checks:
		runChecks(*jsonOut)
	case *faultcheck:
		runFaultcheck(ctx)
	case *image != "":
		runImage(*image, *journal, *jsonOut)
	case *diff > 0:
		runDiff(ctx, *diff, *seed, *jsonOut)
	case *matrix:
		runBenchMatrix(ctx, *bench, cells(*quick), *jsonOut)
	case flag.NArg() > 0:
		runObjects(ctx, flag.Args(), *nostdlib, cells(*quick), *jsonOut)
	default:
		fmt.Fprintln(os.Stderr, "usage: omverify -matrix | -diff N | -image a.out | -checks | -faultcheck | file.o...")
		os.Exit(2)
	}
}

func cells(quick bool) []verify.Cell {
	if quick {
		return verify.QuickCells()
	}
	return verify.MatrixCells()
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "omverify: "+format+"\n", args...)
	os.Exit(1)
}

// runImage checks one linked image, against its journal when one is given.
func runImage(imgFile, journalFile string, jsonOut bool) {
	f, err := os.Open(imgFile)
	if err != nil {
		fail("%v", err)
	}
	im, err := objfile.ReadImage(f)
	f.Close()
	if err != nil {
		fail("%s: %v", imgFile, err)
	}
	var j *obs.JournalDoc
	if journalFile != "" {
		jf, err := os.Open(journalFile)
		if err != nil {
			fail("%v", err)
		}
		j, err = obs.ReadJournal(jf)
		jf.Close()
		if err != nil {
			fail("%s: %v", journalFile, err)
		}
	}
	doc, err := verify.CheckImage(im, j)
	if err != nil {
		fail("%s: %v", imgFile, err)
	}
	if jsonOut {
		if err := doc.Write(os.Stdout); err != nil {
			fail("%v", err)
		}
	} else {
		printCheck(imgFile, doc)
	}
	if doc.Err() != nil {
		os.Exit(1)
	}
}

// printCheck renders a check document: one line per report with its error
// findings, then the verdict totals and failed verdicts.
func printCheck(label string, doc *verify.CheckDoc) {
	for _, r := range doc.Reports {
		what := r.Source
		if r.Stage != "" {
			what += ":" + r.Stage
		}
		fmt.Printf("%-12s %-36s %6d checks  %d errors, %d info\n",
			label, what, r.Checked, r.Errors(), len(r.Findings)-r.Errors())
		for _, f := range r.Findings {
			if f.Severity == dataflow.SevError {
				fmt.Printf("  %s %s\n", f.Severity, f)
			}
		}
	}
	if v := doc.Verify; v != nil {
		fmt.Printf("%-12s %-36s %6d checks  %d failed\n", label, "verify", v.Checked, v.Failed)
		for _, vd := range v.Verdicts {
			if !vd.OK {
				fmt.Printf("  FAIL %s %s %s [%s]: %s\n", vd.Cat, vd.Proc, vd.Reason, vd.Rule, vd.Err)
			}
		}
	}
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
// check of an OM-full link must produce at least one error finding.
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
	p, err := link.Merge(append([]*objfile.Object{obj}, lib...))
	if err != nil {
		fail("%v", err)
	}
	chk := &verify.Checker{Level: verify.CheckStatic}
	res, err := om.Run(ctx, p, append(chk.Options(), om.WithLevel(om.LevelFull))...)
	if err != nil {
		fail("%v", err)
	}
	doc, err := chk.Finish(res)
	if err != nil {
		fail("%v", err)
	}
	if !injected {
		fail("faultcheck: no kept address load to break — fixture no longer exercises the hook")
	}
	errs := 0
	for _, r := range doc.Reports {
		for _, f := range r.Findings {
			if f.Severity == dataflow.SevError {
				fmt.Printf("caught: %s:%s %s\n", r.Source, r.Stage, f)
				errs++
			}
		}
	}
	if errs == 0 {
		fail("faultcheck: the injected fault produced no error finding — detection power lost")
	}
	fmt.Printf("faultcheck ok: %d error finding(s) on the broken program\n", errs)
}

// runDiff is the differential-fuzzing mode.
func runDiff(ctx context.Context, cases int, seed int64, jsonOut bool) {
	rep, err := verify.Differential(ctx, verify.DiffOptions{Cases: cases, Seed: seed})
	if err != nil {
		fail("%v", err)
	}
	if jsonOut {
		emitJSON(rep)
	} else {
		fmt.Printf("differential: %d cases, %d runs, %d memory checks, %d mismatches\n",
			rep.Cases, rep.Runs, rep.Checked, len(rep.Mismatches))
		for _, m := range rep.Mismatches {
			fmt.Printf("  FAIL seed=%d cell=%s %s: %s\n", m.Seed, m.Cell, m.Field, m.Detail)
		}
	}
	if len(rep.Mismatches) > 0 {
		os.Exit(1)
	}
}

// runBenchMatrix compiles each named benchmark and verifies it across the
// cell set.
func runBenchMatrix(ctx context.Context, names string, cs []verify.Cell, jsonOut bool) {
	var benches []benchspec.Benchmark
	if names == "" {
		benches = benchspec.All()
	} else {
		for _, n := range strings.Split(names, ",") {
			b, ok := benchspec.ByName(strings.TrimSpace(n))
			if !ok {
				fail("unknown benchmark %q", n)
			}
			benches = append(benches, b)
		}
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		fail("%v", err)
	}
	var entries []verify.MatrixEntry
	for _, b := range benches {
		var objs []*objfile.Object
		for _, m := range b.Modules {
			obj, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
			if err != nil {
				fail("%s: %v", b.Name, err)
			}
			objs = append(objs, obj)
		}
		objs = append(objs, lib...)
		entries = append(entries, verify.RunMatrix(ctx, b.Name, objs, cs)...)
	}
	report(entries, jsonOut)
}

// runObjects verifies already-compiled object files across the cell set.
func runObjects(ctx context.Context, files []string, nostdlib bool, cs []verify.Cell, jsonOut bool) {
	objs, err := rtlib.LoadObjects(files, !nostdlib)
	if err != nil {
		fail("%v", err)
	}
	report(verify.RunMatrix(ctx, strings.Join(files, ","), objs, cs), jsonOut)
}

// report renders matrix entries and exits nonzero if any cell failed.
func report(entries []verify.MatrixEntry, jsonOut bool) {
	failed := 0
	for _, e := range entries {
		if e.Failed > 0 || e.Err != "" {
			failed++
		}
	}
	if jsonOut {
		emitJSON(struct {
			Entries []verify.MatrixEntry `json:"entries"`
			Failed  int                  `json:"failed_cells"`
		}{entries, failed})
	} else {
		for _, e := range entries {
			status := "ok"
			if e.Failed > 0 || e.Err != "" {
				status = "FAIL " + e.Err
			}
			fmt.Printf("%-12s %-36s %6d checks  %s\n", e.Label, e.Cell, e.Checked, status)
		}
		fmt.Printf("%d cells, %d failed\n", len(entries), failed)
	}
	if failed > 0 {
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
