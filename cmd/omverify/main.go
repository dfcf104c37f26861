// Command omverify is the correctness gate for the link-time optimizer: it
// translation-validates OM's decision journal against produced images and
// differentially executes generated programs across the option matrix.
//
// Usage:
//
//	omverify -matrix [-bench name,...] [-quick] [-json]
//	omverify -diff N [-seed S] [-json]
//	omverify -image a.out -journal journal.json [-json]
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
// -image translation-validates an already-linked image against its
// decision journal (om -trace), which is required; the structural checks of
// an image alone are `omlint -image`.
//
// With object file arguments, the objects are linked and checked across
// the matrix cells directly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/objfile"
	"repro/internal/obs"
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
	image := flag.String("image", "", "validate this linked image instead of running the matrix")
	journal := flag.String("journal", "", "decision journal for -image translation validation (required with -image)")
	nostdlib := flag.Bool("nostdlib", false, "do not add the runtime library to object file arguments")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of the text report")
	flag.Parse()

	ctx := context.Background()
	switch {
	case *image != "":
		runImage(*image, *journal, *jsonOut)
	case *diff > 0:
		runDiff(ctx, *diff, *seed, *jsonOut)
	case *matrix:
		runBenchMatrix(ctx, *bench, cells(*quick), *jsonOut)
	case flag.NArg() > 0:
		runObjects(ctx, flag.Args(), *nostdlib, cells(*quick), *jsonOut)
	default:
		fmt.Fprintln(os.Stderr, "usage: omverify -matrix | -diff N | -image a.out | file.o...")
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

// runImage translation-validates one linked image against its journal.
func runImage(imgFile, journalFile string, jsonOut bool) {
	if journalFile == "" {
		fmt.Fprintln(os.Stderr, "omverify: -image requires -journal (use omlint -image for structural checks)")
		os.Exit(2)
	}
	f, err := os.Open(imgFile)
	if err != nil {
		fail("%v", err)
	}
	im, err := objfile.ReadImage(f)
	f.Close()
	if err != nil {
		fail("%s: %v", imgFile, err)
	}
	jf, err := os.Open(journalFile)
	if err != nil {
		fail("%v", err)
	}
	j, err := obs.ReadJournal(jf)
	jf.Close()
	if err != nil {
		fail("%s: %v", journalFile, err)
	}
	doc, err := verify.Translate(im, j)
	if err != nil {
		fail("%s: %v", imgFile, err)
	}
	if jsonOut {
		if err := verify.Write(os.Stdout, doc); err != nil {
			fail("%v", err)
		}
	} else {
		fmt.Printf("%s: %d checks, %d failed\n", imgFile, doc.Checked, doc.Failed)
		for _, v := range doc.Verdicts {
			if !v.OK {
				fmt.Printf("  FAIL %s %s %s [%s]: %s\n", v.Cat, v.Proc, v.Reason, v.Rule, v.Err)
			}
		}
	}
	if doc.Failed > 0 {
		os.Exit(1)
	}
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
