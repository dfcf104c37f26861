// Command axsim runs an executable image in the Alpha AXP simulator and
// reports the program's output and, with -timing, the pipeline statistics.
// With -profile it additionally prints a hot-block report (per-block
// execution counts attributed to procedures) and the dynamic instruction
// mix; -profileout writes the counts as an om-profile/v1 document that
// om -profile and omprof consume; -metrics emits the run's counters as
// JSON on stderr.
//
// Usage:
//
//	axsim [-timing] [-profile] [-profileout file] [-metrics] [-max n] a.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/objfile"
	"repro/internal/profile"
	"repro/internal/sim"
)

func main() {
	timing := flag.Bool("timing", false, "model the dual-issue pipeline and caches")
	prof := flag.Bool("profile", false, "collect per-block execution counts and the instruction mix")
	profOut := flag.String("profileout", "", "write the block counts as an om-profile JSON document to this file")
	metrics := flag.Bool("metrics", false, "print run statistics as JSON on stderr")
	maxInst := flag.Uint64("max", 0, "abort after this many instructions (0 = default cap)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: axsim [-timing] [-profile] [-profileout file] [-metrics] a.out")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "axsim:", err)
		os.Exit(1)
	}
	im, err := objfile.ReadImage(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "axsim:", err)
		os.Exit(1)
	}
	cfg := sim.Config{MaxInstructions: *maxInst}
	if *timing {
		cfg = sim.DefaultConfig()
		cfg.MaxInstructions = *maxInst
	}
	cfg.Profile = *prof || *profOut != ""
	res, err := sim.Run(im, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "axsim:", err)
		os.Exit(1)
	}
	for _, v := range res.Output {
		fmt.Println(v)
	}
	if len(res.OutBytes) > 0 {
		os.Stdout.Write(res.OutBytes)
	}
	if *timing {
		s := res.Stats
		fmt.Fprintf(os.Stderr, "instructions %d\ncycles       %d\ncpi          %.3f\ndual-issued  %d\nloads        %d\nstores       %d\ntaken-br     %d\nicache       %d hits, %d misses\ndcache       %d hits, %d misses\n",
			s.Instructions, s.Cycles, float64(s.Cycles)/float64(s.Instructions),
			s.DualIssued, s.Loads, s.Stores, s.TakenBranch,
			s.ICacheHits, s.ICacheMisses, s.DCacheHits, s.DCacheMisses)
	}
	if *prof {
		printProfile(im, res)
	}
	if *profOut != "" {
		if err := writeProfile(*profOut, im, res); err != nil {
			fmt.Fprintln(os.Stderr, "axsim:", err)
			os.Exit(1)
		}
	}
	if *metrics {
		data, err := json.MarshalIndent(res.Stats, "", "\t")
		if err != nil {
			fmt.Fprintln(os.Stderr, "axsim:", err)
			os.Exit(1)
		}
		os.Stderr.Write(append(data, '\n'))
	}
	os.Exit(int(res.Exit & 0x7F))
}

// printProfile renders the hot-block report (top 20 block entry points,
// attributed to the covering procedure symbol) and the instruction mix.
func printProfile(im *objfile.Image, res *sim.Result) {
	fmt.Fprintf(os.Stderr, "hot blocks (%d distinct entry points):\n", len(res.BlockProfile))
	top := res.BlockProfile
	if len(top) > 20 {
		top = top[:20]
	}
	for _, b := range top {
		fmt.Fprintf(os.Stderr, "  %#10x %-24s %4d insts × %d\n",
			b.PC, procNameAt(im, b.PC), b.Len, b.Count)
	}
	type mix struct {
		op string
		n  uint64
	}
	var mixes []mix
	var total uint64
	for op, n := range res.InstMix {
		mixes = append(mixes, mix{op, n})
		total += n
	}
	sort.Slice(mixes, func(i, j int) bool {
		if mixes[i].n != mixes[j].n {
			return mixes[i].n > mixes[j].n
		}
		return mixes[i].op < mixes[j].op
	})
	fmt.Fprintln(os.Stderr, "instruction mix:")
	for _, m := range mixes {
		fmt.Fprintf(os.Stderr, "  %-8s %12d  %5.1f%%\n", m.op, m.n, 100*float64(m.n)/float64(total))
	}
}

// writeProfile converts the engine's block counts into an om-profile
// document (procedure weights, entry counts, and the bsr call edges
// decodable from the image) and writes it to the named file.
func writeProfile(name string, im *objfile.Image, res *sim.Result) error {
	p, err := profile.FromImage(im, res.BlockProfile)
	if err != nil {
		return err
	}
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := profile.Write(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// procNameAt finds the procedure symbol covering the address.
func procNameAt(im *objfile.Image, pc uint64) string {
	for _, s := range im.Symbols {
		if s.Kind == objfile.SymProc && pc >= s.Addr && pc < s.Addr+s.Size {
			return s.Name
		}
	}
	return "?"
}
