// Command omdump prints OM's symbolic view of a merged program: procedures,
// their relocation-derived annotations, and per-procedure statistics. It is
// the debugging window into the lift phase. With -stats it instead runs the
// optimizer with the decision journal enabled and prints a per-procedure
// breakdown of what happened to every candidate site.
//
// Usage:
//
//	omdump [-proc name] [-nostdlib] [-stats [-level none|simple|full]] file.o...
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/axp"
	"repro/internal/link"
	"repro/internal/om"
	"repro/internal/rtlib"
)

func main() {
	proc := flag.String("proc", "", "dump only the named procedure")
	nostdlib := flag.Bool("nostdlib", false, "do not merge the runtime library")
	stats := flag.Bool("stats", false, "run the optimizer and print a per-procedure decision breakdown")
	level := flag.String("level", "full", "optimization level for -stats: none, simple, or full")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "omdump: no input objects")
		os.Exit(2)
	}
	objs, err := rtlib.LoadObjects(flag.Args(), !*nostdlib)
	if err != nil {
		fmt.Fprintln(os.Stderr, "omdump:", err)
		os.Exit(1)
	}
	p, err := link.Merge(objs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "omdump:", err)
		os.Exit(1)
	}
	if *stats {
		if err := dumpStats(p, *level, *proc); err != nil {
			fmt.Fprintln(os.Stderr, "omdump:", err)
			os.Exit(1)
		}
		return
	}
	prog, err := om.Lift(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "omdump:", err)
		os.Exit(1)
	}
	for _, pr := range prog.Procs {
		if *proc != "" && pr.Name != *proc {
			continue
		}
		dumpProc(prog, pr)
	}
}

func dumpProc(prog *om.Prog, pr *om.Proc) {
	fmt.Printf("%s: (module %d, %d instructions", pr.Name, pr.Mod, len(pr.Insts))
	if pr.DataAddrTaken {
		fmt.Print(", address in data")
	}
	fmt.Println(")")
	for i, si := range pr.Insts {
		fmt.Printf("  %4d: %-28v", i, si.In)
		switch {
		case si.Lit != nil:
			fmt.Printf(" LITERAL %s%+d (%d uses)", si.Lit.Key.Name, si.Lit.Key.Addend, len(si.Lit.Uses))
		case si.Use != nil && si.Use.JSR:
			fmt.Print(" LITUSE jsr")
		case si.Use != nil:
			fmt.Print(" LITUSE base")
		case si.GPD != nil && si.GPD.High && si.GPD.Entry:
			fmt.Print(" GPDISP prologue (hi)")
		case si.GPD != nil && si.GPD.High:
			fmt.Print(" GPDISP after-call (hi)")
		case si.GPD != nil:
			fmt.Print(" GPDISP (lo)")
		case si.Call != nil:
			fmt.Printf(" CALL %s+%d", si.Call.Target.Name, si.Call.EntryOffset)
		case si.Indirect:
			fmt.Print(" indirect call")
		case si.GPRel != nil:
			fmt.Printf(" GPREL %s%+d", si.GPRel.Key.Name, si.GPRel.Extra)
		}
		if si.In.Op.IsBranch() && si.Target >= 0 {
			fmt.Printf(" -> L%d", si.Target)
		}
		for _, l := range si.Labels {
			fmt.Printf(" [L%d]", l)
		}
		fmt.Println()
		_ = i
	}
	_ = axp.WordBytes
	fmt.Println()
}

// dumpStats runs the optimizer with the decision journal enabled and prints
// a per-procedure table: how many address loads were converted, nullified,
// or kept; how many calls became direct or stayed indirect; and how many
// GP-reset pairs were removed. The totals row matches om.Stats.
func dumpStats(p *link.Program, level, procFilter string) error {
	var lvl om.Level
	switch level {
	case "none":
		lvl = om.LevelNone
	case "simple":
		lvl = om.LevelSimple
	case "full":
		lvl = om.LevelFull
	default:
		return fmt.Errorf("unknown level %q", level)
	}
	res, err := om.Run(context.Background(), p, om.WithLevel(lvl), om.WithTrace())
	if err != nil {
		return err
	}
	type row struct {
		addrConv, addrNull, addrKept uint64
		callConv, callDir, callKept  uint64
		resetRm, resetKept           uint64
	}
	byProc := map[string]*row{}
	var names []string
	for _, e := range res.Journal.Events {
		r := byProc[e.Proc]
		if r == nil {
			r = &row{}
			byProc[e.Proc] = r
			names = append(names, e.Proc)
		}
		switch {
		case strings.HasPrefix(e.Reason, "addr:converted"):
			r.addrConv++
		case strings.HasPrefix(e.Reason, "addr:nullified"):
			r.addrNull++
		case e.Cat == "addr":
			r.addrKept++
		case strings.HasPrefix(e.Reason, "call:converted"):
			r.callConv++
		case strings.HasPrefix(e.Reason, "call:already-direct"):
			r.callDir++
		case e.Cat == "call":
			r.callKept++
		case strings.HasPrefix(e.Reason, "gpreset:removed"):
			r.resetRm++
		default:
			r.resetKept++
		}
	}
	sort.Strings(names)
	fmt.Printf("per-procedure decision breakdown at level %s (%d events)\n", level, len(res.Journal.Events))
	fmt.Printf("%-24s | %6s %6s %6s | %6s %6s %6s | %6s %6s\n",
		"procedure", "a.conv", "a.null", "a.kept", "c.conv", "c.dir", "c.kept", "r.gone", "r.kept")
	fmt.Println(strings.Repeat("-", 24+3+3*7+3+3*7+3+2*7))
	var tot row
	for _, n := range names {
		if procFilter != "" && n != procFilter {
			continue
		}
		r := byProc[n]
		fmt.Printf("%-24s | %6d %6d %6d | %6d %6d %6d | %6d %6d\n",
			n, r.addrConv, r.addrNull, r.addrKept, r.callConv, r.callDir, r.callKept, r.resetRm, r.resetKept)
		tot.addrConv += r.addrConv
		tot.addrNull += r.addrNull
		tot.addrKept += r.addrKept
		tot.callConv += r.callConv
		tot.callDir += r.callDir
		tot.callKept += r.callKept
		tot.resetRm += r.resetRm
		tot.resetKept += r.resetKept
	}
	fmt.Printf("%-24s | %6d %6d %6d | %6d %6d %6d | %6d %6d\n",
		"TOTAL", tot.addrConv, tot.addrNull, tot.addrKept, tot.callConv, tot.callDir, tot.callKept, tot.resetRm, tot.resetKept)
	fmt.Printf("\nstats: %v\n", res.Stats)
	return nil
}
