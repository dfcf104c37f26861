// Profile: uses OM's symbolic form as a link-time program-analysis platform
// and closes the profile feedback loop the paper points to with ATOM. It
// lifts a whole linked program and reports its static structure (basic
// blocks, address loads, call graph), then runs the OM-full image under the
// simulator's block profiler, prints the hottest procedures, and relinks
// with the profile driving procedure layout.
//
//	go run ./examples/profile
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/profile"
	"repro/internal/rtlib"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/tcc"
)

func main() {
	// Analyze one of the benchmark programs.
	bench, _ := spec.ByName("li")
	var objs []*objfile.Object
	for _, m := range bench.Modules {
		obj, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		objs = append(objs, obj)
	}
	lib, err := rtlib.StandardObjects()
	if err != nil {
		log.Fatal(err)
	}
	p, err := link.Merge(append(objs, lib...))
	if err != nil {
		log.Fatal(err)
	}
	prog, err := om.Lift(p)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("whole-program analysis of %q: %d procedures\n\n", bench.Name, len(prog.Procs))
	fmt.Printf("%-18s %6s %7s %9s %7s %9s\n",
		"procedure", "insts", "blocks", "addrloads", "calls", "indirect")
	totalBlocks, totalCalls := 0, 0
	for _, pr := range prog.Procs {
		blocks := 1
		addrLoads, calls, indirect := 0, 0, 0
		for i, si := range pr.Insts {
			if i > 0 && len(si.Labels) > 0 {
				blocks++
			}
			if si.In.Op.IsBranch() && i+1 < len(pr.Insts) {
				blocks++
			}
			if si.Lit != nil {
				addrLoads++
			}
			if si.In.Op.IsCall() {
				calls++
				if si.Indirect {
					indirect++
				}
			}
		}
		totalBlocks += blocks
		totalCalls += calls
		fmt.Printf("%-18s %6d %7d %9d %7d %9d\n",
			pr.Name, len(pr.Insts), blocks, addrLoads, calls, indirect)
	}
	fmt.Printf("\ntotals: %d basic blocks, %d call sites\n", totalBlocks, totalCalls)

	// The call graph, recovered from relocations alone.
	fmt.Println("\nstatic call graph (direct calls via the GAT or bsr):")
	for _, pr := range prog.Procs {
		var callees []string
		for _, si := range pr.Insts {
			var target *om.Proc
			if si.Call != nil {
				target = si.Call.Target
			} else if si.Use != nil && si.Use.JSR {
				target = prog.ProcFor(si.Use.Lit.Lit.Key)
			}
			if target != nil {
				callees = append(callees, target.Name)
			}
		}
		if len(callees) > 0 {
			fmt.Printf("  %-16s -> %v\n", pr.Name, callees)
		}
	}

	// Now the dynamic side: run the OM-full image with the simulator's
	// block profiler on. Its calls are bsr, so each counted call block
	// decodes to a call edge.
	full, err := om.Run(context.Background(), p, om.WithLevel(om.LevelFull))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(full.Image, sim.Config{MaxInstructions: 200_000_000, Profile: true})
	if err != nil {
		log.Fatal(err)
	}
	prof, err := profile.FromImage(full.Image, res.BlockProfile)
	if err != nil {
		log.Fatal(err)
	}
	hots := append([]profile.ProcCount(nil), prof.Procs...)
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].Weight != hots[j].Weight {
			return hots[i].Weight > hots[j].Weight
		}
		return hots[i].Name < hots[j].Name
	})
	fmt.Printf("\ndynamic profile (%d blocks executed, program output %v):\n", len(res.BlockProfile), res.Output)
	fmt.Printf("%-18s %14s %10s\n", "procedure", "block entries", "entries")
	for i, h := range hots {
		if i >= 8 {
			break
		}
		fmt.Printf("%-18s %14d %10d\n", h.Name, h.Weight, h.Entries)
	}

	// Close the feedback loop: relinking with the profile lays the hot
	// procedures out front (Pettis-Hansen chain merging), verified against
	// the plain OM-full link.
	fmt.Printf("\nprofile: %d procedures, %d call edges (hash %.12s)\n",
		len(prof.Procs), len(prof.Edges), prof.Hash())
	laid, err := om.Run(context.Background(), p, om.WithLevel(om.LevelFull), om.WithProfile(prof))
	if err != nil {
		log.Fatal(err)
	}
	pgo, err := sim.Run(laid.Image, sim.Config{MaxInstructions: 200_000_000})
	if err != nil {
		log.Fatal(err)
	}
	if fmt.Sprint(res.Exit, res.Output) != fmt.Sprint(pgo.Exit, pgo.Output) {
		log.Fatal("profile-guided layout changed program behavior")
	}
	fmt.Println("relinked with profile-guided layout: output identical to OM-full")
}
