// Command omprof inspects and manipulates om-profile/v1 documents, the
// profile format of the profile-guided-layout feedback loop (collected by
// axsim -profileout, consumed by om -profile).
//
// With one profile it prints a summary: totals, the hottest procedures by
// weight, and the heaviest call edges. -merge combines training runs into
// one profile (counts sum); -diff compares two profiles procedure by
// procedure.
//
// Usage:
//
//	omprof [-top n] profile.json
//	omprof -merge -o merged.json profile.json...
//	omprof -diff old.json new.json
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/profile"
)

func main() {
	top := flag.Int("top", 10, "number of procedures and edges in the summary")
	merge := flag.Bool("merge", false, "merge the input profiles and write the result")
	out := flag.String("o", "merged.json", "output file for -merge")
	diff := flag.Bool("diff", false, "compare two profiles procedure by procedure")
	flag.Parse()

	switch {
	case *merge:
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "usage: omprof -merge -o merged.json profile.json...")
			os.Exit(2)
		}
		var ps []*profile.Profile
		for _, name := range flag.Args() {
			ps = append(ps, read(name))
		}
		merged := profile.Merge(ps...)
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		if err := profile.Write(f, merged); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("merged %d profiles into %s: %d procedures, %d edges\n",
			len(ps), *out, len(merged.Procs), len(merged.Edges))
	case *diff:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: omprof -diff old.json new.json")
			os.Exit(2)
		}
		printDiff(read(flag.Arg(0)), read(flag.Arg(1)))
	default:
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: omprof [-top n] profile.json")
			os.Exit(2)
		}
		summarize(flag.Arg(0), read(flag.Arg(0)), *top)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "omprof:", err)
	os.Exit(1)
}

func read(name string) *profile.Profile {
	f, err := os.Open(name)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	p, err := profile.Read(f)
	if err != nil {
		fail(fmt.Errorf("%s: %w", name, err))
	}
	return p
}

// summarize prints the profile's shape: totals, hottest procedures, and
// heaviest call edges.
func summarize(name string, p *profile.Profile, top int) {
	var weight, entries, edgeWeight uint64
	for _, pc := range p.Procs {
		weight += pc.Weight
		entries += pc.Entries
	}
	for _, e := range p.Edges {
		edgeWeight += e.Weight
	}
	fmt.Printf("%s: source %s, hash %.12s\n", name, p.Source, p.Hash())
	fmt.Printf("  %d procedures (%d entries, %d block executions), %d blocks, %d call edges (%d calls)\n",
		len(p.Procs), entries, weight, len(p.Blocks), len(p.Edges), edgeWeight)

	procs := append([]profile.ProcCount(nil), p.Procs...)
	sort.SliceStable(procs, func(i, j int) bool { return procs[i].Weight > procs[j].Weight })
	if len(procs) > top {
		procs = procs[:top]
	}
	fmt.Println("hot procedures:")
	for _, pc := range procs {
		fmt.Printf("  %-24s weight %-10d entries %d\n", pc.Name, pc.Weight, pc.Entries)
	}

	edges := append([]profile.Edge(nil), p.Edges...)
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].Weight > edges[j].Weight })
	if len(edges) > top {
		edges = edges[:top]
	}
	fmt.Println("hot call edges:")
	for _, e := range edges {
		fmt.Printf("  %-24s -> %-24s weight %d\n", e.Caller, e.Callee, e.Weight)
	}
}

// printDiff lists procedures whose weight changed between the profiles,
// plus procedures present on only one side.
func printDiff(old, new *profile.Profile) {
	ow := make(map[string]uint64, len(old.Procs))
	for _, pc := range old.Procs {
		ow[pc.Name] = pc.Weight
	}
	nw := make(map[string]uint64, len(new.Procs))
	for _, pc := range new.Procs {
		nw[pc.Name] = pc.Weight
	}
	names := make(map[string]bool, len(ow)+len(nw))
	for n := range ow {
		names[n] = true
	}
	for n := range nw {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	changed := 0
	for _, n := range sorted {
		o, inOld := ow[n]
		w, inNew := nw[n]
		switch {
		case !inOld:
			fmt.Printf("  %-24s only in new (weight %d)\n", n, w)
		case !inNew:
			fmt.Printf("  %-24s only in old (weight %d)\n", n, o)
		case o != w:
			fmt.Printf("  %-24s %d -> %d (%+d)\n", n, o, w, int64(w)-int64(o))
		default:
			continue
		}
		changed++
	}
	if changed == 0 {
		fmt.Println("profiles agree on every procedure weight")
	}
}
