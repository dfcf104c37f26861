package dataflow

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/axp"
	"repro/internal/objfile"
	"repro/internal/om"
	"repro/internal/progen"
)

// sites is a dense bit vector over instruction indexes (definition sites).
type sites []uint64

func (s sites) set(i int) { s[i/64] |= 1 << (i % 64) }

func (s sites) intersects(t sites) bool {
	for i := range s {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}

// siteFlow is the reference DF006 solver: classic reaching definitions
// over definition sites, one n-bit set per block, as DF006 was first
// answered. The oracle test drives the checks from it.
type siteFlow struct {
	// in[b] is the set of definitions reaching block b's entry.
	in []sites
	// defsOf[r] is the set of sites defining integer register r.
	defsOf [axp.NumRegs]sites
	// calls marks call sites. A call defines every register at once, so a
	// later definition of one register must not kill the site.
	calls sites
}

// solveSites runs the forward may-analysis over definition sites.
func solveSites(pr *Proc) *siteFlow {
	n, nb := len(pr.Code), len(pr.Blocks)
	words := (n + 63) / 64
	df := &siteFlow{in: make([]sites, nb), calls: make(sites, words)}
	for r := range df.defsOf {
		df.defsOf[r] = make(sites, words)
	}
	for i := 0; i < n; i++ {
		if pr.Code[i].Call {
			df.calls.set(i)
		}
		d := pr.defs(i).Int
		for r := 0; r < axp.NumRegs; r++ {
			if d&(1<<r) != 0 {
				df.defsOf[r].set(i)
			}
		}
	}
	gen := make([]sites, nb)
	killRegs := make([]uint64, nb)
	out := make([]sites, nb)
	preds := make([][]int, nb)
	for b, blk := range pr.Blocks {
		df.in[b], gen[b], out[b] = make(sites, words), make(sites, words), make(sites, words)
		for i := blk.Start; i < blk.End; i++ {
			d := pr.defs(i).Int
			if d == 0 {
				continue
			}
			killRegs[b] |= d
			df.kill(gen[b], d)
			gen[b].set(i)
		}
		for _, s := range blk.Succs {
			preds[s] = append(preds[s], b)
		}
	}
	for changed := true; changed; {
		changed = false
		for b := range pr.Blocks {
			in := make(sites, words)
			for _, p := range preds[b] {
				for w := range in {
					in[w] |= out[p][w]
				}
			}
			if !reflect.DeepEqual(in, df.in[b]) {
				df.in[b] = in
				changed = true
			}
			// out = gen ∪ (in − kill); a block with a call kills even
			// prior calls.
			newOut := append(sites(nil), in...)
			df.kill(newOut, killRegs[b])
			if killRegs[b] == allRegs&^(1<<axp.Zero) {
				clear(newOut)
			}
			for w := range newOut {
				newOut[w] |= gen[b][w]
			}
			if !reflect.DeepEqual(newOut, out[b]) {
				out[b] = newOut
				changed = true
			}
		}
	}
	return df
}

// kill removes from s every non-call site defining a register of d.
func (df *siteFlow) kill(s sites, d uint64) {
	for r := 0; r < axp.NumRegs; r++ {
		if d&(1<<r) != 0 {
			for w := range s {
				s[w] &^= df.defsOf[r][w] &^ df.calls[w]
			}
		}
	}
}

// step advances s past instruction i: a call replaces every site, any
// other definition kills its registers' non-call sites and adds itself.
func (df *siteFlow) step(pr *Proc, s sites, i int) {
	if pr.Code[i].Call {
		clear(s)
	} else if d := pr.defs(i).Int; d != 0 {
		df.kill(s, d)
	} else {
		return
	}
	s.set(i)
}

// project maps a site set to the registers some site in it defines.
func (df *siteFlow) project(s sites) uint64 {
	var m uint64
	for r := range df.defsOf {
		if s.intersects(df.defsOf[r]) {
			m |= 1 << r
		}
	}
	return m
}

// siteOracle drives analyze from the reference site solution. Along the
// way it requires the production solver's block masks, and a register-mask
// walk from them, to equal the projection of the site sets at every
// instruction, and it derives from the site sets alone the DF006 findings
// a report must carry.
type siteOracle struct {
	t     *testing.T
	model string
	// df006 lists the expected findings as "proc addr detail".
	df006 []string
}

func (o *siteOracle) solve(pr *Proc, sc *scratch) []uint64 {
	df := solveSites(pr)
	masks := make([]uint64, len(pr.Blocks))
	got := pr.mayDefined(sc)
	reach := pr.Reachable()
	for b, blk := range pr.Blocks {
		cur := append(sites(nil), df.in[b]...)
		masks[b] = df.project(cur)
		if got[b] != masks[b] {
			o.t.Errorf("%s: %s block %d: may-defined %#x, reaching sites project to %#x",
				o.model, pr.Name, b, got[b], masks[b])
		}
		m := masks[b]
		for i := blk.Start; i < blk.End; i++ {
			in := pr.Code[i].In
			ints, _ := in.ReadMasks()
			for r := axp.Reg(0); reach[b] && r < axp.NumRegs; r++ {
				if ints&^entryDefined&(1<<r) != 0 && !cur.intersects(df.defsOf[r]) {
					o.df006 = append(o.df006, fmt.Sprintf("%s %#x %s reads %s with no reaching definition",
						pr.Name, pr.Code[i].Addr, in.Op, r))
				}
			}
			df.step(pr, cur, i)
			m |= sc.def[i].Int
			if p := df.project(cur); p != m {
				o.t.Errorf("%s: %s after instruction %d: may-defined %#x, reaching sites project to %#x",
					o.model, pr.Name, i, m, p)
			}
		}
	}
	return masks
}

// knockOut replaces about frac of the model's instructions with nops, so
// that reads lose their definitions and DF006 fires.
func knockOut(p *Program, r *rand.Rand, frac float64) {
	for _, pr := range p.Procs {
		for i := range pr.Code {
			if r.Float64() < frac {
				old := pr.Code[i]
				pr.Code[i] = Inst{In: axp.Nop(), Addr: old.Addr, HasLabel: old.HasLabel,
					BranchTo: -1, SetsGP: -1, SetsGPHi: -1, GPAnchor: -1}
			}
		}
	}
}

// progenObjects compiles the progen program of a seed, with scale times the
// default functions per module, and appends the runtime library.
func progenObjects(tb testing.TB, seed int64, scale int) []*objfile.Object {
	tb.Helper()
	cfg := progen.DefaultConfig()
	cfg.FuncsPerMod *= scale
	return sourceObjects(tb, progen.Generate(seed, cfg))
}

// TestMayDefinedMatchesReachingSites is the oracle for the may-defined
// solver: on seeded progen programs at 1x and 4x, linked with OM none,
// simple and full, every lifted, optimized and image model, clean and with
// 5% of its instructions knocked out, analyzes to a report deep-equal to
// the one the reference site solver drives, and its DF006 findings are
// exactly the reads no reaching site defines.
func TestMayDefinedMatchesReachingSites(t *testing.T) {
	var models, df006 int
	compare := func(name string, p *Program) {
		got := mustAnalyze(t, p)
		o := &siteOracle{t: t, model: name}
		want, err := analyze(p, o.solve)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: report differs from the reference-driven report:\n got %v\nwant %v",
				name, got.ByID(), want.ByID())
		}
		var found []string
		for _, f := range got.Findings {
			if f.ID == "DF006" {
				found = append(found, fmt.Sprintf("%s %#x %s", f.Proc, f.Addr, f.Detail))
			}
		}
		sort.Strings(found)
		sort.Strings(o.df006)
		if !slices.Equal(found, o.df006) {
			t.Errorf("%s: DF006 findings differ from the reaching sites':\n got %q\nwant %q",
				name, found, o.df006)
		}
		models++
		df006 += len(found)
	}
	r := rand.New(rand.NewSource(1))
	for _, prog := range []struct {
		seed  int64
		scale int
	}{{11, 1}, {12, 1}, {13, 4}, {14, 4}} {
		objs := progenObjects(t, prog.seed, prog.scale)
		for _, lvl := range []om.Level{om.LevelNone, om.LevelSimple, om.LevelFull} {
			stages, names := stageModels(t, objs, lvl)
			for k, m := range stages {
				name := fmt.Sprintf("seed %d %dx %v %s", prog.seed, prog.scale, lvl, names[k])
				compare(name, m)
				knockOut(m, r, 0.05)
				compare(name+" knocked out", m)
			}
		}
	}
	if models != 4*3*3*2 {
		t.Fatalf("compared %d models, want %d", models, 4*3*3*2)
	}
	if df006 == 0 {
		t.Fatal("no DF006 finding was compared")
	}
	t.Logf("%d models, %d DF006 findings compared", models, df006)
}
