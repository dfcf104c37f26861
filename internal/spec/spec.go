// Package spec provides the reproduction's benchmark suite: nineteen
// synthetic programs named and shaped after the SPEC92 set the paper
// measures (gcc excluded there too, so nineteen). Each benchmark is a
// multi-module Tiny C program whose structure models the character of its
// namesake: fpppp and doduc carry very large basic blocks, li and sc are
// call-heavy with indirect dispatch, spice leans on the precompiled library
// so heavily that library-to-library calls dominate, the Fortran-flavored
// FP codes (tomcatv, swm256, hydro2d, su2cor, nasa7, wave5) are
// loop-and-array bound, and so on.
//
// Every program prints deterministic checksums, so any two builds of the
// same benchmark — compile-each vs compile-all, optimized or not — must
// produce identical output; the harness and the property tests rely on it.
package spec

import "repro/internal/tcc"

// Benchmark is one program of the suite.
type Benchmark struct {
	Name string
	// Modules are the separately compiled units (compile-each mode builds
	// one object per module; compile-all compiles them as a single unit).
	Modules []tcc.Source
	// Character is a one-line description of the workload shape.
	Character string
}

// suite lists the nineteen benchmarks by name in the paper's listing
// order, so a lookup by name builds only the benchmark it returns.
var suite = [...]struct {
	name  string
	build func() Benchmark
}{
	{"alvinn", alvinn}, {"compress", compress}, {"doduc", doduc},
	{"ear", ear}, {"eqntott", eqntott}, {"espresso", espresso},
	{"fpppp", fpppp}, {"hydro2d", hydro2d}, {"li", li},
	{"mdljdp2", mdljdp2}, {"mdljsp2", mdljsp2}, {"nasa7", nasa7},
	{"ora", ora}, {"sc", sc}, {"spice", spice},
	{"su2cor", su2cor}, {"swm256", swm256}, {"tomcatv", tomcatv},
	{"wave5", wave5},
}

// All returns the nineteen benchmarks in the paper's listing order.
func All() []Benchmark {
	bs := make([]Benchmark, len(suite))
	for i, e := range suite {
		bs[i] = e.build()
	}
	return bs
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, bool) {
	for _, e := range suite {
		if e.name == name {
			return e.build(), true
		}
	}
	return Benchmark{}, false
}

func src(name, text string) tcc.Source { return tcc.Source{Name: name, Text: text} }
