// Package profile defines the om-profile/v1 interchange format: execution
// profiles collected by the simulator and consumed by OM's profile-guided
// layout pass. A profile records per-procedure entry counts, per-block
// execution counts, and call-edge weights derived from call-site block
// counts. The simulator's engine profiler (sim.Result.BlockProfile) is the
// collector; FromImage attributes its block counts to the symbols of the
// image it ran.
package profile

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/axp"
	"repro/internal/objfile"
)

// Schema identifies the profile file format; bump on incompatible change so
// downstream tooling can reject files it does not understand.
const Schema = "om-profile/v1"

// Profile is one program's execution profile. All slices are kept in
// canonical order (procs and blocks by name/index, edges by caller then
// callee), so equal profiles serialize identically and Hash is well-defined.
type Profile struct {
	SchemaV string `json:"schema"`
	// Source records how the counts were collected: "engine" (the
	// simulator's block profiler), "merge", or "synthetic" (tests).
	Source string `json:"source,omitempty"`
	// Procs holds per-procedure counts (every procedure with a nonzero
	// entry or block count).
	Procs []ProcCount `json:"procs"`
	// Blocks holds per-block execution counts.
	Blocks []BlockCount `json:"blocks,omitempty"`
	// Edges holds call-edge weights: how often a call site in Caller
	// transferred to Callee, derived from the call site's block count.
	Edges []Edge `json:"edges,omitempty"`
}

// ProcCount is one procedure's dynamic summary.
type ProcCount struct {
	Name string `json:"name"`
	// Entries counts how often control entered the procedure.
	Entries uint64 `json:"entries"`
	// Weight is the procedure's total block-entry count — its hotness.
	Weight uint64 `json:"weight"`
}

// BlockCount is one basic block's execution count. Index is the block's
// byte offset from the procedure entry divided by 4: its instruction
// offset in the image that was profiled.
type BlockCount struct {
	Proc  string `json:"proc"`
	Index int    `json:"index"`
	Count uint64 `json:"count"`
}

// Edge is one weighted call-graph edge.
type Edge struct {
	Caller string `json:"caller"`
	Callee string `json:"callee"`
	Weight uint64 `json:"weight"`
}

// normalize sorts the slices canonically and coalesces duplicate entries by
// summing their counts.
func (p *Profile) normalize() {
	if len(p.Procs) > 0 {
		m := make(map[string]ProcCount, len(p.Procs))
		for _, pc := range p.Procs {
			e := m[pc.Name]
			e.Name = pc.Name
			e.Entries += pc.Entries
			e.Weight += pc.Weight
			m[pc.Name] = e
		}
		p.Procs = p.Procs[:0]
		for _, pc := range m {
			p.Procs = append(p.Procs, pc)
		}
		sort.Slice(p.Procs, func(i, j int) bool { return p.Procs[i].Name < p.Procs[j].Name })
	}
	if len(p.Blocks) > 0 {
		type bkey struct {
			proc string
			idx  int
		}
		m := make(map[bkey]uint64, len(p.Blocks))
		for _, b := range p.Blocks {
			m[bkey{b.Proc, b.Index}] += b.Count
		}
		p.Blocks = p.Blocks[:0]
		for k, n := range m {
			p.Blocks = append(p.Blocks, BlockCount{Proc: k.proc, Index: k.idx, Count: n})
		}
		sort.Slice(p.Blocks, func(i, j int) bool {
			if p.Blocks[i].Proc != p.Blocks[j].Proc {
				return p.Blocks[i].Proc < p.Blocks[j].Proc
			}
			return p.Blocks[i].Index < p.Blocks[j].Index
		})
	}
	if len(p.Edges) > 0 {
		type ekey struct{ caller, callee string }
		m := make(map[ekey]uint64, len(p.Edges))
		for _, e := range p.Edges {
			m[ekey{e.Caller, e.Callee}] += e.Weight
		}
		p.Edges = p.Edges[:0]
		for k, w := range m {
			p.Edges = append(p.Edges, Edge{Caller: k.caller, Callee: k.callee, Weight: w})
		}
		sort.Slice(p.Edges, func(i, j int) bool {
			if p.Edges[i].Caller != p.Edges[j].Caller {
				return p.Edges[i].Caller < p.Edges[j].Caller
			}
			return p.Edges[i].Callee < p.Edges[j].Callee
		})
	}
}

// New returns an empty profile with the schema set.
func New(source string) *Profile {
	return &Profile{SchemaV: Schema, Source: source}
}

// Write serializes the profile as indented JSON (the repo's house style for
// machine-readable records), in canonical order.
func Write(w io.Writer, p *Profile) error {
	p.normalize()
	data, err := json.MarshalIndent(p, "", "\t")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Read parses a profile written by Write, checks the schema, and normalizes
// the result (so hand-edited or merged-by-hand files are accepted as long
// as the schema matches).
func Read(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if p.SchemaV != Schema {
		return nil, fmt.Errorf("profile: schema %q, want %q", p.SchemaV, Schema)
	}
	for _, pc := range p.Procs {
		if pc.Name == "" {
			return nil, fmt.Errorf("profile: proc entry with empty name")
		}
	}
	for _, b := range p.Blocks {
		if b.Proc == "" {
			return nil, fmt.Errorf("profile: block entry with empty proc")
		}
		if b.Index < 0 {
			return nil, fmt.Errorf("profile: block %s has negative index %d", b.Proc, b.Index)
		}
	}
	for _, e := range p.Edges {
		if e.Caller == "" || e.Callee == "" {
			return nil, fmt.Errorf("profile: edge with empty endpoint (%q -> %q)", e.Caller, e.Callee)
		}
	}
	p.normalize()
	return &p, nil
}

// Validate checks every name in the profile against the program it is about
// to steer: known reports whether a procedure name exists in the target
// image or symbolic program. A stale profile (collected from a different
// program) fails here instead of silently mislaying code.
func (p *Profile) Validate(known func(name string) bool) error {
	for _, pc := range p.Procs {
		if !known(pc.Name) {
			return fmt.Errorf("profile: procedure %q not in the program (stale profile?)", pc.Name)
		}
	}
	for _, b := range p.Blocks {
		if !known(b.Proc) {
			return fmt.Errorf("profile: block counts for unknown procedure %q", b.Proc)
		}
	}
	for _, e := range p.Edges {
		if !known(e.Caller) {
			return fmt.Errorf("profile: call edge from unknown procedure %q", e.Caller)
		}
		if !known(e.Callee) {
			return fmt.Errorf("profile: call edge to unknown procedure %q", e.Callee)
		}
	}
	return nil
}

// ValidateNames is Validate against a fixed name set.
func (p *Profile) ValidateNames(names map[string]bool) error {
	return p.Validate(func(n string) bool { return names[n] })
}

// Merge combines profiles from multiple runs by summing counts. The result
// is deterministic: canonical order, independent of argument order (beyond
// the Source annotation when only one input is given).
func Merge(ps ...*Profile) *Profile {
	if len(ps) == 1 {
		out := *ps[0]
		out.normalize()
		return &out
	}
	out := New("merge")
	for _, p := range ps {
		out.Procs = append(out.Procs, p.Procs...)
		out.Blocks = append(out.Blocks, p.Blocks...)
		out.Edges = append(out.Edges, p.Edges...)
	}
	out.normalize()
	return out
}

// Hash returns the SHA-256 of the canonical serialization, for
// content-addressed caching of everything the profile influences.
func (p *Profile) Hash() string {
	h := sha256.New()
	if err := Write(h, p); err != nil {
		// json.Marshal on this struct cannot fail; keep the signature simple.
		panic(fmt.Sprintf("profile: hash: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// PCBlock is one engine-profiler record: a basic-block entry PC, the
// block's instruction count, and its execution count. The simulator
// reports its block profile in this type (sim.BlockCount).
type PCBlock struct {
	PC    uint64
	Len   int
	Count uint64
}

// FromImage builds a profile from an engine-profiler run against the image
// it executed: block PCs attribute to the covering procedure symbols, a
// block starting at the procedure entry (or the entry+8 local entry point
// past the GP-setup pair) counts as a procedure entry, and call edges come
// from decoding each counted block's terminating bsr. Calls still made
// through a jsr have no decodable callee and contribute no edge — profile
// an OM-optimized image (where calls are direct) for full edge coverage.
func FromImage(im *objfile.Image, blocks []PCBlock) (*Profile, error) {
	procs := make([]objfile.ImageSymbol, 0, len(im.Symbols))
	for _, s := range im.Symbols {
		if s.Kind == objfile.SymProc {
			procs = append(procs, s)
		}
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].Addr < procs[j].Addr })
	covering := func(pc uint64) *objfile.ImageSymbol {
		i := sort.Search(len(procs), func(i int) bool { return procs[i].Addr > pc })
		if i == 0 {
			return nil
		}
		s := &procs[i-1]
		if pc >= s.Addr+s.Size {
			return nil
		}
		return s
	}

	p := New("engine")
	entries := make(map[string]uint64)
	weight := make(map[string]uint64)
	for _, b := range blocks {
		sym := covering(b.PC)
		if sym == nil {
			return nil, fmt.Errorf("profile: block pc %#x covered by no procedure symbol", b.PC)
		}
		weight[sym.Name] += b.Count
		if b.PC == sym.Addr || b.PC == sym.Addr+8 {
			entries[sym.Name] += b.Count
		}
		p.Blocks = append(p.Blocks, BlockCount{
			Proc: sym.Name, Index: int((b.PC - sym.Addr) / 4), Count: b.Count,
		})
		callee, ok, err := blockCallee(im, b.PC, b.Len)
		if err != nil {
			return nil, err
		}
		if ok {
			sym2 := covering(callee)
			if sym2 != nil {
				p.Edges = append(p.Edges, Edge{Caller: sym.Name, Callee: sym2.Name, Weight: b.Count})
			}
		}
	}
	for name, w := range weight {
		p.Procs = append(p.Procs, ProcCount{Name: name, Entries: entries[name], Weight: w})
	}
	p.normalize()
	return p, nil
}

// blockCallee decodes the last instruction of the block at pc; if it is a
// bsr call (RA-linked), it returns the callee entry address.
func blockCallee(im *objfile.Image, pc uint64, blockLen int) (uint64, bool, error) {
	if blockLen <= 0 {
		return 0, false, nil
	}
	last := pc + uint64(4*(blockLen-1))
	for _, seg := range im.TextSegments() {
		if last < seg.Addr || last+4 > seg.Addr+uint64(len(seg.Data)) {
			continue
		}
		word := uint32(seg.Data[last-seg.Addr]) |
			uint32(seg.Data[last-seg.Addr+1])<<8 |
			uint32(seg.Data[last-seg.Addr+2])<<16 |
			uint32(seg.Data[last-seg.Addr+3])<<24
		in, err := axp.Decode(word)
		if err != nil {
			return 0, false, fmt.Errorf("profile: decode at %#x: %w", last, err)
		}
		if in.Op == axp.BSR && in.Ra == axp.RA {
			return last + 4 + uint64(int64(in.Disp)*4), true, nil
		}
		return 0, false, nil
	}
	return 0, false, nil
}
