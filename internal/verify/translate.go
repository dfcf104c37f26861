package verify

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/axp"
	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/om"
)

// This file implements translation validation: replaying OM's decision
// journal against the final linked image and proving each rewrite locally
// sound. The validator is deliberately independent of OM's internals — it
// sees only what the journal claims and what the image contains — so a bug
// in a pass cannot also hide the evidence.
//
// The core technique is witness counting. Journal events are grouped by
// (cat, proc, target, reason); each group demands a number of witnesses in
// the named procedure's final code (lda-from-GP materializing the target
// address, bsr landing on the callee entry, a surviving GAT load whose slot
// holds the target, ...), and the group fails if the code cannot supply
// them. Demands that several reasons share (bsr targets, jsr counts, GAT
// loads) are aggregated before comparison so conversions and keeps cannot
// borrow each other's witnesses.

// procWitness holds the decoded code and witness tallies of one procedure
// symbol.
type procWitness struct {
	sym objfile.ImageSymbol
	// lda counts addresses materialized by `lda r, d(gp)` with r not GP
	// (GP-writing ldas are prologue/reset lows, not address rewrites).
	lda map[uint64]uint64
	// ldahHi counts the hi displacements of `ldah r, hi(gp)` with r not GP.
	ldahHi map[int32]uint64
	// gatLoad counts the slot values of surviving GAT loads: `ldq r, d(gp)`
	// whose effective address falls inside the procedure's GAT.
	gatLoad map[uint64]uint64
	// bsr counts targets of RA-linked bsr instructions (converted and
	// compiler-direct calls).
	bsr map[uint64]uint64
	// jsr counts surviving jsr instructions (kept GAT-indirect and
	// indirect calls).
	jsr uint64
}

// imageIndex is the decoded, witness-tallied view of a linked image.
type imageIndex struct {
	im    *objfile.Image
	procs map[string][]*procWitness
	syms  map[string][]objfile.ImageSymbol
	gats  map[uint64]objfile.GATRange // keyed by GP value
}

func newIndex(im *objfile.Image) (*imageIndex, error) {
	idx := &imageIndex{
		im:    im,
		procs: make(map[string][]*procWitness),
		syms:  make(map[string][]objfile.ImageSymbol),
		gats:  make(map[uint64]objfile.GATRange),
	}
	for _, g := range im.GATs {
		idx.gats[g.GP] = g
	}
	for _, s := range im.Symbols {
		idx.syms[s.Name] = append(idx.syms[s.Name], s)
		if s.Kind != objfile.SymProc {
			continue
		}
		pw, err := idx.witness(s)
		if err != nil {
			return nil, err
		}
		idx.procs[s.Name] = append(idx.procs[s.Name], pw)
	}
	return idx, nil
}

// textSlice returns the code bytes of [addr, addr+size) if they lie inside
// one text segment.
func (idx *imageIndex) textSlice(addr, size uint64) ([]byte, bool) {
	for _, seg := range idx.im.TextSegments() {
		if addr >= seg.Addr && addr+size <= seg.Addr+uint64(len(seg.Data)) {
			off := addr - seg.Addr
			return seg.Data[off : off+size], true
		}
	}
	return nil, false
}

// quadAt reads the little-endian quadword at an absolute address, if it is
// backed by initialized segment data.
func (idx *imageIndex) quadAt(addr uint64) (uint64, bool) {
	for i := range idx.im.Segments {
		seg := &idx.im.Segments[i]
		if addr >= seg.Addr && addr+8 <= seg.Addr+uint64(len(seg.Data)) {
			return objfile.Uint64At(seg.Data, addr-seg.Addr), true
		}
	}
	return 0, false
}

func (idx *imageIndex) witness(sym objfile.ImageSymbol) (*procWitness, error) {
	code, ok := idx.textSlice(sym.Addr, sym.Size)
	if !ok {
		return nil, fmt.Errorf("verify: procedure %s [%#x,+%#x) outside text", sym.Name, sym.Addr, sym.Size)
	}
	insts, err := axp.DecodeAll(code)
	if err != nil {
		return nil, fmt.Errorf("verify: procedure %s does not decode: %w", sym.Name, err)
	}
	pw := &procWitness{
		sym:     sym,
		lda:     make(map[uint64]uint64),
		ldahHi:  make(map[int32]uint64),
		gatLoad: make(map[uint64]uint64),
		bsr:     make(map[uint64]uint64),
	}
	gat, hasGAT := idx.gats[sym.GP]
	for i, in := range insts {
		pc := sym.Addr + uint64(4*i)
		switch {
		case in.Op == axp.LDA && in.Rb == axp.GP && in.Ra != axp.GP && in.Ra != axp.Zero:
			pw.lda[uint64(int64(sym.GP)+int64(in.Disp))]++
		case in.Op == axp.LDAH && in.Rb == axp.GP && in.Ra != axp.GP:
			pw.ldahHi[in.Disp]++
		case in.Op == axp.LDQ && in.Rb == axp.GP:
			slot := uint64(int64(sym.GP) + int64(in.Disp))
			if hasGAT && slot >= gat.Start && slot+8 <= gat.End {
				if v, ok := idx.quadAt(slot); ok {
					pw.gatLoad[v]++
				}
			}
		case in.Op == axp.BSR && in.Ra == axp.RA:
			pw.bsr[axp.BranchTarget(in, pc)]++
		case in.Op == axp.JSR:
			pw.jsr++
		}
	}
	return pw, nil
}

// parseTarget splits a journal target of the form "name" or "name±addend"
// (keyName's rendering) into its symbol name and addend.
func parseTarget(t string) (string, int64) {
	if i := strings.LastIndexAny(t, "+-"); i > 0 {
		if v, err := strconv.ParseInt(t[i:], 10, 64); err == nil {
			return t[:i], v
		}
	}
	return t, 0
}

// targetAddrs resolves a journal target to its candidate image addresses
// (several when the name is multiply defined across modules).
func (idx *imageIndex) targetAddrs(t string) []uint64 {
	base, addend := parseTarget(t)
	var out []uint64
	for _, s := range idx.syms[base] {
		out = append(out, uint64(int64(s.Addr)+addend))
	}
	return out
}

// targetProcs resolves a journal target to candidate procedure symbols.
func (idx *imageIndex) targetProcs(t string) []*procWitness {
	base, _ := parseTarget(t)
	return idx.procs[base]
}

// parseGPDetail parses the "gp+0x..." GP-delta detail of kept address
// events.
func parseGPDetail(detail string) (int64, bool) {
	if !strings.HasPrefix(detail, "gp") {
		return 0, false
	}
	v, err := strconv.ParseInt(detail[2:], 0, 64)
	return v, err == nil
}

// region maps an address to its dynamic-link region: 0 for the static
// program, 1 for shared-library text and data.
func region(addr uint64) int {
	if addr >= objfile.SharedTextBase {
		return 1
	}
	return 0
}

// group is a batch of journal events sharing (cat, proc, target, reason).
type group struct {
	cat, proc, target, reason string
	detail                    string
	count                     uint64
}

type bsrKey struct {
	proc   string
	callee string
	off    uint64
}

// offDirect keys the compiler-direct witness pool, whose landing pads are
// both entry and entry+8.
const offDirect = 99

type gatKey struct {
	proc   string
	target string
}

// Translate validates every event of a decision journal against the final
// image, returning one verdict per event group. It errors only on malformed
// inputs; verification failures are reported in the document.
func Translate(im *objfile.Image, j *obs.JournalDoc) (*Doc, error) {
	if err := j.Check(); err != nil {
		return nil, err
	}
	idx, err := newIndex(im)
	if err != nil {
		return nil, err
	}

	// Group events, preserving first-seen order for stable output.
	var order []group
	pos := make(map[group]int)
	for _, e := range j.Events {
		k := group{cat: e.Cat, proc: e.Proc, target: e.Target, reason: e.Reason}
		i, ok := pos[k]
		if !ok {
			i = len(order)
			pos[k] = i
			k.detail = e.Detail
			order = append(order, k)
		}
		order[i].count++
	}

	// Phase 1: aggregate the shared demands so groups cannot borrow each
	// other's witnesses.
	needBSR := make(map[bsrKey]uint64)
	needGAT := make(map[gatKey]uint64)
	needJSR := make(map[string]uint64)
	for _, g := range order {
		switch g.reason {
		case om.ReasonCallDirect:
			// Compiler-direct calls to a same-GP procedure may skip the
			// callee's GP prologue, so their landing pad is entry or
			// entry+8; they get their own witness pool.
			needBSR[bsrKey{g.proc, g.target, offDirect}] += g.count
		case om.ReasonCallConverted, om.ReasonCallConvertedNoProl:
			needBSR[bsrKey{g.proc, g.target, 0}] += g.count
		case om.ReasonCallConvertedSkip:
			needBSR[bsrKey{g.proc, g.target, 8}] += g.count
		default:
			switch g.cat {
			case "call":
				if strings.Contains(g.reason, ":kept:") {
					needJSR[g.proc] += g.count
				}
			case "addr":
				if strings.Contains(g.reason, ":kept:") && g.reason != om.ReasonAddrKeptNoAddr {
					needGAT[gatKey{g.proc, g.target}] += g.count
				}
			}
		}
	}

	// Phase 2: per-group verdicts.
	d := &Doc{Schema: Schema, Level: j.Level}
	for _, g := range order {
		d.add(checkGroup(idx, g, needBSR, needGAT, needJSR))
	}
	return d, nil
}

// availability helpers: witnesses are summed across all same-named
// procedure candidates, so multiply-defined names stay checkable (their
// events are grouped under one name, too).

func (idx *imageIndex) availLDA(proc string, addrs []uint64) uint64 {
	var n uint64
	for _, pw := range idx.procs[proc] {
		for _, a := range addrs {
			n += pw.lda[a]
		}
	}
	return n
}

func (idx *imageIndex) availLDAH(proc string, addrs []uint64) uint64 {
	var n uint64
	for _, pw := range idx.procs[proc] {
		for _, a := range addrs {
			if hi, _, err := link.SplitGPDisp(int64(a) - int64(pw.sym.GP)); err == nil {
				n += pw.ldahHi[int32(hi)]
			}
		}
	}
	return n
}

func (idx *imageIndex) availGAT(proc string, addrs []uint64) uint64 {
	var n uint64
	for _, pw := range idx.procs[proc] {
		for _, a := range addrs {
			n += pw.gatLoad[a]
		}
	}
	return n
}

func (idx *imageIndex) availBSR(proc string, entries []uint64) uint64 {
	var n uint64
	for _, pw := range idx.procs[proc] {
		for _, a := range entries {
			n += pw.bsr[a]
		}
	}
	return n
}

func (idx *imageIndex) availJSR(proc string) uint64 {
	var n uint64
	for _, pw := range idx.procs[proc] {
		n += pw.jsr
	}
	return n
}

// fitsAny reports whether target-GP fits the given reach predicate for at
// least one (procedure candidate, target candidate) pair.
func (idx *imageIndex) fitsAny(proc string, addrs []uint64, fits func(delta int64) bool) bool {
	for _, pw := range idx.procs[proc] {
		for _, a := range addrs {
			if fits(int64(a) - int64(pw.sym.GP)) {
				return true
			}
		}
	}
	return false
}

func fits16(v int64) bool { return v >= axp.MemDispMin && v <= axp.MemDispMax }

func fits32(v int64) bool { _, _, err := link.SplitGPDisp(v); return err == nil }

func checkGroup(idx *imageIndex, g group, needBSR map[bsrKey]uint64, needGAT map[gatKey]uint64, needJSR map[string]uint64) Verdict {
	v := Verdict{Cat: g.cat, Proc: g.proc, Target: g.target, Reason: g.reason, Count: g.count}
	fail := func(rule, format string, args ...any) Verdict {
		v.Rule, v.OK, v.Err = rule, false, fmt.Sprintf(format, args...)
		return v
	}
	pass := func(rule string) Verdict {
		v.Rule, v.OK = rule, true
		return v
	}

	if len(idx.procs[g.proc]) == 0 {
		return fail("proc-exists", "procedure %s not in image symbol table", g.proc)
	}
	addrs := idx.targetAddrs(g.target)

	switch g.reason {
	// Address loads.
	case om.ReasonAddrConvertedLDA:
		if len(addrs) == 0 {
			return fail("lda-witness", "target %s not in image symbol table", g.target)
		}
		if !idx.fitsAny(g.proc, addrs, fits16) {
			return fail("lda-witness", "target %s outside 16-bit GP reach", g.target)
		}
		if got := idx.availLDA(g.proc, addrs); got < g.count {
			return fail("lda-witness", "%d conversions claimed, %d lda-from-GP witnesses", g.count, got)
		}
		return pass("lda-witness")

	case om.ReasonAddrConvertedLDAH:
		if len(addrs) == 0 {
			return fail("ldah-witness", "target %s not in image symbol table", g.target)
		}
		if !idx.fitsAny(g.proc, addrs, fits32) {
			return fail("ldah-witness", "target %s outside 32-bit GP reach", g.target)
		}
		if got := idx.availLDAH(g.proc, addrs); got < g.count {
			return fail("ldah-witness", "%d conversions claimed, %d ldah-from-GP witnesses", g.count, got)
		}
		return pass("ldah-witness")

	case om.ReasonAddrNullified:
		// The load is gone; its uses were rewritten GP-relative, which is
		// sound only if the datum is within direct GP reach.
		if len(addrs) == 0 {
			return fail("gp-reach", "target %s not in image symbol table", g.target)
		}
		if !idx.fitsAny(g.proc, addrs, fits16) {
			return fail("gp-reach", "nullified load of %s outside 16-bit GP reach", g.target)
		}
		return pass("gp-reach")

	case om.ReasonAddrNullifiedPV:
		// The PV load died because its call was converted; the callee must
		// be a real procedure (the bsr itself is checked by the call event).
		if len(idx.targetProcs(g.target)) == 0 {
			return fail("pv-dead-callee", "callee %s not a procedure in image", g.target)
		}
		return pass("pv-dead-callee")

	case om.ReasonAddrKeptNoAddr:
		return pass("accounted")

	case om.ReasonAddrKeptNoOpt, om.ReasonAddrKeptDisabled, om.ReasonAddrKeptText,
		om.ReasonAddrKeptCrossReg, om.ReasonAddrKeptOutOfRange,
		om.ReasonAddrKeptMixedUse, om.ReasonAddrKeptDispOvfl, om.ReasonAddrKeptOther:
		if len(addrs) == 0 {
			return fail("gat-slot-witness", "target %s not in image symbol table", g.target)
		}
		// Reason-specific side conditions first.
		switch g.reason {
		case om.ReasonAddrKeptText:
			if len(idx.targetProcs(g.target)) == 0 {
				return fail("gat-slot-witness", "kept text-address %s not a procedure", g.target)
			}
		case om.ReasonAddrKeptCrossReg:
			ok := false
			for _, pw := range idx.procs[g.proc] {
				for _, a := range addrs {
					if region(a) != region(pw.sym.Addr) {
						ok = true
					}
				}
			}
			if !ok {
				return fail("cross-region", "kept cross-region load of %s, but target shares the procedure's region", g.target)
			}
		case om.ReasonAddrKeptOutOfRange:
			if idx.fitsAny(g.proc, addrs, fits32) && !idx.fitsAny(g.proc, addrs, func(d int64) bool { return !fits32(d) }) {
				return fail("gp-out-of-range", "kept out-of-range load of %s, but target is within 32-bit GP reach", g.target)
			}
		}
		// The GP-delta detail must agree with the resolved address. Text
		// addresses are exempt: the journal records the plan's estimate,
		// and scheduling legitimately shifts procedure starts afterwards.
		if delta, ok := parseGPDetail(g.detail); ok && len(idx.targetProcs(g.target)) == 0 {
			if !idx.fitsAny(g.proc, addrs, func(d int64) bool { return d == delta }) {
				return fail("gp-delta-detail", "journal says gp%+#x, no candidate address matches", delta)
			}
		}
		// A kept load must still exist: a surviving ldq-from-GP whose GAT
		// slot holds the target address, with the demand aggregated across
		// every kept reason naming this (proc, target).
		need := needGAT[gatKey{g.proc, g.target}]
		if got := idx.availGAT(g.proc, addrs); got < need {
			return fail("gat-slot-witness", "%d kept loads of %s claimed, %d surviving GAT-load witnesses", need, g.target, got)
		}
		return pass("gat-slot-witness")

	// Call sites.
	case om.ReasonCallDirect, om.ReasonCallConverted, om.ReasonCallConvertedNoProl, om.ReasonCallConvertedSkip:
		procs := idx.targetProcs(g.target)
		if len(procs) == 0 {
			return fail("bsr-target", "callee %s not a procedure in image", g.target)
		}
		off := uint64(0)
		if g.reason == om.ReasonCallConvertedSkip {
			off = 8
		}
		var entries []uint64
		for _, pw := range procs {
			entries = append(entries, pw.sym.Addr+off)
		}
		key := bsrKey{g.proc, g.target, off}
		if g.reason == om.ReasonCallDirect {
			key.off = offDirect
			for _, pw := range procs {
				entries = append(entries, pw.sym.Addr+8)
			}
		}
		need := needBSR[key]
		if got := idx.availBSR(g.proc, entries); got < need {
			return fail("bsr-target", "%d direct calls to %s+%d claimed, %d bsr witnesses", need, g.target, off, got)
		}
		return pass("bsr-target")

	case om.ReasonCallKeptNoOpt, om.ReasonCallKeptDisabled, om.ReasonCallKeptIndirect,
		om.ReasonCallKeptUnknown, om.ReasonCallKeptCrossReg, om.ReasonCallKeptLayout,
		om.ReasonCallKeptOther:
		if g.reason == om.ReasonCallKeptCrossReg {
			ok := false
			for _, pw := range idx.procs[g.proc] {
				for _, cw := range idx.targetProcs(g.target) {
					if region(cw.sym.Addr) != region(pw.sym.Addr) {
						ok = true
					}
				}
			}
			if !ok {
				return fail("cross-region", "kept cross-region call to %s, but callee shares the caller's region", g.target)
			}
		}
		need := needJSR[g.proc]
		if got := idx.availJSR(g.proc); got < need {
			return fail("jsr-witness", "%d kept call sites in %s claimed, %d surviving jsr witnesses", need, g.proc, got)
		}
		return pass("jsr-witness")

	// GP-reset pairs.
	case om.ReasonResetRemoved:
		if g.target == "" {
			// An elided reset with no recorded callee is sound only under a
			// single program-wide GAT (every GP value is the same).
			if len(idx.im.GATs) > 1 {
				return fail("same-gat", "reset removed with unknown callee but image has %d GATs", len(idx.im.GATs))
			}
			return pass("same-gat")
		}
		for _, pw := range idx.procs[g.proc] {
			for _, cw := range idx.targetProcs(g.target) {
				if cw.sym.GP == pw.sym.GP {
					return pass("same-gat")
				}
			}
		}
		return fail("same-gat", "reset after call to %s removed, but callee GP differs from caller GP", g.target)

	case om.ReasonResetKeptDiffGAT:
		for _, pw := range idx.procs[g.proc] {
			for _, cw := range idx.targetProcs(g.target) {
				if cw.sym.GP != pw.sym.GP {
					return pass("diff-gat")
				}
			}
		}
		return fail("diff-gat", "reset kept for different-GAT callee %s, but callee GP equals caller GP", g.target)

	case om.ReasonResetKeptNoOpt, om.ReasonResetKeptDisabled, om.ReasonResetKeptUnknown, om.ReasonResetKeptOther:
		return pass("accounted")

	// Profile-guided layout.
	case om.ReasonLayoutFallback:
		if got := idx.availJSR(g.proc); got < 1 {
			return fail("jsr-witness", "layout fallback in %s claimed, but no surviving jsr", g.proc)
		}
		return pass("jsr-witness")

	case om.ReasonLayoutChain, om.ReasonLayoutHot, om.ReasonLayoutCold:
		return pass("proc-exists")
	}

	return fail("unknown-reason", "reason code %q not modeled by the validator", g.reason)
}
