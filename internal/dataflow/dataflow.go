// Package dataflow is the static whole-program analysis layer of the
// link-time optimizer: it proves, without executing anything, the dataflow
// facts OM's address-calculation rewrites rely on and that the verify
// package witnesses dynamically (translation validation needs a decision
// journal, differential execution needs a simulator run — both are
// O(execution); this package is O(image)).
//
// The framework operates over one unified program model with two
// front-ends: FromProg lifts OM's symbolic form (om.Proc/om.SInst, before
// or after the optimization passes), and FromImage decodes a final linked
// executable. Over that model it builds a control-flow graph per procedure
// (basic blocks; branch, bsr and jsr edges including GAT-indirect calls;
// the computed-branch fallback to "all labels"), runs the iterative
// dataflow analyses (may-defined registers, liveness), and runs an
// interprocedural abstract interpretation of register contents over a
// small lattice (⊥, GP-of-cluster-k plus offset, procedure-address plus
// offset, constant, ⊤). The checks (DF001…) consume those results and
// report findings with stable IDs and severities in an om-lint/v1
// document.
package dataflow

import (
	"fmt"

	"repro/internal/axp"
)

// CallTarget is one resolved callee of a call instruction.
type CallTarget struct {
	// Proc indexes Program.Procs.
	Proc int
	// Off is the byte offset of the entry used: 0 for the full entry, 8
	// for the local entry past the GP-establishing pair.
	Off uint64
}

// Inst is one instruction of the unified model. The front-ends precompute
// every fact whose derivation differs between the symbolic and the image
// level, so the CFG builder, the solvers, and the interpreter are shared.
type Inst struct {
	In axp.Inst

	// Addr is the instruction's address: exact at image level, the layout
	// plan's estimate at program level.
	Addr uint64

	// BranchTo is the intra-procedure branch target as an instruction
	// index, or -1 (calls, returns, computed branches, targets outside
	// the procedure).
	BranchTo int
	// HasLabel marks branch-target instructions at program level; the
	// computed-branch fallback fans out to labeled blocks. Image-level
	// code has no labels, so there the fallback is every block leader.
	HasLabel bool

	// Call marks a control transfer that saves a return address (bsr,
	// jsr). Targets lists the resolved callees; an empty list with Fan
	// set means the callee is computed: the interpreter resolves it from
	// the abstract PV value, falling back to every procedure.
	Call    bool
	Targets []CallTarget
	Fan     bool
	// Ret and Halt terminate a procedure (ret; call_pal HALT).
	Ret  bool
	Halt bool

	// SetsGP marks the instruction that completes a GP-establishing pair
	// for cluster SetsGP (the low half), SetsGPHi the half that starts it.
	// Both are -1 otherwise. Program level only: there the pair's
	// displacements are symbolic (emission recomputes them), so the
	// interpreter models the pair as a unit; at image level the pair is
	// ordinary ldah/lda arithmetic on concrete values.
	SetsGP   int
	SetsGPHi int
	// GPAnchor, for an after-call pair's high half, is the instruction
	// index of the call whose return address the pair is anchored to;
	// -1 for a prologue (entry) pair.
	GPAnchor int

	// LoadVal, when non-nil, is the abstract value this instruction
	// produces regardless of its operands (program-level GAT address
	// loads and their lda/ldah conversions, whose result the layout plan
	// determines).
	LoadVal *Value

	// LitLoad marks a live GAT address load (an omlint check site);
	// LitSlotOK records the front-end's slot audit: the slot exists, its
	// displacement is encodable, and (image level) its content is a
	// plausible address.
	LitLoad   bool
	LitSlotOK bool
	// LitDetail carries the front-end's description of a failed slot
	// audit.
	LitDetail string
}

// Proc is one procedure of the unified model.
type Proc struct {
	Name string
	// Addr is the entry address (layout estimate at program level).
	Addr uint64
	// Cluster is the GP cluster (GAT index) the procedure's code expects,
	// or -1 if unknown.
	Cluster int
	// PairAtEntry: a GP-establishing ldah/lda pair occupies Code[0] and
	// Code[1], making entry+8 a valid local entry point.
	PairAtEntry bool
	Code        []Inst

	// Blocks is the procedure's CFG, filled by BuildCFG.
	Blocks []Block
	// blockOf maps an instruction index to its block index.
	blockOf []int
}

// Program is the unified whole-program model both front-ends produce.
type Program struct {
	// Source identifies the front-end: "prog" or "image".
	Source string
	Procs  []*Proc
	// Clusters is the number of GP clusters (global address tables).
	Clusters int
	// GPValue is the concrete GP of each cluster (image level; nil at
	// program level, where GP values are symbolic).
	GPValue []uint64
	// SlotValue resolves a concrete address to the abstract content of a
	// GAT slot (image level; nil at program level, where GAT loads carry
	// LoadVal instead).
	SlotValue func(addr uint64) (Value, bool)
	// Extra carries findings the front-end established structurally
	// (e.g. DF008 dangling symbolic links), merged into the report.
	Extra []Finding
}

// ProcByAddr returns the index of the procedure whose entry is addr, and
// the entry offset (0 or 8) when addr is its local entry; -1 otherwise.
func (p *Program) ProcByAddr(addr uint64) (int, uint64) {
	for i, pr := range p.Procs {
		if addr == pr.Addr {
			return i, 0
		}
		if addr == pr.Addr+8 && pr.PairAtEntry {
			return i, 8
		}
	}
	return -1, 0
}

// Severity grades a finding.
type Severity string

const (
	// SevError findings are violated invariants: the image (or symbolic
	// program) is statically provably broken, or cannot be proven sound.
	SevError Severity = "error"
	// SevInfo findings are missed-optimization and code-quality reports;
	// they never fail a lint run.
	SevInfo Severity = "info"
)

// CheckInfo describes one check of the catalog.
type CheckInfo struct {
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	Severity Severity `json:"severity"`
	Doc      string   `json:"doc"`
}

// Checks returns the stable check catalog.
func Checks() []CheckInfo {
	return []CheckInfo{
		{"DF001", "gp-clobbered-before-use", SevError,
			"every instruction that reads GP must see the GP value of its procedure's cluster: the abstract GP at the use must be GP-of-cluster-k (program level) or the procedure's concrete GP (image level); catches clobbered GP, missing GP resets after cross-cluster calls, resets anchored to a stale return address, and prologues entered with a wrong procedure value"},
		{"DF002", "dead-literal-load", SevInfo,
			"a GAT address load whose result register is dead (not live-out under the conservative call-reads-all model): a missed address-optimization opportunity"},
		{"DF003", "unreachable-block", SevInfo,
			"a basic block with no CFG path from its procedure's entry points"},
		{"DF004", "redundant-gp-reset", SevInfo,
			"an after-call GP-establishing pair whose incoming GP is already the procedure's own: OM-full's GP-reset optimization would remove it (program level only)"},
		{"DF005", "out-of-range-bsr", SevError,
			"a direct call's displacement must fit the branch format's signed 21-bit word window, and an entry+8 local-entry call requires the callee's GP pair to occupy its first two slots"},
		{"DF006", "use-before-def", SevError,
			"a register read reached by no definition on any path from the procedure entry (calls define every register; argument, callee-saved, and linkage registers are defined at entry)"},
		{"DF007", "gat-slot-broken", SevError,
			"a GAT address load must name an existing slot within the 16-bit displacement window of its cluster's GP, and (image level) every GAT slot, loaded or not, must hold an address inside the image — a text address only at a procedure entry"},
		{"DF008", "dangling-link", SevError,
			"an instruction still consumes the register of a GAT address load that was deleted or nullified without the use being rewritten (program level only; this is the invariant OM's passes must preserve and the one the fault-injection hook breaks)"},
		{"DF009", "image-malformed", SevError,
			"the image must validate, its entry must be a procedure entry, every procedure's GP must name a GAT, every text word must decode, and every branch must land in text (image level only)"},
	}
}

// checkInfo resolves an ID; it panics on catalog drift, which the tests pin.
func checkInfo(id string) CheckInfo {
	for _, c := range Checks() {
		if c.ID == id {
			return c
		}
	}
	panic(fmt.Sprintf("dataflow: unknown check %s", id))
}

// Analyze runs the full pipeline over an already-built model: CFG
// construction, the iterative solvers, the interprocedural abstract
// interpretation, and every check in the catalog. Its only error is
// ErrNoFixpoint.
func Analyze(p *Program) (*Report, error) { return analyze(p, (*Proc).mayDefined) }

// analyze is Analyze with DF006's solver as a parameter, so a test can
// drive the same checks from a reference solver.
func analyze(p *Program, mayDefined func(*Proc, *scratch) []uint64) (*Report, error) {
	rep := &Report{Schema: Schema, Source: p.Source, Procs: len(p.Procs)}
	for _, pr := range p.Procs {
		pr.BuildCFG()
		rep.Blocks += len(pr.Blocks)
		rep.Insts += len(pr.Code)
	}
	ip := newInterp(p)
	if err := ip.solve(); err != nil {
		return nil, err
	}
	runChecks(p, ip, rep, mayDefined)
	for _, f := range p.Extra {
		rep.add(f)
	}
	rep.sort()
	return rep, nil
}
