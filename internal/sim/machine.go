package sim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/axp"
	"repro/internal/objfile"
)

// Config controls the simulation.
type Config struct {
	// Timing enables the pipeline and cache model; without it the simulator
	// only executes functionally (faster, for correctness tests).
	Timing bool
	// MaxInstructions aborts runaway programs. 0 means the default cap.
	MaxInstructions uint64
	// ICacheBytes / DCacheBytes configure the direct-mapped caches
	// (defaults: 8KB each, 32-byte lines, like the 21064).
	ICacheBytes int
	DCacheBytes int
	// MissPenalty is the extra-cycle cost of a cache miss (to the board
	// cache; a flat model when L2Bytes is 0).
	MissPenalty int
	// L2Bytes, when nonzero, adds a unified second-level (board) cache of
	// this size; a first-level miss that hits L2 costs MissPenalty, and an
	// L2 miss additionally costs L2MissPenalty (the DECstation 3000/400
	// carried a 512KB board cache).
	L2Bytes int
	// L2MissPenalty is the extra cost of missing the board cache.
	L2MissPenalty int
	// TakenBranchBubble is the cycle bubble after a taken branch or jump.
	TakenBranchBubble int
	// Profile enables execution profiling: per-block execution counts (the
	// hot-block report) and an instruction-mix histogram, returned in
	// Result.BlockProfile and Result.InstMix. Disabled, the run loop pays
	// only a pair of never-taken branches and allocates nothing extra, so
	// the zero-allocation property and benchmark throughput are preserved.
	Profile bool
}

// DefaultConfig returns the 21064-flavored timing configuration.
func DefaultConfig() Config {
	return Config{
		Timing:            true,
		ICacheBytes:       8 << 10,
		DCacheBytes:       8 << 10,
		MissPenalty:       10,
		TakenBranchBubble: 1,
	}
}

const defaultMaxInstructions = 400_000_000

// ErrInstructionLimit is wrapped by the error of a run that executed
// Config.MaxInstructions instructions without halting, so a caller can tell
// a capped run from a faulting one.
var ErrInstructionLimit = errors.New("sim: instruction limit exceeded")

// Stats aggregates the timing model's counters.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	DualIssued   uint64
	Loads        uint64
	Stores       uint64
	TakenBranch  uint64
	ICacheMisses uint64
	DCacheMisses uint64
	ICacheHits   uint64
	DCacheHits   uint64
	L2Misses     uint64
}

// Result is the outcome of a simulation.
type Result struct {
	Exit     int64
	Output   []int64
	OutBytes []byte
	Stats    Stats
	// Profile holds per-block execution counts when the program was
	// instrumented with profiling traps (om.Instrument; nil otherwise),
	// keyed by the trap's block id. This is the pixie-style source: the
	// binary carries the counters, and profile.FromTraps turns the counts
	// plus the instrumenter's block table into an om-profile.
	Profile map[uint32]uint64
	// BlockProfile holds per-block execution counts from the engine's
	// profiling mode (Config.Profile), sorted by descending count with
	// equal counts in ascending-PC order. Each entry is one basic-block
	// entry point actually executed. This is the engine-side source: any
	// unmodified image can be profiled, and profile.FromImage attributes
	// the counts to procedure symbols. Either source feeds the
	// profile-guided layout pipeline (om.WithProfile).
	BlockProfile []BlockCount
	// InstMix maps opcode mnemonics to dynamic execution counts
	// (Config.Profile runs only).
	InstMix map[string]uint64
}

// BlockCount is one hot-block report entry: a basic-block entry point, the
// straight-line run length from it, and how often execution entered there.
type BlockCount struct {
	PC    uint64
	Len   int
	Count uint64
}

// Machine executes a linked image.
type Machine struct {
	cfg Config
	mem *Memory
	R   [32]uint64
	F   [32]float64
	PC  uint64
	// segs holds every executable segment (static and shared), pre-decoded
	// into the engine's uop form with a basic-block index; curSeg caches
	// the segment the engine is currently executing in.
	segs   []decSeg
	curSeg int

	halted  bool
	exit    int64
	out     []int64
	outB    []byte
	profile map[uint32]uint64

	// Profiling mode (cfg.Profile): per-segment block-entry counts parallel
	// to segs[i].uops, and per-opcode execution counts. Preallocated at
	// construction so the run loop only increments array slots.
	profiling  bool
	profBlocks [][]uint64
	profOps    []uint64

	// Timing state. The config's penalties are hoisted into machine fields
	// once at construction so the per-instruction path reads no Config.
	icache, dcache *Cache
	l2             *Cache
	missPenalty    uint64
	l2MissPenalty  uint64
	takenBubble    uint64
	regReady       [32]uint64
	fregReady      [32]uint64
	cycle          uint64 // next free issue cycle
	slotUsed       bool   // an instruction already issued at `cycle`
	slotClass      issueClass
	slotPC         uint64
	stats          Stats

	// missHook, when set, receives the address of every D-cache miss.
	missHook func(addr uint64)
}

type issueClass uint8

const (
	classInt issueClass = iota
	classMem
	classBr
	classFP
)

// New prepares a machine to run the image.
func New(im *objfile.Image, cfg Config) (*Machine, error) {
	if cfg.MaxInstructions == 0 {
		cfg.MaxInstructions = defaultMaxInstructions
	}
	if cfg.ICacheBytes == 0 {
		cfg.ICacheBytes = 8 << 10
	}
	if cfg.DCacheBytes == 0 {
		cfg.DCacheBytes = 8 << 10
	}
	if cfg.MissPenalty == 0 {
		cfg.MissPenalty = 10
	}
	m := &Machine{cfg: cfg, mem: NewMemory()}

	// Back the image's static segments and the top of the stack with flat
	// arenas so the hot load/store path is a bounds check and an indexed
	// access; the sparse page map remains as the fallback for everything
	// else. Data segments are reserved first: the arena list is searched in
	// order and data traffic dominates the fallback-free path.
	// A data region may ship as several contiguous segments (a split at
	// each long zero run); each run of them gets one Reserve, since
	// reserving them one by one would re-allocate and copy the merged arena
	// per segment. Arenas start zeroed, so ZeroSize tails need no fill.
	texts := im.TextSegments()
	isText := make(map[uint64]bool, len(texts))
	for _, seg := range texts {
		isText[seg.Addr] = true
	}
	for i := 0; i < len(im.Segments); {
		seg := &im.Segments[i]
		if isText[seg.Addr] {
			i++
			continue
		}
		lo, hi := seg.Addr, seg.End()
		for i++; i < len(im.Segments) && !isText[im.Segments[i].Addr] && im.Segments[i].Addr == hi; i++ {
			hi = im.Segments[i].End()
		}
		m.mem.Reserve(lo, hi-lo)
	}
	// Only the stack's top page gets an arena: reserving the whole
	// StackSize extent would zero 4 MiB per run for programs whose frames
	// fit in a few KiB. Deeper stack addresses fall to the page map, which
	// reads zero until a page's first write creates it.
	m.mem.Reserve(objfile.StackTop-pageSize, pageSize)
	for _, seg := range texts {
		m.mem.Reserve(seg.Addr, uint64(len(seg.Data)))
	}

	for i := range im.Segments {
		seg := &im.Segments[i]
		m.mem.LoadBytes(seg.Addr, seg.Data)
	}
	for _, seg := range texts {
		insts, err := axp.DecodeAll(seg.Data)
		if err != nil {
			return nil, fmt.Errorf("sim: %s does not decode: %w", seg.Name, err)
		}
		m.segs = append(m.segs, newDecSeg(seg.Addr, insts))
	}
	if len(m.segs) == 0 {
		return nil, fmt.Errorf("sim: image has no text segment")
	}
	if cfg.Profile {
		m.profiling = true
		m.profBlocks = make([][]uint64, len(m.segs))
		for i := range m.segs {
			m.profBlocks[i] = make([]uint64, len(m.segs[i].uops))
		}
		m.profOps = make([]uint64, 256) // axp.Op is a uint8
	}
	m.PC = im.Entry
	m.R[axp.SP] = objfile.StackTop
	m.R[axp.PV] = im.Entry
	if cfg.Timing {
		m.icache = NewCache(cfg.ICacheBytes, 32)
		m.dcache = NewCache(cfg.DCacheBytes, 32)
		if cfg.L2Bytes > 0 {
			if cfg.L2MissPenalty == 0 {
				cfg.L2MissPenalty = 24
				m.cfg.L2MissPenalty = 24
			}
			m.l2 = NewCache(cfg.L2Bytes, 32)
		}
	}
	m.missPenalty = uint64(m.cfg.MissPenalty)
	m.l2MissPenalty = uint64(m.cfg.L2MissPenalty)
	m.takenBubble = uint64(m.cfg.TakenBranchBubble)
	return m, nil
}

// Run executes until HALT or an error.
func Run(im *objfile.Image, cfg Config) (*Result, error) {
	return RunContext(context.Background(), im, cfg)
}

// RunContext is Run with cancellation: a long simulation aborts with the
// context's error a bounded number of instructions after it is canceled.
func RunContext(ctx context.Context, im *objfile.Image, cfg Config) (*Result, error) {
	m, err := New(im, cfg)
	if err != nil {
		return nil, err
	}
	return m.RunContext(ctx)
}

// Run executes the loaded program.
func (m *Machine) Run() (*Result, error) {
	return m.RunContext(context.Background())
}

// cancelCheckMask picks how often the run loop polls the context: every
// 64Ki instructions, cheap enough to be invisible in the timing model's
// wall-clock but prompt enough to stop a canceled matrix run quickly.
const cancelCheckMask = 1<<16 - 1

// RunContext executes the loaded program until HALT, an error, or
// cancellation. The loop works a basic block at a time: resolve() maps PC
// to a pre-decoded segment once per control transfer, and the inner loop
// walks the block's uops by index with no per-instruction fetch lookup.
func (m *Machine) RunContext(ctx context.Context) (*Result, error) {
	done := ctx.Done()
	maxInst := m.cfg.MaxInstructions
	timing := m.cfg.Timing
	for !m.halted {
		if m.stats.Instructions >= maxInst {
			return nil, fmt.Errorf("%w (%d) at pc=%#x", ErrInstructionLimit, maxInst, m.PC)
		}
		if done != nil && m.stats.Instructions&cancelCheckMask == 0 {
			select {
			case <-done:
				return nil, fmt.Errorf("sim: run canceled at pc=%#x: %w", m.PC, ctx.Err())
			default:
			}
		}
		seg, idx, err := m.resolve()
		if err != nil {
			return nil, err
		}
		end := int(seg.blockEnd[idx])
		if m.profiling {
			m.profBlocks[m.curSeg][idx]++
		}
		for {
			u := &seg.uops[idx]
			pc := m.PC
			m.stats.Instructions++
			if m.profiling {
				m.profOps[u.op]++
			}
			taken, memAddr, isMem, err := m.execUop(u)
			if err != nil {
				return nil, fmt.Errorf("%w (pc=%#x, inst=%v)", err, pc, seg.insts[idx])
			}
			if timing {
				m.timeUop(u, pc, taken, memAddr, isMem)
			}
			idx++
			if idx >= end || m.halted {
				break // control transfer (or halt): re-resolve
			}
			// Straight-line fallthrough: the next uop is at PC. Keep the
			// classic loop's per-instruction limit and cancellation cadence.
			if m.stats.Instructions >= maxInst {
				return nil, fmt.Errorf("%w (%d) at pc=%#x", ErrInstructionLimit, maxInst, m.PC)
			}
			if done != nil && m.stats.Instructions&cancelCheckMask == 0 {
				select {
				case <-done:
					return nil, fmt.Errorf("sim: run canceled at pc=%#x: %w", m.PC, ctx.Err())
				default:
				}
			}
		}
	}
	if timing {
		m.stats.ICacheMisses = m.icache.Misses
		m.stats.ICacheHits = m.icache.Accesses - m.icache.Misses
		m.stats.DCacheMisses = m.dcache.Misses
		m.stats.DCacheHits = m.dcache.Accesses - m.dcache.Misses
		if m.l2 != nil {
			m.stats.L2Misses = m.l2.Misses
		}
		m.stats.Cycles = m.cycle
	}
	res := &Result{Exit: m.exit, Output: m.out, OutBytes: m.outB, Stats: m.stats, Profile: m.profile}
	if m.profiling {
		res.BlockProfile = m.blockProfile()
		res.InstMix = m.instMix()
	}
	return res, nil
}

// blockProfile summarizes the block-entry counters, sorted by descending
// count (ties by PC, so the report is deterministic).
func (m *Machine) blockProfile() []BlockCount {
	var out []BlockCount
	for s := range m.segs {
		seg := &m.segs[s]
		for i, n := range m.profBlocks[s] {
			if n == 0 {
				continue
			}
			out = append(out, BlockCount{
				PC:    seg.base + uint64(4*i),
				Len:   int(seg.blockEnd[i]) - i,
				Count: n,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// instMix maps executed opcode mnemonics to their dynamic counts.
func (m *Machine) instMix() map[string]uint64 {
	mix := make(map[string]uint64)
	for op, n := range m.profOps {
		if n > 0 {
			mix[axp.Op(op).String()] = n
		}
	}
	return mix
}

// fetch returns the decoded instruction at PC. An unaligned PC is reported
// as such, distinct from a PC outside every text segment.
func (m *Machine) fetch() (axp.Inst, error) {
	seg, idx, err := m.resolve()
	if err != nil {
		return axp.Inst{}, err
	}
	return seg.insts[idx], nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// fpBool is the Alpha FP truth value: 2.0 for true, +0.0 for false.
func fpBool(b bool) float64 {
	if b {
		return 2.0
	}
	return 0.0
}

func truncToInt64(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	}
	return int64(f)
}

// MissEntry pairs a symbol region with its data-cache miss count.
type MissEntry struct {
	Name  string
	Count uint64
}

// MissHistogram runs the image and attributes every D-cache miss to the
// covering data symbol (diagnostic helper for layout studies).
func MissHistogram(im *objfile.Image, cfg Config) []MissEntry {
	m, err := New(im, cfg)
	if err != nil {
		return nil
	}
	counts := make(map[string]uint64)
	name := func(addr uint64) string {
		best := "?"
		for _, s := range im.Symbols {
			if s.Kind == objfile.SymData && addr >= s.Addr && addr < s.Addr+s.Size {
				return s.Name
			}
		}
		if addr >= objfile.StackTop-objfile.StackSize && addr <= objfile.StackTop {
			return "<stack>"
		}
		for _, g := range im.GATs {
			if addr >= g.Start && addr < g.End {
				return "<gat>"
			}
		}
		return best
	}
	m.missHook = func(addr uint64) { counts[name(addr)]++ }
	if _, err := m.Run(); err != nil {
		return nil
	}
	var out []MissEntry
	for k, v := range counts {
		out = append(out, MissEntry{k, v})
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j].Count > out[i].Count {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	if len(out) > 8 {
		out = out[:8]
	}
	return out
}

// ReadBytes copies n bytes of simulated memory starting at addr, for
// post-run state inspection (the differential verifier compares the final
// contents of data symbols across layouts). addr must be quadword-aligned;
// unmapped pages read as zero, matching the machine's own loads.
func (m *Machine) ReadBytes(addr uint64, n int) ([]byte, error) {
	if addr&7 != 0 {
		return nil, fmt.Errorf("sim: unaligned ReadBytes at %#x", addr)
	}
	quads := (n + 7) / 8
	buf := make([]byte, 8*quads)
	for i := 0; i < quads; i++ {
		v, err := m.mem.Read64(addr + uint64(8*i))
		if err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	return buf[:n], nil
}
