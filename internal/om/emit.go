package om

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/axp"
	"repro/internal/link"
	"repro/internal/objfile"
)

// Emission is fully read-only on the Prog and the Plan: label moves,
// scheduling orders, and final addresses live in pooled scratch
// (emitScratch) rather than on the instructions, so emitting never changes
// what the journal or the checkers see of the program.

// labelPos places one label at an index of its procedure's final
// instruction list.
type labelPos struct{ label, pos int32 }

// alignPad is the unop alignLoopTargets inserts. Emission only reads it, so
// every padding slot of every emission shares this one instruction; its ord
// of -1 keeps it out of the address scratch.
var alignPad = SInst{In: axp.Unop(), Target: -1, ord: -1}

// emitScratch holds Emit's working storage. Every buffer is sized exactly
// from the program being emitted, never grown by doubling, and reused by
// later emissions that fit; the value is pooled so a resident daemon's warm
// relinks do not reallocate it per job.
type emitScratch struct {
	// insts holds every procedure's final instruction list back to back:
	// procedure i's is insts[start[i]:start[i+1]]. Its capacity is the
	// program's instruction count plus, when scheduling, one alignment
	// unop per label.
	insts []*SInst
	start []int32
	// labs holds, for the same procedure i, labs[labStart[i]:labStart[i+1]]:
	// every label's position in the final list, in position order. Labels
	// address positions, not instructions, so rescheduling a block (a
	// permutation that keeps labeled instructions first) leaves them be.
	labs     []labelPos
	labStart []int32
	// labelIdx (-1 = unplaced) and backward are indexed by label, for the
	// procedure at hand.
	labelIdx []int32
	backward []bool
	// pads are the positions alignLoopTargets puts a unop before.
	pads []int32
	// raw, block and sched reschedule one basic block at a time.
	raw   []axp.Inst
	block []*SInst
	sched axp.Scheduler
	// addrs maps an instruction's ordinal (SInst.ord) to its final text
	// address for this emission. 0 means "not part of the current emission"
	// (all text bases are nonzero), which is how a GP reset anchored to a
	// removed call is detected.
	addrs []uint64
	// procAddr holds this emission's finalized procedure addresses, indexed
	// by Proc.idx — the refinement of the plan's estimates after label
	// normalization, scheduling, and alignment padding. Keeping it here (not
	// on the plan) is what lets one plan serve concurrent emissions.
	procAddr []uint64
	// gaps are the alignment-padding word addresses between procedures —
	// the only text words the encode loop does not write, filled with
	// unops instead of prefilling the whole region.
	gaps []uint64
	// extents are the initialized data extents, pieces the runs Emit
	// materializes (see ZeroSplitMin).
	extents []dataExtent
	pieces  []dataExtent
}

var emitScratchPool = sync.Pool{
	New: func() any { return new(emitScratch) },
}

// fit returns buf emptied, or a new buffer of capacity exactly n when buf
// cannot hold n elements.
func fit[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// size readies the scratch for one emission of pg.
func (sc *emitScratch) size(pg *Prog, pl *Plan, sched bool) {
	nInsts, nLabels, maxInsts, maxLabels := 0, 0, 0, 0
	for _, pr := range pg.Procs {
		nInsts += len(pr.Insts)
		nLabels += pr.nextLabel
		maxInsts = max(maxInsts, len(pr.Insts))
		maxLabels = max(maxLabels, pr.nextLabel)
	}
	pads := 0
	if sched {
		pads = nLabels
		sc.raw = fit(sc.raw, maxInsts)[:maxInsts]
		sc.block = fit(sc.block, maxInsts)[:maxInsts]
		sc.pads = fit(sc.pads, maxLabels)
		sc.backward = fit(sc.backward, maxLabels)[:maxLabels]
	}
	sc.insts = fit(sc.insts, nInsts+pads)
	sc.start = fit(sc.start, len(pg.Procs)+1)
	sc.labs = fit(sc.labs, nLabels)
	sc.labStart = fit(sc.labStart, len(pg.Procs)+1)
	sc.labelIdx = fit(sc.labelIdx, maxLabels)[:maxLabels]
	for i := range sc.labelIdx {
		sc.labelIdx[i] = -1
	}
	sc.addrs = fit(sc.addrs, pg.nOrd)[:pg.nOrd]
	clear(sc.addrs)
	sc.procAddr = fit(sc.procAddr, len(pg.Procs))[:len(pg.Procs)]
	sc.gaps = fit(sc.gaps, len(pg.Procs))
	sc.extents = fit(sc.extents, 2+len(pl.gat.Slots)+2*len(pg.P.Objects))
	sc.pieces = fit(sc.pieces, cap(sc.extents))
}

// release drops instruction and image-data references (so the pool never
// pins a program or an image) while keeping every buffer, and returns the
// scratch to the pool.
func (sc *emitScratch) release() {
	clear(sc.insts[:cap(sc.insts)])
	clear(sc.block[:cap(sc.block)])
	clear(sc.pieces[:cap(sc.pieces)])
	emitScratchPool.Put(sc)
}

// proc returns procedure i's final instructions and label positions.
func (sc *emitScratch) proc(i int) ([]*SInst, []labelPos) {
	return sc.insts[sc.start[i]:sc.start[i+1]], sc.labs[sc.labStart[i]:sc.labStart[i+1]]
}

// normalizeLabels appends the procedure's live instructions to insts and
// their label positions to labs: labels on deleted instructions move onto
// the next live one. The procedure itself is never modified.
func (sc *emitScratch) normalizeLabels(pr *Proc) error {
	first := len(sc.insts)
	for _, si := range pr.Insts {
		// A deleted instruction's labels address the index the next live
		// instruction will take.
		for _, l := range si.Labels {
			if l < 0 || l >= pr.nextLabel {
				return fmt.Errorf("om: %s: label %d was never allocated", pr.Name, l)
			}
			sc.labs = append(sc.labs, labelPos{label: int32(l), pos: int32(len(sc.insts) - first)})
		}
		if !si.Deleted {
			sc.insts = append(sc.insts, si)
		}
	}
	n := len(sc.insts) - first
	for _, lp := range sc.labs[sc.labStart[len(sc.labStart)-1]:] {
		if int(lp.pos) == n {
			return fmt.Errorf("om: %s: label %d dangles past the last instruction", pr.Name, lp.label)
		}
	}
	return nil
}

// rescheduleProc list-schedules each basic block of the live instruction
// list in place, using the same latency model as the compile-time
// scheduler. A block ends before a labeled instruction and at a branch,
// jump or PAL call, which stay put. A GP-setup pair at procedure entry is
// pinned there: callers may be branching to entry+8 to skip it.
func (sc *emitScratch) rescheduleProc(live []*SInst, labs []labelPos) {
	pinned := 0
	if len(live) >= 2 &&
		live[0].GPD != nil && live[0].GPD.High && live[0].GPD.Entry &&
		live[1].GPD != nil && live[1] == live[0].GPD.Partner {
		pinned = 2
	}
	start := pinned
	flush := func(end int) {
		if end-start > 1 {
			blk := live[start:end]
			raw, tmp := sc.raw[:len(blk)], sc.block[:len(blk)]
			for i, si := range blk {
				raw[i], tmp[i] = si.In, si
			}
			for pos, idx := range sc.sched.Order(raw) {
				blk[pos] = tmp[idx]
			}
		}
		start = end
	}
	for i, li := pinned, 0; i < len(live); i++ {
		for li < len(labs) && int(labs[li].pos) < i {
			li++
		}
		if li < len(labs) && int(labs[li].pos) == i {
			flush(i)
		}
		if in := live[i].In; in.Op.IsBranch() || in.Op.IsJump() || in.Op == axp.CALLPAL {
			flush(i)
			start = i + 1
		}
	}
	flush(len(live))
}

// alignLoopTargets inserts unops so that instructions targeted by backward
// branches start on a quadword boundary (procedure bases are quadword
// aligned). This is the OM-full alignment pass that helps the dual-issue
// fetcher. The procedure's list is the tail of insts; it grows in place and
// its label positions shift with their instructions.
func (sc *emitScratch) alignLoopTargets(first int, labs []labelPos) {
	live := sc.insts[first:]
	for _, lp := range labs {
		sc.labelIdx[lp.label] = lp.pos
	}
	found := false
	for i, si := range live {
		if t := si.Target; t >= 0 && int(t) < len(sc.labelIdx) {
			if ti := sc.labelIdx[t]; ti >= 0 && int(ti) <= i {
				sc.backward[t] = true
				found = true
			}
		}
	}
	if found {
		// A unop goes before a backward target whose offset, counting the
		// unops already placed, is not a quadword multiple.
		pads := sc.pads[:0]
		for k := 0; k < len(labs); {
			pos, target := labs[k].pos, false
			for ; k < len(labs) && labs[k].pos == pos; k++ {
				target = target || sc.backward[labs[k].label]
			}
			if target && (int(pos)+len(pads))%2 != 0 {
				pads = append(pads, pos)
			}
		}
		sc.pads = pads
		if n := len(live); len(pads) > 0 {
			sc.insts = slices.Grow(sc.insts, len(pads))[:len(sc.insts)+len(pads)]
			live = sc.insts[first:]
			for i, k := n-1, len(pads); i >= 0; i-- {
				live[i+k] = live[i]
				if k > 0 && int(pads[k-1]) == i {
					k--
					live[i+k] = &alignPad
				}
			}
			for i, k := 0, 0; i < len(labs); i++ {
				for k < len(pads) && pads[k] <= labs[i].pos {
					k++
				}
				labs[i].pos += int32(k)
			}
		}
	}
	for _, lp := range labs {
		sc.labelIdx[lp.label] = -1
		sc.backward[lp.label] = false
	}
}

// Emit regenerates an executable image from the symbolic program under the
// given plan. When sched is true the OM-full rescheduler and loop-alignment
// passes run first. Emission never writes to the program: a renumbered Prog
// (Run renumbers before every emission) can be emitted concurrently by any
// number of goroutines.
func Emit(pg *Prog, pl *Plan, sched bool) (*objfile.Image, error) {
	p := pg.P
	if pg.nOrd == 0 {
		// Direct API callers may emit a program Run never renumbered.
		pg.renumber()
	}
	sc := emitScratchPool.Get().(*emitScratch)
	defer sc.release()
	sc.size(pg, pl, sched)
	addrs := sc.addrs

	// Finalize instruction lists and procedure addresses, per region.
	procAddr := sc.procAddr
	tcur := [2]uint64{objfile.TextBase, objfile.SharedTextBase}
	for _, pr := range pg.Procs {
		first := len(sc.insts)
		sc.start = append(sc.start, int32(first))
		sc.labStart = append(sc.labStart, int32(len(sc.labs)))
		if err := sc.normalizeLabels(pr); err != nil {
			return nil, err
		}
		if sched {
			labs := sc.labs[sc.labStart[len(sc.labStart)-1]:]
			sc.rescheduleProc(sc.insts[first:], labs)
			sc.alignLoopTargets(first, labs)
		}
		r := pl.regionOf(pr.Mod)
		for tcur[r]%8 != 0 {
			sc.gaps = append(sc.gaps, tcur[r])
			tcur[r] += 4
		}
		procAddr[pr.idx] = tcur[r]
		for _, si := range sc.insts[first:] {
			if si.ord >= 0 {
				addrs[si.ord] = tcur[r]
			}
			tcur[r] += 4
		}
	}
	sc.start = append(sc.start, int32(len(sc.insts)))
	sc.labStart = append(sc.labStart, int32(len(sc.labs)))

	// Encode into per-region text blobs.
	textBases := [2]uint64{objfile.TextBase, objfile.SharedTextBase}
	texts := [2][]byte{
		make([]byte, tcur[0]-objfile.TextBase),
		make([]byte, tcur[1]-objfile.SharedTextBase),
	}
	putWord := func(addr uint64, w uint32) {
		r := 0
		if addr >= objfile.SharedTextBase {
			r = 1
		}
		objfile.PutUint32(texts[r], addr-textBases[r], w)
	}
	// Every text word belongs to exactly one live instruction except the
	// alignment padding between procedures; the encode loop below writes
	// the former, so only the recorded gaps need unops.
	unop := axp.MustEncode(axp.Unop())
	for _, a := range sc.gaps {
		putWord(a, unop)
	}
	labelIdx := sc.labelIdx
	for pi, pr := range pg.Procs {
		gp := int64(pl.GPOf(pr))
		gatIdx := pl.GPGroup(pr)
		live, labs := sc.proc(pi)
		base := procAddr[pr.idx]
		for _, lp := range labs {
			labelIdx[lp.label] = lp.pos
		}
		for idx, si := range live {
			in := si.In
			addr := base + 4*uint64(idx)
			switch {
			case si.GPRel != nil:
				d, err := gprelDisp(pl, si, gp, procAddr)
				if err != nil {
					return nil, fmt.Errorf("om: %s at %#x: %w", pr.Name, addr, err)
				}
				in.Disp = d
			case si.Lit != nil && !si.Lit.Converted && !si.Lit.Nullified:
				slotAddr, ok := pl.SlotAddr(gatIdx, si.Lit.ID)
				if !ok {
					return nil, fmt.Errorf("om: %s: GAT slot for %v vanished", pr.Name, si.Lit.Key)
				}
				d := int64(slotAddr) - gp
				if !fits16(d) {
					return nil, fmt.Errorf("om: %s: GAT slot beyond GP reach", pr.Name)
				}
				in.Disp = int32(d)
			case si.GPD != nil && !in.IsNop():
				if si.GPD.High {
					anchor, err := gpdAnchor(pr, si, addrs, procAddr)
					if err != nil {
						return nil, err
					}
					hi, lo, err := link.SplitGPDisp(gp - int64(anchor))
					if err != nil {
						return nil, fmt.Errorf("om: %s: %w", pr.Name, err)
					}
					in.Disp = int32(hi)
					// Stash the low half for the partner via the map trick:
					// partner is processed on its own; recompute there.
					_ = lo
				} else {
					// Low half: recompute from the paired high.
					hiInst := si.GPD.Partner
					anchor, err := gpdAnchor(pr, hiInst, addrs, procAddr)
					if err != nil {
						return nil, err
					}
					_, lo, err := link.SplitGPDisp(gp - int64(anchor))
					if err != nil {
						return nil, fmt.Errorf("om: %s: %w", pr.Name, err)
					}
					in.Disp = int32(lo)
				}
			}
			if si.Call != nil && !si.Deleted {
				target := procAddr[si.Call.Target.idx] + si.Call.EntryOffset
				d, ok := axp.BranchDispTo(addr, target)
				if !ok {
					return nil, fmt.Errorf("om: %s: call at %#x cannot reach %s+%d",
						pr.Name, addr, si.Call.Target.Name, si.Call.EntryOffset)
				}
				in.Disp = d
			} else if t := si.Target; t >= 0 {
				if int(t) >= len(labelIdx) || labelIdx[t] < 0 {
					return nil, fmt.Errorf("om: %s: missing label %d", pr.Name, t)
				}
				d, ok := axp.BranchDispTo(addr, base+4*uint64(labelIdx[t]))
				if !ok {
					return nil, fmt.Errorf("om: %s: branch out of range", pr.Name)
				}
				in.Disp = d
			}
			w, err := axp.Encode(in)
			if err != nil {
				return nil, fmt.Errorf("om: %s at %#x: encode %v: %w", pr.Name, addr, in, err)
			}
			putWord(addr, w)
		}
		for _, lp := range labs {
			labelIdx[lp.label] = -1
		}
	}

	// Data segments under the plan's placement, per region. Only the
	// initialized extents — GATs and the placed .sdata/.data sections — are
	// materialized, in one exact-sized buffer; zero extents of at least
	// ZeroSplitMin between and after them ship as ZeroSize.
	dataBases := [2]uint64{objfile.DataBase, objfile.SharedDataBase}
	ext := sc.extents
	for r, b := range dataBases {
		// Each region's first segment starts at its base, GAT or not.
		ext = append(ext, dataExtent{region: r, lo: b, hi: b})
	}
	for g, slots := range pl.gat.Slots {
		r := 0
		if pl.gat.GATShared[g] {
			r = 1
		}
		ext = append(ext, dataExtent{region: r, lo: pl.gatStart[g], hi: pl.gatStart[g] + uint64(len(slots))*8})
	}
	for m, obj := range p.Objects {
		for _, sec := range initializedSections {
			if sz := obj.Sections[sec].Size; sz > 0 {
				lo := pl.secBase[m][sec]
				ext = append(ext, dataExtent{region: pl.regionOf(m), lo: lo, hi: (lo + sz + 7) &^ 7})
			}
		}
	}
	slices.SortFunc(ext, func(a, b dataExtent) int { return cmp.Compare(a.lo, b.lo) })
	pieces := sc.pieces
	for _, e := range ext {
		if n := len(pieces); n > 0 && pieces[n-1].region == e.region && e.lo < pieces[n-1].hi+ZeroSplitMin {
			pieces[n-1].hi = max(pieces[n-1].hi, e.hi)
			continue
		}
		pieces = append(pieces, e)
	}
	total := uint64(0)
	for _, pc := range pieces {
		total += pc.hi - pc.lo
	}
	buf := make([]byte, total)
	for i := range pieces {
		n := pieces[i].hi - pieces[i].lo
		pieces[i].data, buf = buf[:n:n], buf[n:]
	}
	sc.extents, sc.pieces = ext, pieces
	at := func(addr uint64) []byte {
		for i := range pieces {
			if pc := &pieces[i]; addr >= pc.lo && addr < pc.hi {
				return pc.data[addr-pc.lo:]
			}
		}
		return nil
	}
	putQuad := func(addr uint64, v uint64) error {
		b := at(addr)
		if len(b) < 8 {
			return fmt.Errorf("om: address quadword at %#x outside initialized data", addr)
		}
		objfile.PutUint64(b, 0, v)
		return nil
	}
	addrOfKey := func(k link.TargetKey) (uint64, error) { return pl.addrOfKeyAt(k, procAddr) }
	for g, slots := range pl.gat.Slots {
		for i, id := range slots {
			a, err := addrOfKey(pl.gat.Keys[id])
			if err != nil {
				return nil, err
			}
			if err := putQuad(pl.gatStart[g]+uint64(i*8), a); err != nil {
				return nil, err
			}
		}
	}
	for m, obj := range p.Objects {
		for _, sec := range initializedSections {
			if len(obj.Sections[sec].Data) > 0 {
				copy(at(pl.secBase[m][sec]), obj.Sections[sec].Data)
			}
		}
		for _, r := range obj.Relocs {
			if r.Kind != objfile.RRefQuad || r.Section == objfile.SecLita {
				continue
			}
			a, err := addrOfKey(link.Key(p.Resolve(m, r.Symbol), r.Addend))
			if err != nil {
				return nil, err
			}
			if err := putQuad(pl.secBase[m][r.Section]+r.Offset, a); err != nil {
				return nil, err
			}
		}
	}

	// Image assembly.
	var entryAddr uint64
	found := false
	for _, pr := range pg.Procs {
		if pr.Name == p.EntryName && pr.Exported {
			entryAddr = procAddr[pr.idx]
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("om: entry symbol %s not found", p.EntryName)
	}
	im := &objfile.Image{
		Entry:    entryAddr,
		Segments: make([]objfile.Segment, 0, 2+len(pieces)),
	}
	im.Segments = append(im.Segments, objfile.Segment{Name: ".text", Addr: objfile.TextBase, Data: texts[0]})
	im.Segments = appendDataSegments(im.Segments, ".data", pieces, 0, pl.dataEnd[0])
	if len(texts[1]) > 0 || pl.dataEnd[1] > objfile.SharedDataBase {
		im.Segments = append(im.Segments, objfile.Segment{Name: ".text.so", Addr: objfile.SharedTextBase, Data: texts[1]})
		im.Segments = appendDataSegments(im.Segments, ".data.so", pieces, 1, pl.dataEnd[1])
	}
	nsyms := len(pg.Procs) + len(p.Commons)
	for _, obj := range p.Objects {
		for s := range obj.Symbols {
			if obj.Symbols[s].Kind == objfile.SymData {
				nsyms++
			}
		}
	}
	im.Symbols = make([]objfile.ImageSymbol, 0, nsyms)
	im.GATs = make([]objfile.GATRange, 0, len(pl.gat.Slots))
	for pi, pr := range pg.Procs {
		im.Symbols = append(im.Symbols, objfile.ImageSymbol{
			Name: pr.Name, Addr: procAddr[pr.idx],
			Size: uint64(sc.start[pi+1]-sc.start[pi]) * 4, Kind: objfile.SymProc,
			GP: pl.GPOf(pr),
		})
	}
	for m, obj := range p.Objects {
		for s := range obj.Symbols {
			sym := &obj.Symbols[s]
			if sym.Kind != objfile.SymData {
				continue
			}
			im.Symbols = append(im.Symbols, objfile.ImageSymbol{
				Name: sym.Name, Addr: pl.secBase[m][sym.Section] + sym.Value,
				Size: sym.Size, Kind: objfile.SymData,
			})
		}
	}
	for i, c := range p.Commons {
		im.Symbols = append(im.Symbols, objfile.ImageSymbol{
			Name: c.Name, Addr: pl.commonAddr[i], Size: c.Size, Kind: objfile.SymData,
		})
	}
	for g := range pl.gat.Slots {
		im.GATs = append(im.GATs, objfile.GATRange{
			Start: pl.gatStart[g],
			End:   pl.gatStart[g] + uint64(len(pl.gat.Slots[g]))*8,
			GP:    pl.gp[g],
		})
	}
	im.SortSymbols()
	if err := im.Validate(); err != nil {
		return nil, fmt.Errorf("om: %w", err)
	}
	return im, nil
}

// ZeroSplitMin is the shortest run of zero quadwords Emit ships as a
// segment's ZeroSize rather than as explicit bytes. A split trades Z zero
// bytes — allocated and cleared by Emit, then written, read back and copied
// into memory by every consumer of the image — for one more segment: a
// 56-byte Segment, a ~40-byte serialized record (name, address, two
// lengths), two allocations when the image is read back, and one more entry
// in every per-address segment scan (the image checkers' quadword lookups;
// sim.New coalesces contiguous segments into a single Reserve, so the
// simulator pays nothing). Clearing and copying run at ~10 GB/s, so the
// fixed cost of a segment, dominated by its ~50-100 ns allocations, is
// worth about 1 KB of zeros in each of those passes. Twice that keeps every
// split clearly profitable and bounds the segments an image gains to one
// per 2 KB of zeros.
const ZeroSplitMin = 2048

// initializedSections are the object sections that carry bytes into the
// data region.
var initializedSections = [...]objfile.SectionKind{objfile.SecSData, objfile.SecData}

// dataExtent is an address range of one data region: an initialized extent
// while Emit collects them, then a piece — a run of extents whose zero gaps
// are all shorter than ZeroSplitMin — with its materialized bytes.
type dataExtent struct {
	region int
	lo, hi uint64 // quadword aligned
	data   []byte
}

// appendDataSegments appends region r's data segments, covering
// [base, end): every run of at least ZeroSplitMin zero bytes in whole
// quadwords, inside or between the region's pieces, becomes the ZeroSize
// of the segment before it, so a segment's Data starts (after the first
// one) and ends with a nonzero quadword.
func appendDataSegments(segs []objfile.Segment, name string, pieces []dataExtent, r int, end uint64) []objfile.Segment {
	var cur *dataExtent // the piece holding the open segment's Data
	segStart, nzEnd := uint64(0), uint64(0)
	for i := range pieces {
		pc := &pieces[i]
		if pc.region != r {
			continue
		}
		if cur == nil {
			// The region's first piece starts at its base.
			cur, segStart, nzEnd = pc, pc.lo, pc.lo
		}
		for a := pc.lo; a < pc.hi; a += 8 {
			if objfile.Uint64At(pc.data, a-pc.lo) == 0 {
				continue
			}
			if a-nzEnd >= ZeroSplitMin {
				segs = append(segs, dataSegment(name, cur, segStart, nzEnd, a))
				cur, segStart = pc, a
			}
			nzEnd = a + 8
		}
	}
	if cur == nil {
		return segs
	}
	return append(segs, dataSegment(name, cur, segStart, nzEnd, end))
}

// dataSegment is the segment at [lo, hi) of piece pc, zero-extended to next.
func dataSegment(name string, pc *dataExtent, lo, hi, next uint64) objfile.Segment {
	seg := objfile.Segment{Name: name, Addr: lo, ZeroSize: next - hi}
	if hi > lo {
		seg.Data = pc.data[lo-pc.lo : hi-pc.lo : hi-pc.lo]
	}
	return seg
}

// gprelDisp computes the final displacement of a GP-relative rewrite.
func gprelDisp(pl *Plan, si *SInst, gp int64, procAddr []uint64) (int32, error) {
	g := si.GPRel
	addr, err := pl.addrOfKeyAt(g.Key, procAddr)
	if err != nil {
		return 0, err
	}
	delta := int64(addr) - gp
	switch g.Kind {
	case GPRelLDA, GPRelUseDirect:
		d := delta + g.Extra
		if !fits16(d) {
			return 0, fmt.Errorf("GP-relative displacement %d no longer fits", d)
		}
		return int32(d), nil
	case GPRelLDAH:
		hi, _, err := link.SplitGPDisp(delta)
		if err != nil {
			return 0, err
		}
		return int32(hi), nil
	case GPRelUseLow:
		haddr, err := pl.addrOfKeyAt(g.HighPart.GPRel.Key, procAddr)
		if err != nil {
			return 0, err
		}
		_, lo, err := link.SplitGPDisp(int64(haddr) - gp)
		if err != nil {
			return 0, err
		}
		d := int64(lo) + g.Extra
		if !fits16(d) {
			return 0, fmt.Errorf("low-part displacement %d no longer fits", d)
		}
		return int32(d), nil
	}
	return 0, fmt.Errorf("unknown GP-relative kind %d", g.Kind)
}

// gpdAnchor computes the address held in the base register of a GP pair,
// reading the emission's ordinal-indexed address scratch.
func gpdAnchor(pr *Proc, hi *SInst, addrs []uint64, procAddr []uint64) (uint64, error) {
	if hi.GPD.Entry {
		return procAddr[pr.idx], nil
	}
	call := hi.GPD.AfterCall
	if call == nil || call.ord < 0 || int(call.ord) >= len(addrs) || addrs[call.ord] == 0 {
		return 0, fmt.Errorf("om: %s: GP reset anchored to a removed call", pr.Name)
	}
	return addrs[call.ord] + 4, nil
}
