package axp

// OpLatency is the issue-to-use latency table of the modeled 21064-class
// pipeline, shared by the compile-time scheduler (internal/tcc) and OM's
// link-time rescheduler (internal/om).
func OpLatency(op Op) int {
	switch {
	case op.IsLoad():
		return 3
	case op == MULL || op == MULQ || op == UMULH:
		return 12
	case op == DIVT:
		return 30
	case op.Format() == FormatOpF:
		return 6
	}
	return 1
}

// ScheduleOrder list-schedules a straight-line block of instructions (no
// branches, no labels except at the start) and returns the new issue order
// as a permutation of indices. Dependences considered: register RAW/WAR/WAW
// in both files, and conservative memory ordering (stores are ordered with
// every other memory access; loads may reorder among themselves).
func ScheduleOrder(insts []Inst) []int {
	var s Scheduler
	return s.Order(insts)
}

// Scheduler is ScheduleOrder with reusable working storage: the dependence
// graph's nodes, each node's successor list and the returned order keep
// their capacity across calls, so scheduling every block of a program
// allocates only when a block is larger than any before it. The zero value
// is ready to use; a Scheduler is not safe for concurrent use.
type Scheduler struct {
	nodes []schedNode
	order []int
}

type schedNode struct {
	reads, writes   uint64
	freads, fwrites uint64
	isMem, isStore  bool
	scheduled       bool
	lat             int
	succs           []int32
	npreds          int
	prio            int
	ready           int
}

// Order schedules insts like ScheduleOrder. The returned slice is owned by
// the Scheduler and valid until its next call.
func (s *Scheduler) Order(insts []Inst) []int {
	n := len(insts)
	if cap(s.order) < n {
		s.order = make([]int, 0, n)
	}
	order := s.order[:0]
	if n <= 1 {
		if n == 1 {
			order = append(order, 0)
		}
		return order
	}
	if cap(s.nodes) < n {
		// Growing drops every successor list; reuse keeps them.
		s.nodes = make([]schedNode, n)
	}
	nodes := s.nodes[:n]
	for i, in := range insts {
		reads, freads := in.ReadMasks()
		var writes, fwrites uint64
		if w := in.Writes(); w != Zero {
			writes |= 1 << w
		}
		if fw := in.WritesF(); fw != FZero {
			fwrites |= 1 << fw
		}
		nodes[i] = schedNode{
			reads: reads, writes: writes, freads: freads, fwrites: fwrites,
			isMem:   in.Op.IsMem(),
			isStore: in.Op.IsStore(),
			lat:     OpLatency(in.Op),
			succs:   nodes[i].succs[:0],
		}
	}
	for j := 1; j < n; j++ {
		for i := j - 1; i >= 0; i-- {
			ni, nj := &nodes[i], &nodes[j]
			dep := ni.writes&nj.reads != 0 ||
				ni.reads&nj.writes != 0 ||
				ni.writes&nj.writes != 0 ||
				ni.fwrites&nj.freads != 0 ||
				ni.freads&nj.fwrites != 0 ||
				ni.fwrites&nj.fwrites != 0 ||
				(ni.isMem && nj.isMem && (ni.isStore || nj.isStore))
			if dep {
				ni.succs = append(ni.succs, int32(j))
				nj.npreds++
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		p := nodes[i].lat
		for _, succ := range nodes[i].succs {
			if nodes[i].lat+nodes[succ].prio > p {
				p = nodes[i].lat + nodes[succ].prio
			}
		}
		nodes[i].prio = p
	}
	clock := 0
	for len(order) < n {
		best := -1
		minFuture := 1 << 30
		for i := 0; i < n; i++ {
			if nodes[i].scheduled || nodes[i].npreds > 0 {
				continue
			}
			if nodes[i].ready > clock {
				if nodes[i].ready < minFuture {
					minFuture = nodes[i].ready
				}
				continue
			}
			if best < 0 || nodes[i].prio > nodes[best].prio ||
				(nodes[i].prio == nodes[best].prio && i < best) {
				best = i
			}
		}
		if best < 0 {
			clock = minFuture
			continue
		}
		nodes[best].scheduled = true
		order = append(order, best)
		for _, succ := range nodes[best].succs {
			nodes[succ].npreds--
			if t := clock + nodes[best].lat; t > nodes[succ].ready {
				nodes[succ].ready = t
			}
		}
		clock++
	}
	s.order = order
	return order
}
