package om

import (
	"sync"
	"sync/atomic"
)

// forEachProc applies fn to every procedure of the program, fanning the
// calls out across the program's configured parallelism (Prog.par). fn must
// confine its writes to the procedure it is handed; state of other
// procedures may only be read, and only fields no concurrent fn call
// writes. Because every call sees the same pre-pass state and the aggregate
// result is the OR of all per-procedure results, the outcome is independent
// of goroutine scheduling — a parallel pass is observationally identical to
// the serial loop it replaces.
func (pg *Prog) forEachProc(fn func(*Proc) bool) bool {
	n := pg.par
	if n > len(pg.Procs) {
		n = len(pg.Procs)
	}
	if n <= 1 {
		changed := false
		for _, pr := range pg.Procs {
			if fn(pr) {
				changed = true
			}
		}
		return changed
	}
	var next atomic.Int64
	var changed atomic.Bool
	runWorkers(n, func() {
		for {
			i := next.Add(1) - 1
			if i >= int64(len(pg.Procs)) {
				return
			}
			if fn(pg.Procs[i]) {
				changed.Store(true)
			}
		}
	})
	return changed.Load()
}

// runWorkers runs n goroutines of work and waits for all of them. A panic
// in one is raised again in the caller once every goroutine has returned,
// so a recover around the link (omd's per-job recovery) sees it instead of
// the process dying.
func runWorkers(n int, work func()) {
	var g struct {
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked any
	}
	g.wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer g.wg.Done()
			defer func() {
				if v := recover(); v != nil {
					g.mu.Lock()
					if g.panicked == nil {
						g.panicked = v
					}
					g.mu.Unlock()
				}
			}()
			work()
		}()
	}
	g.wg.Wait()
	if g.panicked != nil {
		panic(g.panicked)
	}
}
