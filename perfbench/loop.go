package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// refPeriod is how often the loop pauses every client and times the
// reference kernel.
const refPeriod = 100 * time.Millisecond

// refNominalMS fixes the unit of the clock metrics: a run's times are
// multiplied by refNominalMS / its own kernel time (kernelMean), i.e.
// reported as if the kernel had taken refNominalMS (about its time on a
// quiet 2 vCPU x86-64 host with Go 1.24, one copy at a time). Host-speed
// drift between runs then cancels out, while a change to the code under
// test does not.
const refNominalMS = 1.4

// refKernel is a fixed mix of the work the pipeline does — map inserts,
// string building, sorting, hashing and small allocations — that no code
// under test touches.
func refKernel() uint64 {
	x := uint64(88172645463325252)
	m := make(map[string]int, 256)
	keys := make([]string, 0, 3000)
	for i := 0; i < 3000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := strconv.FormatUint(x%40000, 36)
		m[k]++
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	var buf [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(buf[:], uint64(m[k]))
		h.Write(buf[:])
		h.Write([]byte(k))
	}
	type node struct {
		next *node
		v    uint64
	}
	var head *node
	for i := 0; i < 2000; i++ {
		head = &node{head, x + uint64(i)}
	}
	var sum uint64
	for n := head; n != nil; n = n.next {
		sum += n.v
	}
	return sum ^ binary.LittleEndian.Uint64(h.Sum(nil))
}

// serveRefKernel is the reference process: for every byte read from stdin
// it times the kernel once and writes the time in nanoseconds as a line to
// stdout, until stdin closes. It runs as its own process so that its heap and
// GC see only the kernel's allocation: timed inside the benchmark's process,
// the kernel would pay GC assists and mark work driven by the code under
// test's allocation rate and live heap, and a change that cuts those would
// speed up the reference too and partly cancel itself out. One copy at a
// time: while the clients are paused the other CPU is left to the
// benchmark's own background GC work, which a second copy would queue
// behind.
func serveRefKernel() error {
	in := bufio.NewReader(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	for {
		if _, err := in.ReadByte(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		t0 := time.Now()
		refKernel()
		fmt.Fprintln(out, time.Since(t0).Nanoseconds())
		if err := out.Flush(); err != nil {
			return err
		}
	}
}

// refClock collects reference-kernel timings over a run, taken by a child
// reference process (serveRefKernel).
type refClock struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	mu      sync.Mutex
	samples []time.Duration
}

// refAttempts is how often starting the reference process, or one sample,
// is tried before the run fails: a fork that fails for want of memory or
// process slots on a busy host succeeds a moment later.
const refAttempts = 3

// newRefClock starts the reference process, this executable run with
// -refkernel.
func newRefClock() (*refClock, error) {
	r := &refClock{}
	var err error
	for i := 0; i < refAttempts; i++ {
		if err = r.start(); err == nil {
			return r, nil
		}
		logf("reference process: %v", err)
		time.Sleep(time.Duration(i+1) * 100 * time.Millisecond)
	}
	return nil, fmt.Errorf("reference process: %w", err)
}

// start starts a reference process. It executes /proc/self/exe, the file
// this process runs, so a rebuild of the binary's path while the run is in
// progress cannot swap or remove the reference program under it.
func (r *refClock) start() error {
	exe := "/proc/self/exe"
	if _, err := os.Stat(exe); err != nil {
		if exe, err = os.Executable(); err != nil {
			return err
		}
	}
	cmd := exec.Command(exe, "-refkernel")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	r.cmd, r.in, r.out = cmd, in, bufio.NewReader(stdout)
	return nil
}

// sample has the reference process time the kernel once and records the
// time taken among the window's samples.
func (r *refClock) sample() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, err := r.take()
	if err == nil {
		r.samples = append(r.samples, d)
	}
	return err
}

// probe times the kernel n times now, outside the window's samples, and
// returns the times.
func (r *refClock) probe(n int) ([]time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		d, err := r.take()
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// take times the kernel once, replacing the reference process if it has
// died.
func (r *refClock) take() (time.Duration, error) {
	var err error
	for i := 0; i < refAttempts; i++ {
		var d time.Duration
		if d, err = r.sampleOnce(); err == nil {
			return d, nil
		}
		logf("reference process: %v; restarting it", err)
		r.stop()
		time.Sleep(time.Duration(i+1) * 100 * time.Millisecond)
		if err = r.start(); err != nil {
			logf("reference process: %v", err)
		}
	}
	return 0, fmt.Errorf("reference process: %w", err)
}

func (r *refClock) sampleOnce() (time.Duration, error) {
	if r.cmd == nil {
		return 0, fmt.Errorf("not running")
	}
	if _, err := r.in.Write([]byte{'\n'}); err != nil {
		return 0, err
	}
	line, err := r.out.ReadString('\n')
	if err != nil {
		return 0, err
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		return 0, err
	}
	return time.Duration(ns), nil
}

// stop closes the reference process's input, which ends it, and waits for
// it to exit.
func (r *refClock) stop() {
	if r.cmd == nil {
		return
	}
	r.in.Close()
	r.cmd.Wait()
	r.cmd = nil
}

// close stops the reference process.
func (r *refClock) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stop()
}

// kernelMS is the window's kernel time: the mean of its samples.
func (r *refClock) kernelMS() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return kernelMean(r.samples)
}

// kernelMean is the mean kernel time in ms over the fastest 95% of ds. A
// mean, not a median, because the window's throughput and latencies are
// means over the host's slow and fast spells too: in trials on this
// benchmark's 2 vCPU host the mean left the smaller run-to-run spread of
// throughput and median latency. The slowest 5% are dropped so that a lone
// stall of the reference process cannot move it.
func kernelMean(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	s = s[:len(s)-len(s)/20]
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return ms(t) / float64(len(s))
}

// scale converts this run's clock readings to the nominal kernel speed.
func (r *refClock) scale() float64 {
	if m := r.kernelMS(); m > 0 {
		return refNominalMS / m
	}
	return 1
}

// loopResult is what the measured window recorded.
type loopResult struct {
	untraced, traced  []time.Duration
	attempted, failed int
	busy              time.Duration // window wall time minus the reference pauses
	liveHeap          []uint64      // live heap each GC of the window found
	layers            *layerTimes
}

// runLoop drives inst's clients in a closed loop for the window: each client
// starts its next op as soon as the previous one returns, and after each op
// records the live heap a GC found, if one finished during the op. Every refPeriod a sampler takes the
// gate, which lets in-flight ops finish and holds new ones back, and times
// the reference kernel on the paused workload.
func runLoop(ctx context.Context, inst instance, window time.Duration, tracedRun bool, ref *refClock) (loopResult, error) {
	var (
		gate   sync.RWMutex
		next   atomic.Int64
		mu     sync.Mutex
		res    = loopResult{layers: newLayerTimes()}
		paused time.Duration
		refErr error
	)
	liveStart := liveHeap()
	start := time.Now()
	deadline := start.Add(window)
	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		t := time.NewTicker(refPeriod)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			gate.Lock()
			t0 := time.Now()
			err := ref.sample()
			mu.Lock()
			paused += time.Since(t0)
			mu.Unlock()
			gate.Unlock()
			if err != nil {
				refErr = err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < inst.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
			var lastCycle uint64
			for time.Now().Before(deadline) {
				gate.RLock()
				seq := int(next.Add(1) - 1)
				traced := tracedRun && inst.traced(seq)
				var lt *layerTimes
				if traced {
					lt = res.layers
				}
				lat, err := inst.op(ctx, seq, lt)
				gate.RUnlock()
				metrics.Read(gc)
				mu.Lock()
				if c := gc[0].Value.Uint64(); c != lastCycle && (inst.heapOps() == 0 || seq < inst.heapOps()) {
					lastCycle = c
					res.liveHeap = append(res.liveHeap, gc[1].Value.Uint64())
				}
				res.attempted++
				switch {
				case err != nil:
					res.failed++
					logf("op %d: %v", seq, err)
				case traced:
					res.traced = append(res.traced, lat)
				default:
					res.untraced = append(res.untraced, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	<-samplerDone
	if refErr != nil {
		return res, refErr
	}
	res.busy = elapsed - paused
	logf("%d GCs; live at start %d MB, at end %d MB", len(res.liveHeap), liveStart>>20, liveHeap()>>20)
	return res, nil
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
