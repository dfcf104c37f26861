package main

import (
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

type metricDef struct{ name, unit string }

// e2eCounts are the end-to-end metrics derived from exact per-point counts
// rather than from the clock.
var e2eCounts = []metricDef{
	{"text_bytes", "bytes"},
	{"sim_cycles_ratio", "ratio"},
}

// layerMetrics is every per-layer metric a traced run prints, in the order
// BENCHMARK.json lists them. A metric a workload does not exercise reads 0.
// Times are self times in ms per traced op.
var layerMetrics = []metricDef{
	{"objfile.read_time", "ms"},
	{"objfile.write_time", "ms"},
	{"link.merge_time", "ms"},
	{"om.memo_lookup_time", "ms"},
	{"om.lift_time", "ms"},
	{"om.passes_time", "ms"},
	{"om.layout_time", "ms"},
	{"om.emit_time", "ms"},
	{"om.other_time", "ms"},
	{"buildcache.lookup_time", "ms"},
	{"omd.http_time", "ms"},
	{"omd.admission_time", "ms"},
	{"omd.queue_wait_time", "ms"},
	{"omd.exec_time", "ms"},
	{"omd.exec_self_time", "ms"},
	{"verify.translate_time", "ms"},
	{"dataflow.analyze_time", "ms"},
	{"sim.run_time", "ms"},
	{"om.addr_removed", "count"},
	{"om.insts_deleted", "count"},
	{"om.insts_nullified", "count"},
	{"om.jsr_after", "count"},
	{"om.gp_reset_after", "count"},
	{"om.gat_bytes_after", "bytes"},
	{"omd.jobs", "count"},
	{"omd.memo_hit_frac", "frac"},
	{"omd.coalesced_frac", "frac"},
	{"omd.image_hit_frac", "frac"},
	{"omd.fresh_frac", "frac"},
	{"omd.write_frac", "frac"},
	{"omd.rejected", "count"},
	{"buildcache.program_lookups", "count"},
	{"buildcache.program_hit_frac", "frac"},
	{"buildcache.program_evictions", "count"},
	{"buildcache.image_lookups", "count"},
	{"buildcache.image_hit_frac", "frac"},
	{"om.memo.lift_lookups", "count"},
	{"om.memo.lift_hit_frac", "frac"},
	{"om.memo.lift_evictions", "count"},
	{"om.memo.pass_lookups", "count"},
	{"om.memo.pass_hit_frac", "frac"},
	{"om.memo.pass_evictions", "count"},
	{"verify.translate_ns_per_byte_1x", "ns/B"},
	{"verify.translate_ns_per_byte_16x", "ns/B"},
	{"dataflow.analyze_ns_per_byte_1x", "ns/B"},
	{"dataflow.analyze_ns_per_byte_16x", "ns/B"},
	{"verify.checked", "count"},
	{"dataflow.checked", "count"},
	{"dataflow.errors", "count"},
	{"sim.instructions", "count"},
	{"sim.icache_misses", "count"},
	{"trace.ops", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.accounted_frac", "frac"},
	{"ref.kernel_ms", "ms"},
	{"raw.latency_p50", "ms"},
}

// spanLayer maps the span names a traced op records — the benchmark's own
// spans around public calls, plus the ones om.WithSpan and omd emit — to
// layer names. A span's self time is charged to its layer.
var spanLayer = map[string]string{
	"objfile.read":     "objfile.read",
	"objfile.write":    "objfile.write",
	"link.merge":       "link.merge",
	"verify.translate": "verify.translate",
	"dataflow.analyze": "dataflow.analyze",
	"sim.run":          "sim.run",
	"om":               "om.other",
	"om/memo-lookup":   "om.memo_lookup",
	"om/lift":          "om.lift",
	"om/passes":        "om.passes",
	"om/layout":        "om.layout",
	"om/emit":          "om.emit",
	// omd job traces (GET /jobs/{id}/trace).
	"job":            "omd.admission",
	"admission":      "omd.admission",
	"queue-wait":     "omd.queue_wait",
	"attached-wait":  "omd.queue_wait",
	"execute":        "omd.exec_self",
	"image-cache":    "buildcache.lookup",
	"program-cache":  "buildcache.lookup",
	"decode-objects": "objfile.read",
	"merge":          "link.merge",
}

// layerTimes accumulates per-layer self time over the traced ops.
type layerTimes struct {
	mu  sync.Mutex
	sum map[string]time.Duration
}

func newLayerTimes() *layerTimes { return &layerTimes{sum: map[string]time.Duration{}} }

func (lt *layerTimes) add(layer string, d time.Duration) {
	lt.mu.Lock()
	lt.sum[layer] += d
	lt.mu.Unlock()
}

// addDoc charges every span of the tree its self time: its duration minus
// the part its children cover. The root is skipped when skipRoot is set (the
// benchmark's own op span, whose self time is loop glue).
func (lt *layerTimes) addDoc(d *obs.SpanDoc, skipRoot bool) {
	d.Walk(func(sp *obs.SpanDoc) {
		if skipRoot && sp == d {
			return
		}
		self := sp.Duration
		for _, c := range sp.Children {
			self -= c.Duration
		}
		layer, ok := spanLayer[sp.Name]
		if !ok {
			layer = "other." + strings.ReplaceAll(sp.Name, "/", ".")
		}
		lt.add(layer, self)
	})
}

// means returns each layer's mean self time per traced op in ms, keyed by
// its metric name.
func (lt *layerTimes) means(ops int) map[string]float64 {
	out := map[string]float64{}
	if ops == 0 {
		return out
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for k, v := range lt.sum {
		out[k+"_time"] = ms(v) / float64(ops)
	}
	return out
}

// selfSum totals the self time charged to named layers, in ms.
func (lt *layerTimes) selfSum() float64 {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	var t float64
	for k, v := range lt.sum {
		if !strings.HasPrefix(k, "other.") {
			t += ms(v)
		}
	}
	return t
}
