package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"nbctune/internal/stats"
)

// workload is one named traffic mix. A run calls setup several times (the
// last call leaves the workload ready), then pass repeatedly, then finish.
type workload interface {
	// setup does everything that precedes the first timed op (scenario or
	// request generation, world-build probes, daemon start) and returns how
	// long that took.
	setup() (time.Duration, error)
	// pass runs the workload's fixed op sequence once. tr is nil on
	// untraced passes.
	pass(tr *tracer) passResult
	// finish runs the post-measurement checks and fills the workload's own
	// per-layer values and notes into rep.
	finish(rep *report)
	close()
}

// passResult is one pass of a workload's op sequence. Latencies are kept
// as float32 microseconds so a long kb-closed run (~10^5 requests per pass)
// adds little to the peak RSS it measures.
type passResult struct {
	wall, cpu, sys time.Duration
	ops            int                  // ops attempted
	seq            []float32            // op latencies in the pass's fixed op order, if it has one
	p50            float64              // median op latency, kept after the latencies are dropped
	lat            map[string][]float32 // op latencies by class
	// adcl holds the RunADCL latencies, fixed the RunFixed latencies on the
	// scenarios that also run RunADCL.
	adcl, fixed []float32
	failed      int
}

// record adds one timed op of the given class.
func (p *passResult) record(class string, d time.Duration) {
	if p.lat == nil {
		p.lat = map[string][]float32{}
	}
	x := float32(us(d))
	p.seq = append(p.seq, x)
	p.lat[class] = append(p.lat[class], x)
	p.ops++
}

// merge folds q's ops into p.
func (p *passResult) merge(q passResult) {
	for class, xs := range q.lat {
		if p.lat == nil {
			p.lat = map[string][]float32{}
		}
		p.lat[class] = append(p.lat[class], xs...)
	}
	p.seq = append(p.seq, q.seq...)
	p.adcl = append(p.adcl, q.adcl...)
	p.fixed = append(p.fixed, q.fixed...)
	p.ops += q.ops
	p.failed += q.failed
}

// typicalOp is op_p50_us. When the passes replay a fixed op sequence (the
// simulated workloads), it is the median over the pass's ops of each op's
// median across passes: one slow repetition of an op near the median cannot
// shift it onto a neighbouring op of a different kind (the scale passes mix
// 10 ms and 3 s ops). Passes without a sequence (kb-closed, whose
// concurrent requests are draws from one mix) give the median over all
// passes of each pass's median latency, so that like wall_s it covers the
// whole run: its latency is bimodal, and which mode holds the median
// changes every few seconds.
func typicalOp(ps []passResult) float64 {
	kept := ps[max(len(ps)-keepPasses, 0):]
	n := len(kept[0].seq)
	for _, p := range kept {
		if n == 0 || len(p.seq) != n {
			p50s := make([]float64, len(ps))
			for i, q := range ps {
				p50s[i] = q.p50
			}
			return stats.Median(p50s)
		}
	}
	ps = kept
	perOp := make([]float64, n)
	reps := make([]float64, len(ps))
	for j := range perOp {
		for k, p := range ps {
			reps[k] = float64(p.seq[j])
		}
		perOp[j] = stats.Median(reps)
	}
	return stats.Median(perOp)
}

// pooled returns every op latency of the passes, in microseconds.
func pooled(ps []passResult) []float64 {
	var out []float64
	for _, p := range ps {
		for _, xs := range p.lat {
			out = appendF(out, xs)
		}
	}
	return out
}

func appendF(dst []float64, xs []float32) []float64 {
	for _, x := range xs {
		dst = append(dst, float64(x))
	}
	return dst
}

// report collects everything a run prints or writes.
type report struct {
	cfg       config
	host      host
	attempted int
	failed    int
	notes     []string
	e2e       map[string]metric
	layers    map[string]metric

	setups    []time.Duration
	untraced  []passResult
	traced    []passResult
	tracer    *tracer
	profile   []byte
	attrib    attribution
	peakRSSMB float64
}

// The metric tables below are the contract with BENCHMARK.json (the
// benchmark's tests keep them equal). A per-layer metric that does not
// apply to a workload, or a percentile with fewer than ten samples beyond
// it, is reported as 0.
var e2eMetrics = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
}

var layerMetrics = []struct{ name, unit string }{
	{"runtime.switch_pct", "%"},
	{"runtime.gc_pct", "%"},
	{"runtime.alloc_pct", "%"},
	{"runtime.self_pct", "%"},
	{"runtime.sys_pct", "%"},
	{"sim.heap_pct", "%"},
	{"sim.self_pct", "%"},
	{"netmodel.self_pct", "%"},
	{"mpi.self_pct", "%"},
	{"nbc.self_pct", "%"},
	{"core.self_pct", "%"},
	{"platform.self_pct", "%"},
	{"bench.self_pct", "%"},
	{"kb.self_pct", "%"},
	{"net_http.self_pct", "%"},
	{"encoding_json.self_pct", "%"},
	{"syscall.self_pct", "%"},
	{"log.self_pct", "%"},
	{"trace.self_pct", "%"},
	{"other.self_pct", "%"},
	{"bench.cpu_samples", "count"},
	{"nbc.progress_calls", "count"},
	{"nbc.progress_advanced", "count"},
	{"nbc.progress_useful_ratio", "ratio"},
	{"core.evals", "count"},
	{"core.correct.brute-force", "count"},
	{"core.correct.attr-heuristic", "count"},
	{"core.correct.factorial-2k", "count"},
	{"bench.adcl_over_fixed", "ratio"},
	{"platform.world_us", "us"},
	{"platform.world_alloc_kb", "KiB"},
	{"bench.small_p50_us", "us"},
	{"bench.bulk_p50_us", "us"},
	{"bench.dense_p50_us", "us"},
	{"bench.sparse_p50_us", "us"},
	{"sim.virtual_s", "s"},
	{"netmodel.wire_bytes", "B"},
	{"mpi.rndv_stalls", "count"},
	{"kb.lookup_hit_p50_us", "us"},
	{"kb.lookup_miss_p50_us", "us"},
	{"kb.record_p50_us", "us"},
	{"kb.batch_p50_us", "us"},
	{"kb.hit_ratio", "ratio"},
	{"kb.applied_ratio", "ratio"},
	{"bench.op_p90_us", "us"},
	{"bench.op_p99_us", "us"},
	{"bench.op_samples", "count"},
	{"bench.trace_overhead_s", "s"},
	{"bench.fail_ratio", "ratio"},
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow repetition on a shared host does not move it.
const setupReps = 15

// measure runs one invocation: setups, untraced passes, and on traced runs
// the traced passes, then the workload's checks.
func measure(cfg config, wl workload) (*report, error) {
	rep := &report{cfg: cfg}
	applyGCPolicy(cfg.workload)
	for i := 0; i < setupReps; i++ {
		runtime.GC() // start every set-up from the same heap state
		d, err := wl.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rep.setups = append(rep.setups, d)
	}
	runtime.GC()
	rep.untraced = runPasses(cfg.seconds, wl, nil)
	_, _, rss := rusage()
	rep.peakRSSMB = float64(rss) / (1 << 20)

	if cfg.trace {
		rep.tracer = newTracer(cfg.workload)
		var prof bytes.Buffer
		runtime.GC()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		rep.traced = runPasses(cfg.seconds, wl, rep.tracer)
		pprof.StopCPUProfile()
		rep.profile = prof.Bytes()
		a, err := attribute(rep.profile)
		if err != nil {
			return nil, err
		}
		rep.attrib = a
	}

	for _, p := range append(append([]passResult(nil), rep.untraced...), rep.traced...) {
		rep.attempted += p.ops
		rep.failed += p.failed
	}
	wl.finish(rep)
	rep.e2e = endToEnd(rep)
	if cfg.trace {
		fillLayers(rep)
	}
	return rep, nil
}

// keepPasses is how many of the most recent passes keep their op
// latencies; older passes keep only their totals. It bounds the harness's
// own memory, so a faster program (more kb-closed passes in the same time)
// does not raise the peak RSS the benchmark reports.
const keepPasses = 8

// runPasses repeats whole passes while the next one is expected to end
// within the time budget; it always runs at least one.
func runPasses(seconds float64, wl workload, tr *tracer) []passResult {
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var out []passResult
	var walls []float64
	for {
		cpu0, sys0, _ := rusage()
		t0 := time.Now()
		p := wl.pass(tr)
		p.wall = time.Since(t0)
		cpu1, sys1, _ := rusage()
		p.cpu, p.sys = cpu1-cpu0, sys1-sys0
		p.p50 = quantile(pooled([]passResult{p}), 0.5)
		out = append(out, p)
		if old := len(out) - 1 - keepPasses; old >= 0 {
			out[old].seq, out[old].lat, out[old].adcl, out[old].fixed = nil, nil, nil, nil
		}
		walls = append(walls, p.wall.Seconds())
		next := time.Duration(stats.Median(walls) * float64(time.Second))
		if time.Since(start)+next > budget {
			return out
		}
	}
}

func endToEnd(rep *report) map[string]metric {
	ps := rep.untraced
	var walls, cpus, rates []float64
	for _, p := range ps {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		rates = append(rates, float64(p.ops)/p.wall.Seconds())
	}
	lat := pooled(ps)
	var setups []float64
	for _, d := range rep.setups {
		setups = append(setups, d.Seconds())
	}
	p50 := typicalOp(ps)
	kept := min(len(ps), keepPasses)
	how := fmt.Sprintf("over %d ops per pass, each the median of the last %d passes (%d samples%s)",
		len(ps[len(ps)-1].seq), kept, len(lat), reportable(len(lat), 0.5))
	if len(ps[len(ps)-1].seq) == 0 {
		var ops int
		for _, p := range ps {
			ops += p.ops
		}
		how = fmt.Sprintf("the median of the %d passes' median latencies (%d samples)", len(ps), ops)
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("untraced: %d passes; op_p50_us %s; pass wall_s %s", len(ps), how, list(walls)),
		fmt.Sprintf("setup_s is the median of %d setups: %s", len(setups), list(setups)))
	return map[string]metric{
		"wall_s":      {stats.Median(walls), "s"},
		"setup_s":     {stats.Median(setups), "s"},
		"cpu_s":       {stats.Median(cpus), "s"},
		"peak_rss_mb": {rep.peakRSSMB, "MB"},
		"ops_per_s":   {stats.Median(rates), "1/s"},
		"op_p50_us":   {p50, "us"},
	}
}

// fillLayers computes the traced run's generic per-layer values; the
// workload's finish has already set its own.
func fillLayers(rep *report) {
	set := func(name string, v float64) { setLayer(rep, name, v) }
	for bucket, n := range rep.attrib.buckets {
		set(bucket, 100*float64(n)/float64(max(rep.attrib.total, 1)))
	}
	set("bench.cpu_samples", float64(rep.attrib.total))

	var cpu, sys float64
	for _, p := range rep.untraced {
		cpu += p.cpu.Seconds()
		sys += p.sys.Seconds()
	}
	lat := pooled(rep.untraced)
	if cpu > 0 {
		set("runtime.sys_pct", 100*sys/cpu)
	}
	set("bench.op_p90_us", quantileIfReportable(lat, 0.90))
	set("bench.op_p99_us", quantileIfReportable(lat, 0.99))
	set("bench.op_samples", float64(len(lat)))

	var walls []float64
	for _, p := range rep.traced {
		walls = append(walls, p.wall.Seconds())
	}
	set("bench.trace_overhead_s", stats.Median(walls)-rep.e2e["wall_s"].Value)
	set("bench.fail_ratio", float64(rep.failed)/float64(max(rep.attempted, 1)))

	// Per-class op latencies and the ADCL/fixed ratio, from the untraced
	// passes.
	byClass := map[string][]float64{}
	var adcl, fixed []float64
	for _, p := range rep.untraced {
		for class, xs := range p.lat {
			byClass[class] = appendF(byClass[class], xs)
		}
		adcl = appendF(adcl, p.adcl)
		fixed = appendF(fixed, p.fixed)
	}
	classes := make([]string, 0, len(byClass))
	for class := range byClass {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		xs := byClass[class]
		if name := classMetric(class); name != "" {
			set(name, quantileIfReportable(xs, 0.5))
		}
		rep.notes = append(rep.notes, fmt.Sprintf("class %s: %d samples, p50 %.0fus%s", class, len(xs), quantile(xs, 0.5), reportable(len(xs), 0.5)))
	}
	if len(adcl) > 0 && len(fixed) > 0 {
		set("bench.adcl_over_fixed", stats.Median(adcl)/stats.Median(fixed))
	}
	rep.notes = append(rep.notes, fmt.Sprintf("traced: %d passes; %d CPU samples; tracing overhead %+.3fs wall per pass",
		len(rep.traced), rep.attrib.total, rep.layers["bench.trace_overhead_s"].Value))
}

// setLayer sets a per-layer metric, creating the full zeroed table first.
func setLayer(rep *report, name string, v float64) {
	if rep.layers == nil {
		rep.layers = make(map[string]metric, len(layerMetrics))
		for _, m := range layerMetrics {
			rep.layers[m.name] = metric{0, m.unit}
		}
	}
	m, ok := rep.layers[name]
	if !ok {
		panic("perfbench: per-layer metric " + name + " is not in the table")
	}
	m.Value = v
	rep.layers[name] = m
}

// classMetric names the per-layer p50 metric of an op class: the kb
// request classes are kb metrics, the simulated regimes bench metrics. A
// class without a metric (a lookup that failed before it could be told hit
// or miss) returns "".
func classMetric(class string) string {
	switch class {
	case "lookup_hit", "lookup_miss", "record", "batch":
		return "kb." + class + "_p50_us"
	case "small", "bulk", "dense", "sparse":
		return "bench." + class + "_p50_us"
	}
	return ""
}

// list formats a few values compactly for a note.
func list(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	return b.String()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile is the q-quantile (0..1), interpolated as stats.Percentile.
func quantile(xs []float64, q float64) float64 { return stats.Percentile(xs, 100*q) }

// beyondOK reports whether at least ten of n samples lie beyond the
// q-quantile, the rule for reporting a percentile.
func beyondOK(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

// quantileIfReportable is quantile, or 0 when fewer than ten samples lie
// beyond it.
func quantileIfReportable(xs []float64, q float64) float64 {
	if !beyondOK(len(xs), q) {
		return 0
	}
	return quantile(xs, q)
}

func reportable(n int, q float64) string {
	if beyondOK(n, q) {
		return ""
	}
	return " (fewer than ten samples beyond it)"
}

// tracer keeps the traced run's spans in memory; writeTrace stores them at
// exit.
type tracer struct {
	mu       sync.Mutex // kb-closed clients record concurrently
	workload string
	t0       time.Time
	spans    []span
	dropped  int
}

// span is one timed interval: an op, a scenario (the ops of one row in one
// pass) or a world-build probe.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent,omitempty"`
	Kind     string  `json:"kind"`
	Workload string  `json:"workload"`
	Scenario string  `json:"scenario,omitempty"`
	Impl     string  `json:"impl,omitempty"`
	Class    string  `json:"class,omitempty"`
	StartUs  float64 `json:"start_us"`
	EndUs    float64 `json:"end_us"`
}

// maxSpans bounds the spans kept per run (kb-closed issues ~10^5 requests
// per phase); later spans are counted as dropped.
const maxSpans = 200000

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

// add records a finished span and returns its id (0 when dropped).
func (t *tracer) add(s span, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	s.ID = len(t.spans) + 1
	s.Workload = t.workload
	s.StartUs = us(start.Sub(t.t0))
	s.EndUs = us(end.Sub(t.t0))
	t.spans = append(t.spans, s)
	return s.ID
}

// do runs f under the op's pprof labels when tracing, plainly otherwise.
func (t *tracer) do(class string, f func()) {
	if t == nil {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("workload", t.workload, "class", class), func(context.Context) { f() })
}
