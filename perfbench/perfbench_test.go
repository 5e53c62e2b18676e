package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"nbctune/internal/kb"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %s is not a harness workload %v", w.Name, workloadNames)
		}
	}
	if len(bj.EndToEnd) != len(e2eMetrics) {
		t.Errorf("%d end-to-end metrics, harness has %d", len(bj.EndToEnd), len(e2eMetrics))
	}
	for i := range min(len(bj.EndToEnd), len(e2eMetrics)) {
		if bj.EndToEnd[i].Name != e2eMetrics[i].name || bj.EndToEnd[i].Unit != e2eMetrics[i].unit {
			t.Errorf("end_to_end[%d] = %+v, harness %+v", i, bj.EndToEnd[i], e2eMetrics[i])
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Errorf("%d per-layer metrics, harness has %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i := range min(len(bj.PerLayer), len(layerMetrics)) {
		if bj.PerLayer[i].Name != layerMetrics[i].name || bj.PerLayer[i].Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %+v, harness %+v", i, bj.PerLayer[i], layerMetrics[i])
		}
	}
}

// TestLayerMapBuckets keeps layers.json and the per-layer table in step:
// every bucket is a reported metric, and every *.self_pct/*_pct CPU share
// in the table is a bucket (except sys_pct, which comes from rusage).
func TestLayerMapBuckets(t *testing.T) {
	m, err := loadLayerMap()
	if err != nil {
		t.Fatal(err)
	}
	buckets := map[string]bool{otherBucket: true}
	for _, r := range m.Rules {
		buckets[r.Bucket] = true
	}
	table := map[string]bool{}
	for _, lm := range layerMetrics {
		table[lm.name] = true
		if strings.HasSuffix(lm.name, "_pct") && lm.name != "runtime.sys_pct" && !buckets[lm.name] {
			t.Errorf("CPU share %s has no rule in layers.json", lm.name)
		}
	}
	for b := range buckets {
		if !table[b] {
			t.Errorf("layers.json bucket %s is not a per-layer metric", b)
		}
	}
	for fn, want := range map[string]string{
		"nbctune/internal/sim.(*Engine).heapPop":         "sim.heap_pct",
		"nbctune/internal/sim.(*Engine).dispatch":        "sim.self_pct",
		"runtime.chansend":                               "runtime.switch_pct",
		"runtime.scanobject":                             "runtime.gc_pct",
		"runtime.mallocgc":                               "runtime.alloc_pct",
		"runtime.memmove":                                "runtime.self_pct",
		"nbctune/internal/kb.accessLog.func1":            "log.self_pct",
		"nbctune/internal/kb.NewHandler.accessLog.func6": "log.self_pct",
		"nbctune/internal/kb.(*Store).Lookup":            "kb.self_pct",
		"runtime.netpoll":                                "syscall.self_pct",
		"runtime.morestack":                              "runtime.self_pct",
		"runtime.semacquire1":                            "runtime.self_pct",
		"crypto/sha256.block":                            otherBucket,
	} {
		if got := m.bucket(fn); got != want {
			t.Errorf("bucket(%s) = %s, want %s", fn, got, want)
		}
	}
	// A sync.Mutex leaf is charged to the layer that holds the lock.
	stack := []string{"internal/sync.(*Mutex).Lock", "sync.(*Mutex).Lock", "nbctune/internal/kb.accessLog.func1", "net/http.HandlerFunc.ServeHTTP"}
	if got := m.bucket(m.chargedFrame(stack)); got != "log.self_pct" {
		t.Errorf("a mutex under the access log is charged to %s, want log.self_pct", got)
	}
}

// spin burns CPU in the harness's own code.
//
//go:noinline
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1<<20; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestAttributionSumsToSampledCPU(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	a, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.total == 0 {
		t.Fatal("no CPU samples")
	}
	var sum int64
	for _, n := range a.buckets {
		sum += n
	}
	if sum != a.total {
		t.Errorf("buckets sum to %d of %d samples", sum, a.total)
	}
	if a.buckets["bench.self_pct"] == 0 {
		t.Errorf("the harness's own spin loop was not charged to bench: %v", a.buckets)
	}
}

// runTiny runs a tiny-size invocation and returns its exit code, its
// output lines and the parsed result line.
func runTiny(t *testing.T, cfg config) (int, []string, result) {
	t.Helper()
	cfg.tiny = true
	cfg.seconds = 0.01
	if cfg.root == "" {
		cfg.root = ".."
	}
	cfg.outDir = t.TempDir()
	var out bytes.Buffer
	code := run(cfg, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	last := lines[len(lines)-1]
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line %q is not a result: %v\n%s", cfg.workload, last, err, out.String())
	}
	return code, lines, res
}

func TestTinyRunOfEveryWorkload(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			code, lines, res := runTiny(t, config{workload: w, trace: traced})
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: exit %d, result %+v\n%s", w, traced, code, res, strings.Join(lines, "\n"))
				continue
			}
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
				if !strings.Contains(strings.Join(lines, "\n"), "perfbench metric "+m.Name+" = ") {
					t.Errorf("%s trace=%v: %s not printed by name", w, traced, m.Name)
				}
			}
			if traced {
				var sum float64
				for _, lm := range layerMetrics {
					if strings.HasSuffix(lm.name, "_pct") && lm.name != "runtime.sys_pct" {
						sum += res.Metrics[lm.name].Value
					}
				}
				if res.Metrics["bench.cpu_samples"].Value > 0 && (sum < 99.9 || sum > 100.1) {
					t.Errorf("%s: CPU buckets sum to %.3f%%", w, sum)
				}
			}
		}
	}
}

func TestSeedPicksInputs(t *testing.T) {
	digest := func(seed int64) string {
		code, lines, _ := runTiny(t, config{workload: "scale-torus", seed: seed})
		if code != 0 {
			t.Fatalf("seed %d: exit %d\n%s", seed, code, strings.Join(lines, "\n"))
		}
		for _, l := range lines {
			if d, ok := strings.CutPrefix(l, "perfbench digest: "); ok {
				return d
			}
		}
		t.Fatalf("no digest printed")
		return ""
	}
	a, b, c := digest(0), digest(0), digest(1)
	if a != b {
		t.Errorf("seed 0 gave digests %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 0 and 1 gave the same digest %s", a)
	}
}

// TestDoctoredRowFails points the checks at a copy of a committed summary
// with one row's best_total changed: the run must report the mismatch in
// fail_ratio and exit non-zero.
func TestDoctoredRowFails(t *testing.T) {
	for _, tc := range []struct{ workload, artifact, scenario string }{
		{"verify-grid", "results/sweep_summary.json", "ialltoall/whale-tcp np=8 msg=1024B compute=0.002s progress=1 iters=18"},
		{"scale-torus", "results/scale_summary.json", "ibarrier/bgp-16k np=64 msg=1B compute=0.0002s progress=4 iters=10"},
	} {
		b, err := os.ReadFile(filepath.Join("..", tc.artifact))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range doc["rows"].([]any) {
			row := r.(map[string]any)
			if row["scenario"] == tc.scenario {
				row["best_total"] = row["best_total"].(float64) * 1.001
				found = true
			}
		}
		if !found {
			t.Fatalf("%s has no row %q", tc.artifact, tc.scenario)
		}
		root := t.TempDir()
		if err := os.MkdirAll(filepath.Join(root, "results"), 0o755); err != nil {
			t.Fatal(err)
		}
		b, _ = json.Marshal(doc)
		if err := os.WriteFile(filepath.Join(root, tc.artifact), b, 0o644); err != nil {
			t.Fatal(err)
		}
		code, lines, res := runTiny(t, config{workload: tc.workload, root: root})
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s with a doctored row: exit %d, result %+v\n%s", tc.workload, code, res, strings.Join(lines, "\n"))
		}
	}
}

// TestWrongKBAnswerFails serves a fixture with one winner changed: the
// oracle check must catch the daemon's wrong answers.
func TestWrongKBAnswerFails(t *testing.T) {
	recs := kb.FixtureRecords()
	for i := range recs {
		recs[i].Winner += "-wrong"
	}
	code, lines, res := runTiny(t, config{workload: "kb-closed", kbDaemonRecords: recs})
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Errorf("kb-closed with wrong answers: exit %d, result %+v\n%s", code, res, strings.Join(lines, "\n"))
	}
}
