package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"nbctune/internal/bench"
)

// The gates are tested without measuring anything: compare against
// synthetic baselines on both sides of every bound, the committed files
// against their schemas, and the check/write plumbing with stub measures.

type compareCase[T baseline] struct {
	name string
	edit func(now *T)
	pass bool
}

// testCompare applies each case's edit to a fresh passing measurement and
// checks the gate's verdict against the committed baseline.
func testCompare[T baseline](t *testing.T, g gate[T], committed, passing func() *T, cases []compareCase[T]) {
	t.Helper()
	for _, c := range cases {
		now := passing()
		c.edit(now)
		if err := g.compare(committed(), now); (err == nil) != c.pass {
			t.Errorf("%s: compare error %v, want pass=%v", c.name, err, c.pass)
		}
	}
}

func TestSimCompare(t *testing.T) {
	base := func() *simBaseline { b := &simBaseline{}; b.Results.NsPerOp = 10000; return b }
	testCompare(t, simGate, base, base, []compareCase[simBaseline]{
		{"ns/op at 115%", func(b *simBaseline) { b.Results.NsPerOp = 11500 }, true},
		{"ns/op over 115%", func(b *simBaseline) { b.Results.NsPerOp = 11501 }, false},
	})
}

func TestMPICompare(t *testing.T) {
	base := func() *mpiBaseline {
		b := &mpiBaseline{Matching: map[string]matchResult{}}
		for _, k := range []string{"1", "64", "1024"} {
			b.Matching[k] = matchResult{IndexedNsPerOp: 100, LinearNsPerOp: 1000, Speedup: 10}
		}
		return b
	}
	set := func(key string, ns float64) func(*mpiBaseline) {
		return func(b *mpiBaseline) { m := b.Matching[key]; m.IndexedNsPerOp = ns; b.Matching[key] = m }
	}
	speedup := func(s float64) func(*mpiBaseline) {
		return func(b *mpiBaseline) { m := b.Matching["1024"]; m.Speedup = s; b.Matching["1024"] = m }
	}
	cases := []compareCase[mpiBaseline]{
		{"1024-deep speedup 5x", speedup(5), true},
		{"1024-deep speedup under 5x", speedup(4.99), false},
		{"allocating steady state", func(b *mpiBaseline) { b.PersistentIbcast.AllocsPerIter = 0.005 }, false},
	}
	for _, k := range []string{"1", "64", "1024"} {
		cases = append(cases,
			compareCase[mpiBaseline]{"depth " + k + " just inside 115%", set(k, 114.9), true},
			compareCase[mpiBaseline]{"depth " + k + " just over 115%", set(k, 115.1), false})
	}
	testCompare(t, mpiGate, base, base, cases)
}

func TestKBCompare(t *testing.T) {
	committed := func(p95 float64) func() *kbBaseline {
		return func() *kbBaseline { b := &kbBaseline{}; b.Acceptance.P95At100Us = p95; return b }
	}
	bestP95 := func(us float64) func(*kbBaseline) {
		return func(b *kbBaseline) { b.Configs = []kbResult{{Clients: 100, BestP95us: us}} }
	}
	now := func() *kbBaseline { b := &kbBaseline{}; bestP95(1000)(b); return b }
	// A 5ms baseline: the +2ms grace floor is the binding budget.
	testCompare(t, kbGate, committed(5000), now, []compareCase[kbBaseline]{
		{"at the 2ms floor", bestP95(7000), true},
		{"over the 2ms floor", bestP95(7001), false},
	})
	// A 9.6ms baseline: the absolute 10ms target binds before the budget.
	testCompare(t, kbGate, committed(9600), now, []compareCase[kbBaseline]{
		{"under the target", bestP95(9999), true},
		{"at the target", bestP95(10000), false},
	})
	// Above 13.3ms the 15% margin would be wider than the floor, but the
	// 10ms target still binds.
	testCompare(t, kbGate, committed(20000), now, []compareCase[kbBaseline]{
		{"wide budget, over the target", bestP95(10001), false},
	})
}

func TestForkCompare(t *testing.T) {
	mk := func(speedup float64) func() *forkBaseline {
		return func() *forkBaseline {
			return &forkBaseline{Scenarios: map[string]forkScenario{
				"s": {SeqLatencyVirtual: 1, Latency4Virtual: 0.25, SpeedupAt4: speedup},
			}}
		}
	}
	edit := func(f func(*forkScenario)) func(*forkBaseline) {
		return func(b *forkBaseline) { s := b.Scenarios["s"]; f(&s); b.Scenarios["s"] = s }
	}
	testCompare(t, forkGate, mk(3), mk(3), []compareCase[forkBaseline]{
		{"speedup at 85% of committed", edit(func(s *forkScenario) { s.SpeedupAt4 = 2.55 }), true},
		{"speedup under 85% of committed", edit(func(s *forkScenario) { s.SpeedupAt4 = 2.54 }), false},
		{"sequential latency within 15%", edit(func(s *forkScenario) { s.SeqLatencyVirtual = 1.149 }), true},
		{"sequential latency drifted", edit(func(s *forkScenario) { s.SeqLatencyVirtual = 0.849 }), false},
		{"4-worker latency within 15%", edit(func(s *forkScenario) { s.Latency4Virtual = 0.2125 + 1e-9 }), true},
		{"4-worker latency drifted", edit(func(s *forkScenario) { s.Latency4Virtual = 0.2876 }), false},
		{"scenario missing", func(b *forkBaseline) { delete(b.Scenarios, "s") }, false},
	})
	// A 2.2x baseline: the absolute 2x floor binds.
	testCompare(t, forkGate, mk(2.2), mk(2.2), []compareCase[forkBaseline]{
		{"speedup at 2x", edit(func(s *forkScenario) { s.SpeedupAt4 = 2.0 }), true},
		{"speedup under 2x", edit(func(s *forkScenario) { s.SpeedupAt4 = 1.99 }), false},
	})
}

func TestScaleCompare(t *testing.T) {
	mk := func(idle float64) func() *scaleBaseline {
		return func() *scaleBaseline {
			b := &scaleBaseline{BudgetIdleBytesPerRank: 1024, Points: map[string]bench.ScalePoint{}}
			for _, n := range []string{"1024", "4096", "16384"} {
				b.Points[n] = bench.ScalePoint{IdleBytesPerRank: idle, Events: 100, EventsPerSec: 1.15e6}
			}
			return b
		}
	}
	edit := func(f func(*bench.ScalePoint)) func(*scaleBaseline) {
		return func(b *scaleBaseline) { p := b.Points["4096"]; f(&p); b.Points["4096"] = p }
	}
	testCompare(t, scaleGate, mk(400), mk(400), []compareCase[scaleBaseline]{
		{"idle at 115%", edit(func(p *bench.ScalePoint) { p.IdleBytesPerRank = 459.9 }), true},
		{"idle over 115%", edit(func(p *bench.ScalePoint) { p.IdleBytesPerRank = 460.1 }), false},
		{"events/sec at committed/1.15", edit(func(p *bench.ScalePoint) { p.EventsPerSec = 1e6 + 1 }), true},
		{"events/sec under committed/1.15", edit(func(p *bench.ScalePoint) { p.EventsPerSec = 1e6 - 1 }), false},
		{"event count changed", edit(func(p *bench.ScalePoint) { p.Events = 101 }), false},
	})
	// A 1000 B/rank baseline: the 1024 B/rank budget binds before 115%.
	testCompare(t, scaleGate, mk(1000), mk(1000), []compareCase[scaleBaseline]{
		{"idle at the budget", edit(func(p *bench.ScalePoint) { p.IdleBytesPerRank = 1024 }), true},
		{"idle over the budget", edit(func(p *bench.ScalePoint) { p.IdleBytesPerRank = 1025 }), false},
	})
}

func TestPDESCompare(t *testing.T) {
	const seqEvents, shardEvents = 462562, 510690
	// Best-run wall seconds 1.0 sequential and 1.0 at every shard count;
	// the committed throughput floors sit well below.
	mk := func(cores int, eps float64) func() *pdesBaseline {
		return func() *pdesBaseline {
			b := &pdesBaseline{Points: map[string]bench.PDESPoint{
				"seq": {Events: seqEvents, VirtualSeconds: 1.7e-3, EventsPerSec: eps * seqEvents},
			}}
			for _, k := range []string{"1", "2", "4"} {
				b.Points[k] = bench.PDESPoint{Events: shardEvents, WindowBarriers: 452, VirtualSeconds: 1.6e-3, EventsPerSec: eps * shardEvents}
			}
			b.Cores = cores
			return b
		}
	}
	wallAt := func(key string, wall float64) func(*pdesBaseline) {
		return func(b *pdesBaseline) {
			p := b.Points[key]
			p.EventsPerSec = float64(p.Events) / wall
			b.Points[key] = p
		}
	}
	edit := func(key string, f func(*bench.PDESPoint)) func(*pdesBaseline) {
		return func(b *pdesBaseline) { p := b.Points[key]; f(&p); b.Points[key] = p }
	}
	committed := mk(1, 0.5)
	testCompare(t, pdesGate, committed, mk(2, 1), []compareCase[pdesBaseline]{
		{"event count changed", edit("2", func(p *bench.PDESPoint) { p.Events++ }), false},
		{"virtual time changed", edit("seq", func(p *bench.PDESPoint) { p.VirtualSeconds *= 1.000001 }), false},
		{"window barriers changed", edit("4", func(p *bench.PDESPoint) { p.WindowBarriers = 451 }), false},
		{"events/sec at committed/1.15", wallAt("2", 1.149*2), true},
		{"events/sec under committed/1.15", wallAt("2", 1.151*2), false},
		// The 1-shard overhead compares wall seconds of the fixed workload,
		// not events/sec across engines that fire different event counts.
		{"1-shard wall at 115% of sequential", wallAt("1", 1.149), true},
		{"1-shard wall over 115% of sequential", wallAt("1", 1.151), false},
		{"no speedup bound under 4 cores", wallAt("4", 1.0), true},
	})
	testCompare(t, pdesGate, committed, mk(4, 1), []compareCase[pdesBaseline]{
		{"4-shard wall speedup 2.5x", wallAt("4", 0.399), true},
		{"4-shard wall speedup under 2.5x", wallAt("4", 0.401), false},
	})
	// Shard-count identity is judged on the measurement itself: a committed
	// file that (wrongly) pins different runs per shard count still fails.
	split := func() *pdesBaseline {
		b := mk(2, 1)()
		b.Points["2"] = bench.PDESPoint{Events: shardEvents + 1, WindowBarriers: 452, VirtualSeconds: 1.6e-3, EventsPerSec: shardEvents + 1}
		return b
	}
	testCompare(t, pdesGate, split, split, []compareCase[pdesBaseline]{
		{"shard count changed the run", func(*pdesBaseline) {}, false},
	})
}

// TestCommittedBaselinesDecode decodes every committed BENCH_*.json into
// its gate's schema, rejecting unknown fields.
func TestCommittedBaselinesDecode(t *testing.T) {
	for _, g := range gates {
		if err := g.g.decode(filepath.Join("..", "..", baselineFile(g.name))); err != nil {
			t.Errorf("%s: %v", g.name, err)
		}
	}
	bad := filepath.Join(t.TempDir(), "BENCH_sim.json")
	os.WriteFile(bad, []byte(`{"benchmark": "x", "surprise": 1}`), 0o644)
	if _, err := readBaseline[simBaseline](bad); err == nil || !strings.Contains(err.Error(), "surprise") {
		t.Errorf("unknown field accepted: %v", err)
	}
}

// TestSimWriteKeepsHistory rewrites a copy of BENCH_sim.json through the
// gate's write path with a stub measurement: the hand-kept history blocks
// must survive and the fresh header must name this host and command.
func TestSimWriteKeepsHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), baselineFile("sim"))
	orig, err := os.ReadFile(filepath.Join("..", "..", baselineFile("sim")))
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(path, orig, 0o644)
	g := simGate
	g.measure = func(b *simBaseline, write bool) error {
		b.header = newHeader("sim", "BenchmarkEngineThroughput", "stub")
		b.Results.NsPerOp = 1
		return nil
	}
	if err := g.write(path); err != nil {
		t.Fatal(err)
	}
	var before, after map[string]json.RawMessage
	json.Unmarshal(orig, &before)
	out, _ := os.ReadFile(path)
	if err := json.Unmarshal(out, &after); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"pre_coroutine_baseline", "pre_refactor_baseline", "sweep_wallclock", "package"} {
		var a, b bytes.Buffer
		json.Compact(&a, before[k])
		json.Compact(&b, after[k])
		if a.Len() == 0 || a.String() != b.String() {
			t.Errorf("%s: %s before, %s after the write", k, a.String(), b.String())
		}
	}
	if !strings.Contains(string(after["regenerate"]), "go run ./cmd/bench -write sim") || string(after["cores"]) == "0" {
		t.Errorf("header not refreshed: regenerate %s, cores %s", after["regenerate"], after["cores"])
	}
}

// TestCheckRemeasuresThenReportsHosts drives the check loop with a stub
// measurement: a gate with one remeasure passes on a second good
// measurement, and a final failure carries both hosts next to the verdict.
func TestCheckRemeasuresThenReportsHosts(t *testing.T) {
	path := filepath.Join(t.TempDir(), baselineFile("x"))
	os.WriteFile(path,
		[]byte(`{"benchmark":"x","regenerate":"","workload":"","cpu":"Old CPU","cores":64,"date":"2020-01-01"}`), 0o644)
	var results []error
	g := gate[header]{
		remeasure: 1,
		measure:   func(*header, bool) error { return nil },
		compare: func(_, _ *header) error {
			err := results[0]
			results = results[1:]
			return err
		},
		summary: func(*header) string { return "ok" },
	}
	slow := errors.New("too slow")
	results = []error{slow, nil}
	if s, err := g.check(path); err != nil || s != "ok" {
		t.Fatalf("remeasured check: %q, %v; want a pass", s, err)
	}
	results = []error{slow, slow}
	_, err := g.check(path)
	if !errors.Is(err, slow) || !strings.Contains(err.Error(), "baseline host: Old CPU, 64 cores (2020-01-01)") ||
		!strings.Contains(err.Error(), "this host:") {
		t.Fatalf("failed check reported %v", err)
	}
}

// TestKBServerRestoresGCPercent starts and stops the self-hosted kb daemon
// (no requests are measured): its serving GC percent must not outlive it,
// or the gates that -check all runs after kb would measure under a laxer
// collector than their baselines were recorded with.
func TestKBServerRestoresGCPercent(t *testing.T) {
	const before = 137
	old := debug.SetGCPercent(before)
	defer debug.SetGCPercent(old)
	_, shutdown, err := kbServer()
	if err != nil {
		t.Fatal(err)
	}
	if during := debug.SetGCPercent(kbGCPercent); during != kbGCPercent {
		t.Errorf("GC percent %d while serving, want %d", during, kbGCPercent)
	}
	shutdown()
	if after := debug.SetGCPercent(before); after != before {
		t.Errorf("GC percent %d after shutdown, want %d as before the server", after, before)
	}
}
