package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"nbctune/internal/bench"
	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
	"nbctune/internal/netmodel"
	"nbctune/internal/platform"
	"nbctune/internal/sim"
)

// margin is the regression every throughput, latency and footprint bound
// allows against its committed value.
const margin = 0.15

// benchtime picks a gate's measurement time per configuration.
func benchtime(write bool, check, regenerate time.Duration) time.Duration {
	if write {
		return regenerate
	}
	return check
}

// nsPerOp grows the op count until one timed run(n) lasts at least
// benchtime, like a testing.B loop, and returns that run's ns per op.
func nsPerOp(benchtime time.Duration, run func(n int) time.Duration) float64 {
	n := 256
	for {
		el := run(n)
		if el >= benchtime {
			return float64(el.Nanoseconds()) / float64(n)
		}
		// Scale toward the target with 20% headroom, at least doubling.
		n = max(2*n, int(float64(n)*1.2*float64(benchtime)/float64(el+1)))
	}
}

// ---- sim: engine throughput (sim.NewThroughputEngine) ----

type simBaseline struct {
	header
	Package string `json:"package"`
	Results struct {
		NsPerOp        int64   `json:"ns_per_op"`
		EventsPerSec   float64 `json:"events_per_sec"`
		AllocsPerEvent float64 `json:"allocs_per_event"`
		AllocsPerOp    int64   `json:"allocs_per_op"`
	} `json:"results"`
	// Hand-kept history of earlier engine designs; write carries it over.
	PreCoroutine   json.RawMessage `json:"pre_coroutine_baseline,omitempty"`
	PreRefactor    json.RawMessage `json:"pre_refactor_baseline,omitempty"`
	SweepWallclock json.RawMessage `json:"sweep_wallclock,omitempty"`
}

var simGate = gate[simBaseline]{
	measure: func(b *simBaseline, write bool) error {
		b.header = newHeader("sim", "BenchmarkEngineThroughput", sim.ThroughputWorkload)
		b.Package = "nbctune/internal/sim"
		var last struct {
			n               int
			el              time.Duration
			events, mallocs uint64
		}
		ns := nsPerOp(benchtime(write, time.Second, 2*time.Second), func(n int) time.Duration {
			e := sim.NewThroughputEngine(n)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			e.Run()
			el := time.Since(start)
			runtime.ReadMemStats(&after)
			last.n, last.el, last.events, last.mallocs = n, el, uint64(e.EventsFired), after.Mallocs-before.Mallocs
			return el
		})
		r := &b.Results
		r.NsPerOp = int64(ns)
		r.EventsPerSec = math.Round(float64(last.events) / last.el.Seconds())
		r.AllocsPerEvent = float64(last.mallocs) / float64(last.events)
		r.AllocsPerOp = int64(last.mallocs) / int64(last.n)
		return nil
	},
	compare: func(committed, now *simBaseline) error {
		base := committed.Results.NsPerOp
		if limit := base * 115 / 100; now.Results.NsPerOp > limit {
			return fmt.Errorf("%d ns/op exceeds 115%% of committed baseline %d ns/op", now.Results.NsPerOp, base)
		}
		return nil
	},
	summary: func(now *simBaseline) string {
		return fmt.Sprintf("%d ns/op within 15%% of committed", now.Results.NsPerOp)
	},
}

// ---- mpi: message matching and persistent-Ibcast steady state ----

var matchDepths = []int{1, 64, 1024}

type matchResult struct {
	IndexedNsPerOp float64 `json:"indexed_ns_per_op"`
	LinearNsPerOp  float64 `json:"linear_ns_per_op"`
	Speedup        float64 `json:"speedup"`
}

type mpiBaseline struct {
	header
	// Keys are posted-receive depths ("1", "64", "1024"); one op is a full
	// match-and-repost cycle (irecv-side take + arrival-side match).
	Matching         map[string]matchResult `json:"matching_by_posted_depth"`
	PersistentIbcast struct {
		Workload      string  `json:"workload"`
		AllocsPerIter float64 `json:"allocs_per_iteration"`
	} `json:"persistent_ibcast"`
}

var mpiGate = gate[mpiBaseline]{
	measure: func(b *mpiBaseline, write bool) error {
		b.header = newHeader("mpi", "mpi matching + persistent nbc steady state",
			"one op = one match-and-repost cycle against k posted receives "+
				"(rotating src/tag so every cycle hits a different bucket)")
		bt := benchtime(write, 500*time.Millisecond, time.Second)
		b.Matching = make(map[string]matchResult, len(matchDepths))
		for _, k := range matchDepths {
			idx, lin := matchNsPerOp(k, true, bt), matchNsPerOp(k, false, bt)
			b.Matching[fmt.Sprint(k)] = matchResult{IndexedNsPerOp: idx, LinearNsPerOp: lin, Speedup: lin / idx}
		}
		b.PersistentIbcast.Workload = "Ibcast n=4 virtual 32KiB seg 8KiB, one full Start..Wait iteration, warm pools"
		allocs, err := persistentAllocs()
		b.PersistentIbcast.AllocsPerIter = allocs
		return err
	},
	compare: func(committed, now *mpiBaseline) error {
		for _, k := range matchDepths {
			key := fmt.Sprint(k)
			base, ok := committed.Matching[key]
			if !ok {
				return fmt.Errorf("baseline has no matching entry for depth %s", key)
			}
			if got := now.Matching[key].IndexedNsPerOp; got > base.IndexedNsPerOp*(1+margin) {
				return fmt.Errorf("depth %s: indexed matching %.0f ns/op exceeds 115%% of committed %.0f ns/op",
					key, got, base.IndexedNsPerOp)
			}
		}
		// Acceptance pin: indexed matching must stay >=5x over the linear
		// scans at 1024 posted receives. A same-machine ratio, so robust to
		// noise.
		if got := now.Matching["1024"].Speedup; got < 5 {
			return fmt.Errorf("1024-deep matching speedup %.2fx over linear, want >= 5x", got)
		}
		if a := now.PersistentIbcast.AllocsPerIter; a != 0 {
			return fmt.Errorf("steady-state persistent Ibcast iteration allocates (%v allocs/iter, want 0)", a)
		}
		return nil
	},
	summary: func(now *mpiBaseline) string {
		m := now.Matching["1024"]
		return fmt.Sprintf("1024-deep indexed %.0f ns/op, %.1fx over linear, %.0f allocs/iter",
			m.IndexedNsPerOp, m.Speedup, now.PersistentIbcast.AllocsPerIter)
	},
}

// matchNsPerOp returns ns per match-and-repost cycle with k receives posted.
func matchNsPerOp(k int, indexed bool, benchtime time.Duration) float64 {
	mb := mpi.NewMatchBench(k, indexed)
	mb.RunCycles(4 * k) // warm buckets and free lists
	return nsPerOp(benchtime, func(n int) time.Duration {
		start := time.Now()
		mb.RunCycles(n)
		return time.Since(start)
	})
}

// persistentAllocs builds a 4-rank world whose rank programs park on a gate
// between persistent-Ibcast iterations, warms every pool, then measures
// allocations per released iteration (the steady state a tuning sweep lives
// in). The parameters mirror the nbc conformance fabric.
func persistentAllocs() (float64, error) {
	const n = 4
	eng := sim.NewEngine(1)
	nodeOf := make([]int, n)
	for i := range nodeOf {
		nodeOf[i] = i
	}
	p := netmodel.Params{
		Name:          "bench-ib",
		Latency:       2e-6,
		Bandwidth:     1.5e9,
		NICs:          1,
		OSend:         1e-6,
		ORecv:         1e-6,
		OPost:         2e-7,
		OProgress:     5e-7,
		OTest:         5e-8,
		EagerLimit:    12 * 1024,
		RDMA:          true,
		CtrlBytes:     64,
		CopyBandwidth: 4e9,
		ShmLatency:    4e-7,
		ShmBandwidth:  5e9,
		IncastK:       8,
		IncastBeta:    0.02,
	}
	net, err := netmodel.New(eng, p, nodeOf)
	if err != nil {
		return 0, err
	}
	w := mpi.NewWorld(eng, net, n, mpi.Options{Seed: 3})
	gate := sim.NewCond(eng)
	released := 0
	w.Start(func(c *mpi.Comm) {
		sched := nbc.Ibcast(n, c.Rank(), 0, mpi.Virtual(32*1024), 2, 8*1024)
		it := 0
		for {
			for released <= it {
				gate.Wait(c.RankState().Proc())
			}
			nbc.Run(c, sched)
			it++
		}
	})
	deadline := 0.0
	step := func() {
		released++
		gate.Broadcast()
		deadline += 1.0
		eng.RunUntil(deadline)
	}
	for i := 0; i < 50; i++ {
		step()
	}
	return testing.AllocsPerRun(200, step), nil
}

// ---- fork: speculative (forked) vs in-line sequential selection ----

// The headline numbers are virtual selection latencies — deterministic
// properties of the simulation, comparable across machines: sequential
// cost is the candidates measured back to back, speculative cost is the
// makespan of dispatching the candidate forks to a worker pool. Host
// wall-clock timings are recorded for context but never checked.

type forkScenario struct {
	Workload   string `json:"workload"`
	Selector   string `json:"selector"`
	Candidates int    `json:"candidates"`
	EvalRounds int    `json:"eval_rounds_per_candidate"`
	// Virtual (simulated, deterministic) selection latencies in seconds.
	SeqLatencyVirtual  float64 `json:"seq_latency_virtual"`
	Latency4Virtual    float64 `json:"spec_latency_virtual_4_workers"`
	CritLatencyVirtual float64 `json:"spec_latency_virtual_critical_path"`
	SpeedupAt4         float64 `json:"speedup_at_4_workers"`
	SpeedupCritical    float64 `json:"speedup_critical_path"`
	// Host wall-clock seconds for the whole speculative run at 1 and 4
	// workers — informational only, machine-dependent, never compared.
	HostSeq1Worker  float64 `json:"host_seconds_1_worker"`
	HostSpec4Worker float64 `json:"host_seconds_4_workers"`
}

type forkBaseline struct {
	header
	Scenarios map[string]forkScenario `json:"scenarios"`
}

func forkSpecs() (map[string]bench.MicroSpec, error) {
	crill, err := platform.ByName("crill")
	if err != nil {
		return nil, err
	}
	whale, err := platform.ByName("whale")
	if err != nil {
		return nil, err
	}
	return map[string]bench.MicroSpec{
		"ialltoall-crill-np8-64KiB": {
			Platform: crill, Procs: 8, MsgSize: 64 * 1024, Op: bench.OpIalltoall,
			ComputePerIter: 5e-3, Iterations: 10, ProgressCalls: 4, Seed: 3, EvalsPerFn: 5,
		},
		"ibcast-whale-np8-128KiB": {
			Platform: whale, Procs: 8, MsgSize: 128 * 1024, Op: bench.OpIbcast,
			ComputePerIter: 4e-3, Iterations: 10, ProgressCalls: 4, Seed: 7, EvalsPerFn: 3,
		},
	}, nil
}

var forkGate = gate[forkBaseline]{
	measure: func(b *forkBaseline, write bool) error {
		b.header = newHeader("fork", "speculative (forked) candidate evaluation vs in-line sequential learning",
			"virtual selection latency of brute-force learning per scenario, sequential vs forked candidates")
		specs, err := forkSpecs()
		if err != nil {
			return err
		}
		b.Scenarios = make(map[string]forkScenario, len(specs))
		for name, spec := range specs {
			const sel = "brute-force"
			var host [2]float64
			var r *bench.SpecResult
			for i, workers := range []int{1, 4} { // the 1-worker run times the sequential host path
				t0 := time.Now()
				if r, err = bench.RunSpeculative(spec, sel, workers); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				host[i] = time.Since(t0).Seconds()
			}
			l4 := r.SpecLatencyAt(4)
			b.Scenarios[name] = forkScenario{
				Workload:           spec.String(),
				Selector:           sel,
				Candidates:         len(r.CandidateTime),
				EvalRounds:         r.EvalRounds,
				SeqLatencyVirtual:  r.SeqLatency,
				Latency4Virtual:    l4,
				CritLatencyVirtual: r.SpecLatency,
				SpeedupAt4:         r.SeqLatency / l4,
				SpeedupCritical:    r.Speedup(),
				HostSeq1Worker:     host[0],
				HostSpec4Worker:    host[1],
			}
		}
		return nil
	},
	compare: func(committed, now *forkBaseline) error {
		for _, name := range sortedKeys(committed.Scenarios) {
			want := committed.Scenarios[name]
			got, ok := now.Scenarios[name]
			if !ok {
				return fmt.Errorf("scenario %q missing from current measurement", name)
			}
			if got.SpeedupAt4 < 2.0 {
				return fmt.Errorf("%s selection speedup at 4 workers is %.2fx, need >= 2.0x", name, got.SpeedupAt4)
			}
			if got.SpeedupAt4 < want.SpeedupAt4*(1-margin) {
				return fmt.Errorf("%s speedup regressed >15%%: %.2fx now vs %.2fx committed", name, got.SpeedupAt4, want.SpeedupAt4)
			}
			if rel(got.SeqLatencyVirtual, want.SeqLatencyVirtual) > margin ||
				rel(got.Latency4Virtual, want.Latency4Virtual) > margin {
				return fmt.Errorf("%s virtual selection latencies drifted >15%% from baseline (seq %.6g vs %.6g, 4-worker %.6g vs %.6g) — the simulation changed; regenerate after reviewing",
					name, got.SeqLatencyVirtual, want.SeqLatencyVirtual, got.Latency4Virtual, want.Latency4Virtual)
			}
		}
		return nil
	},
	summary: func(now *forkBaseline) string {
		name := sortedKeys(now.Scenarios)[0]
		s := now.Scenarios[name]
		return fmt.Sprintf("%s: %d candidates, %.2fx selection speedup at 4 workers", name, s.Candidates, s.SpeedupAt4)
	},
}

// rel is |a-b|/|b|, infinite when only b is zero.
func rel(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---- scale: idle footprint and throughput at 1K/4K/16K ranks ----

var scaleRanks = []int{1024, 4096, 16384}

type scaleBaseline struct {
	header
	BudgetIdleBytesPerRank float64                     `json:"budget_idle_bytes_per_rank"`
	Points                 map[string]bench.ScalePoint `json:"points_by_ranks"`
}

var scaleGate = gate[scaleBaseline]{
	measure: func(b *scaleBaseline, write bool) error {
		b.header = newHeader("scale", "simulated-world scaling: idle bytes/rank + engine events/sec", bench.ScaleWorkload)
		b.BudgetIdleBytesPerRank = bench.IdleBudgetBytesPerRank
		b.Points = make(map[string]bench.ScalePoint, len(scaleRanks))
		for _, n := range scaleRanks {
			pt, err := bench.MeasureScalePoint(n, time.Second)
			if err != nil {
				return err
			}
			b.Points[fmt.Sprint(n)] = pt
		}
		return nil
	},
	compare: func(committed, now *scaleBaseline) error {
		budget := committed.BudgetIdleBytesPerRank
		for _, n := range scaleRanks {
			key := fmt.Sprint(n)
			base, ok := committed.Points[key]
			if !ok {
				return fmt.Errorf("baseline has no point for %s ranks", key)
			}
			got := now.Points[key]
			// Hard budget first: the absolute bound the scale work guarantees.
			if got.IdleBytesPerRank > budget {
				return fmt.Errorf("%s ranks: idle footprint %.0f B/rank exceeds the %.0f B/rank budget",
					key, got.IdleBytesPerRank, budget)
			}
			if got.IdleBytesPerRank > base.IdleBytesPerRank*(1+margin) {
				return fmt.Errorf("%s ranks: idle footprint %.0f B/rank exceeds 115%% of committed %.0f B/rank",
					key, got.IdleBytesPerRank, base.IdleBytesPerRank)
			}
			if got.EventsPerSec < base.EventsPerSec/(1+margin) {
				return fmt.Errorf("%s ranks: %.0f events/sec is more than 15%% below committed %.0f events/sec",
					key, got.EventsPerSec, base.EventsPerSec)
			}
			// The workload is deterministic; an event-count change means the
			// simulation itself changed, which a baseline refresh must own.
			if got.Events != base.Events {
				return fmt.Errorf("%s ranks: workload fired %d events, committed baseline has %d (regenerate BENCH_scale.json if intended)",
					key, got.Events, base.Events)
			}
		}
		return nil
	},
	summary: func(now *scaleBaseline) string {
		p := now.Points["16384"]
		return fmt.Sprintf("16K ranks: %.0f B/rank idle, %.2fM events/sec", p.IdleBytesPerRank, p.EventsPerSec/1e6)
	},
}

// ---- pdes: sequential vs sharded engine at 4096 ranks ----

// The simulated quantities (event counts, window barriers, virtual seconds)
// are deterministic and pinned exactly; throughput is checked with
// regression margins. Comparisons across the two engines use best-run wall
// seconds of the fixed workload, since the engines fire different event
// counts for it (DESIGN.md §13). The parallel-speedup bound only applies
// when the measuring host has the cores to exhibit it.

const pdesRanks = 4096

// pdesShards are the measured configurations; 0 is the sequential engine.
var pdesShards = []int{0, 1, 2, 4}

const (
	maxOneShardOverhead = 1.15 // 1-shard wall / sequential wall
	minFourShardSpeedup = 2.5  // sequential wall / 4-shard wall ...
	speedupMinCores     = 4    // ... asserted only with this many cores
)

type pdesBaseline struct {
	header
	Points map[string]bench.PDESPoint `json:"points_by_shards"`
}

func pdesKey(shards int) string {
	if shards == 0 {
		return "seq"
	}
	return fmt.Sprint(shards)
}

// wall is a point's best-run wall seconds for the fixed workload.
func wall(p bench.PDESPoint) float64 { return float64(p.Events) / p.EventsPerSec }

var pdesGate = gate[pdesBaseline]{
	measure: func(b *pdesBaseline, write bool) error {
		b.header = newHeader("pdes", "PDES engine: sequential vs sharded event throughput at 4096 ranks", bench.PDESWorkload)
		b.Points = make(map[string]bench.PDESPoint, len(pdesShards))
		for _, shards := range pdesShards {
			pt, err := bench.MeasurePDESPoint(pdesRanks, shards, benchtime(write, time.Second, 2*time.Second))
			if err != nil {
				return err
			}
			b.Points[pdesKey(shards)] = pt
		}
		return nil
	},
	compare: func(committed, now *pdesBaseline) error {
		for _, shards := range pdesShards {
			k := pdesKey(shards)
			base, ok := committed.Points[k]
			if !ok {
				return fmt.Errorf("baseline has no point for %s", k)
			}
			got := now.Points[k]
			// Simulated quantities are deterministic; any drift means the
			// simulation itself changed, which a baseline refresh must own.
			if got.Events != base.Events {
				return fmt.Errorf("%s: workload fired %d events, committed baseline has %d (regenerate BENCH_pdes.json if intended)",
					k, got.Events, base.Events)
			}
			if got.VirtualSeconds != base.VirtualSeconds {
				return fmt.Errorf("%s: virtual completion %.9g s, committed baseline has %.9g s (regenerate BENCH_pdes.json if intended)",
					k, got.VirtualSeconds, base.VirtualSeconds)
			}
			if got.WindowBarriers != base.WindowBarriers {
				return fmt.Errorf("%s: %d window barriers, committed baseline has %d (regenerate BENCH_pdes.json if intended)",
					k, got.WindowBarriers, base.WindowBarriers)
			}
			if got.EventsPerSec < base.EventsPerSec/(1+margin) {
				return fmt.Errorf("%s: %.0f events/sec is more than 15%% below committed %.0f events/sec",
					k, got.EventsPerSec, base.EventsPerSec)
			}
		}
		// Shard-count independence: every sharded point simulates the
		// identical run.
		ref := now.Points[pdesKey(1)]
		for _, shards := range pdesShards[2:] {
			got := now.Points[pdesKey(shards)]
			if got.Events != ref.Events || got.VirtualSeconds != ref.VirtualSeconds {
				return fmt.Errorf("shard count changed simulated quantities: %s fired %d events over %.9g s, 1 shard fired %d over %.9g s",
					pdesKey(shards), got.Events, got.VirtualSeconds, ref.Events, ref.VirtualSeconds)
			}
		}
		// Window-barrier overhead: one shard must finish the workload within
		// 15% of the sequential engine's wall clock on this host.
		seq := now.Points[pdesKey(0)]
		if wall(ref) > wall(seq)*maxOneShardOverhead {
			return fmt.Errorf("1-shard overhead: %.3fs best-run wall vs sequential %.3fs (more than %.0f%% slower)",
				wall(ref), wall(seq), (maxOneShardOverhead-1)*100)
		}
		// Parallel speedup, only meaningful with real cores to spread over.
		if now.Cores >= speedupMinCores {
			if s := wall(seq) / wall(now.Points[pdesKey(4)]); s < minFourShardSpeedup {
				return fmt.Errorf("4-shard wall-clock speedup %.2fx over sequential is below the %.1fx target (%d cores)",
					s, minFourShardSpeedup, now.Cores)
			}
		}
		return nil
	},
	summary: func(now *pdesBaseline) string {
		return fmt.Sprintf("best-run wall: seq %.3fs, 1 shard %.3fs, 4 shards %.3fs on %d cores",
			wall(now.Points["seq"]), wall(now.Points["1"]), wall(now.Points["4"]), now.Cores)
	},
}
