package bench

import (
	"fmt"
	"runtime"
	"time"

	"nbctune/internal/mpi"
	"nbctune/internal/nbc"
	"nbctune/internal/platform"
)

// Scale measurement: the per-rank memory footprint of an idle simulated
// world and the engine's event throughput while that world runs a
// barrier + broadcast workload, at 1K/4K/16K ranks on the bgp-16k torus.
// cmd/bench's scale gate maintains the committed BENCH_scale.json baseline
// from these numbers; the footprint regression tests pin the same quantities.

// ScalePoint is one rank count's measurement.
type ScalePoint struct {
	Ranks int `json:"ranks"`
	Nodes int `json:"nodes"`
	// IdleBytesPerRank is the heap growth of constructing the world (engine,
	// network, ranks — before any rank program runs), divided by the rank
	// count. Lazy per-rank state (RNGs, conds, matcher maps) keeps this to a
	// few hundred bytes.
	IdleBytesPerRank float64 `json:"idle_bytes_per_rank"`
	// Events is the deterministic event count of one workload run
	// (dissemination barrier + 64 KiB binomial broadcast).
	Events int64 `json:"events"`
	// VirtualSeconds is the workload's simulated completion time.
	VirtualSeconds float64 `json:"virtual_seconds"`
	// EventsPerSec is the best single-run throughput over the repeated runs
	// (events / wall seconds). The max is a capability measure, like a
	// min-latency: it shakes off GC pauses and scheduler noise that make
	// mean throughput swing 20% run to run.
	EventsPerSec float64 `json:"events_per_sec"`
}

// ScaleWorkload describes the per-rank program MeasureScalePoint times.
const ScaleWorkload = "dissemination Ibarrier + binomial Ibcast 64KiB seg 32KiB, virtual payloads, block placement on bgp-16k"

// IdleBudgetBytesPerRank is the hard per-rank memory budget for an idle
// world, independent of any committed baseline: a 16K-rank world must
// construct inside it on any machine. Measured cost is ~400 B/rank (rank
// records, world free lists, per-node NIC state amortized over the ranks
// sharing the node); the budget leaves ~2.5x headroom while still refusing
// any eager-initialization regression — pre-scale-work worlds cost
// ~5.5 KiB/rank (per-rank RNGs alone were 4.9 KiB).
const IdleBudgetBytesPerRank = 1024

// scaleProg is the measured workload: a full-world barrier (matching
// pressure: log2(n) rounds, n messages each) followed by a binomial
// broadcast (tree latency + pipelining).
func scaleProg(c *mpi.Comm) {
	n, me := c.Size(), c.Rank()
	nbc.Run(c, nbc.Ibarrier(n, me))
	nbc.Run(c, nbc.Ibcast(n, me, 0, mpi.Virtual(64*1024), nbc.FanoutBinomial, 32*1024))
}

// MeasureScalePoint builds bgp-16k worlds of the given rank count and
// measures the idle footprint (first construction) plus event throughput
// (workload repeated until benchtime of wall clock accumulates).
func MeasureScalePoint(ranks int, benchtime time.Duration) (ScalePoint, error) {
	plat, err := platform.ByName("bgp-16k")
	if err != nil {
		return ScalePoint{}, err
	}
	if ranks > plat.Nodes*plat.CoresPerNode {
		return ScalePoint{}, fmt.Errorf("bench: %d ranks exceed bgp-16k capacity", ranks)
	}
	pt := ScalePoint{Ranks: ranks, Nodes: (ranks + plat.CoresPerNode - 1) / plat.CoresPerNode}

	// Idle footprint: heap growth across world construction, both sides
	// settled by a full GC. The engine and network are included — they are
	// part of what every rank of a simulation costs.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	eng, w, err := plat.NewWorldPlaced(ranks, 1, platform.Block)
	if err != nil {
		return pt, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(eng)
	runtime.KeepAlive(w)
	pt.IdleBytesPerRank = float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(ranks)

	first, best, err := bestRun(benchtime, func() (workloadRun, error) { return runSeq(plat, ranks) })
	pt.Events, pt.VirtualSeconds, pt.EventsPerSec = first.events, first.virt, best
	return pt, err
}

// workloadRun is one timed run of the scale/PDES workload.
type workloadRun struct {
	events   int64
	virt     float64
	barriers int64 // PDES window barriers; 0 on the sequential engine
	wall     time.Duration
}

// runSeq times one workload run on a fresh sequential world.
func runSeq(plat platform.Platform, ranks int) (workloadRun, error) {
	eng, w, err := plat.NewWorldPlaced(ranks, 1, platform.Block)
	if err != nil {
		return workloadRun{}, err
	}
	start := time.Now()
	w.Start(scaleProg)
	virt := eng.Run()
	return workloadRun{events: eng.EventsFired, virt: virt, wall: time.Since(start)}, nil
}

// bestRun repeats run until benchtime of wall clock accumulates (minimum 3
// runs). It returns the first run, whose simulated quantities every run
// shares, and the best single-run throughput in events per wall second.
func bestRun(benchtime time.Duration, run func() (workloadRun, error)) (first workloadRun, best float64, err error) {
	var wall time.Duration
	for runs := 0; wall < benchtime || runs < 3; runs++ {
		r, err := run()
		if err != nil {
			return first, best, err
		}
		if runs == 0 {
			first = r
		}
		wall += r.wall
		best = max(best, float64(r.events)/r.wall.Seconds())
	}
	return first, best, nil
}
