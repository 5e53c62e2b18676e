package bench

import (
	"fmt"
	"time"

	"nbctune/internal/platform"
)

// PDES measurement: event throughput of the sharded multi-core engine
// (DESIGN.md §13) against the sequential engine on the same workload.
// cmd/bench's pdes gate maintains the committed BENCH_pdes.json baseline
// from these numbers: the simulated quantities (events, virtual seconds,
// window barriers) are exact pins — identical at every shard count — while
// throughput is checked with regression margins.

// PDESWorkload describes the program MeasurePDESPoint times — the same
// barrier + broadcast program as ScaleWorkload, so the sequential point is
// directly comparable to BENCH_scale.json.
const PDESWorkload = "dissemination Ibarrier + binomial Ibcast 64KiB seg 32KiB, virtual payloads, block placement on bgp-16k"

// PDESPoint is one (ranks, shards) measurement. Shards == 0 is the
// sequential engine (the overhead baseline); its simulated quantities
// legitimately differ from the sharded engine's (DESIGN.md §13 documents
// the two model splits), which is why both are pinned separately.
type PDESPoint struct {
	Ranks  int `json:"ranks"`
	Shards int `json:"shards"` // 0 = sequential engine
	// Events is the deterministic event count of one workload run.
	Events int64 `json:"events"`
	// WindowBarriers counts the conservative time windows executed (0 on
	// the sequential point).
	WindowBarriers int64 `json:"window_barriers,omitempty"`
	// VirtualSeconds is the workload's simulated completion time.
	VirtualSeconds float64 `json:"virtual_seconds"`
	// EventsPerSec is the best single-run throughput over the repeated runs
	// (see ScalePoint.EventsPerSec for why max, not mean).
	EventsPerSec float64 `json:"events_per_sec"`
}

// MeasurePDESPoint times the PDES workload at the given rank count, either
// on the sequential engine (shards == 0) or on a sharded world with the
// given shard count, repeating runs until benchtime of wall clock
// accumulates (minimum 3 runs).
func MeasurePDESPoint(ranks, shards int, benchtime time.Duration) (PDESPoint, error) {
	plat, err := platform.ByName("bgp-16k")
	if err != nil {
		return PDESPoint{}, err
	}
	if ranks > plat.Nodes*plat.CoresPerNode {
		return PDESPoint{}, fmt.Errorf("bench: %d ranks exceed bgp-16k capacity", ranks)
	}
	pt := PDESPoint{Ranks: ranks, Shards: shards}
	run := func() (workloadRun, error) { return runSeq(plat, ranks) }
	if shards > 0 {
		run = func() (workloadRun, error) {
			sw, err := plat.NewWorldPDES(ranks, 1, platform.Block, shards)
			if err != nil {
				return workloadRun{}, err
			}
			pt.Shards = sw.Shards() // after clamping to the used node count
			start := time.Now()
			sw.Start(scaleProg)
			sw.Run()
			return workloadRun{events: sw.EventsFired(), virt: sw.Now(), barriers: sw.Windows().Barriers, wall: time.Since(start)}, nil
		}
	}
	first, best, err := bestRun(benchtime, run)
	pt.Events, pt.VirtualSeconds, pt.WindowBarriers, pt.EventsPerSec = first.events, first.virt, first.barriers, best
	return pt, err
}
