package sim

import (
	"runtime"
	"testing"
)

// BenchmarkEngineThroughput times the committed engine baseline
// (BENCH_sim.json, NewThroughputEngine) and reports events/sec and
// allocs/event. CI runs it with -benchtime=1x as a smoke test; cmd/bench
// gates and regenerates the committed numbers from the same timed region:
//
//	go run ./cmd/bench -write sim
func BenchmarkEngineThroughput(b *testing.B) {
	e := NewThroughputEngine(b.N)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if events := float64(e.EventsFired); events > 0 {
		b.ReportMetric(events/b.Elapsed().Seconds(), "events/sec")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/events, "allocs/event")
	}
}
