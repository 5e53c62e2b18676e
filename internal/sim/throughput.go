package sim

// ThroughputWorkload describes the committed engine baseline
// (BENCH_sim.json) that NewThroughputEngine primes.
const ThroughputWorkload = "8 sleeping procs + 2 pure timer events per proc wake (24 events/op)"

// NewThroughputEngine returns an engine primed with n ops of the engine
// baseline: a mixed hot-path workload of pure timer events plus sleeping
// processes, the two event shapes every simulated MPI rank drives. It is
// shared by BenchmarkEngineThroughput and cmd/bench's sim gate, which both
// time only the returned engine's Run, so ns/op is the same quantity in
// either.
func NewThroughputEngine(n int) *Engine {
	const procs = 8
	e := NewEngine(1)
	for pi := 0; pi < procs; pi++ {
		e.Spawn("p", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1e-6)
			}
		})
	}
	// Interleaved pure-callback events: two timer events per proc wake.
	for i := 0; i < 2*procs*n; i++ {
		e.At(float64(i)*0.5e-6, func() {})
	}
	return e
}
