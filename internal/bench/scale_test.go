package bench

import (
	"runtime"
	"testing"

	"nbctune/internal/platform"
)

// TestIdleWorldFootprint16K pins the scale tentpole's memory guarantee: a
// 16K-rank world on the bgp-16k torus constructs inside the hard per-rank
// budget, and the cheap world is a real one — it runs the scale gate's
// workload (full-world barrier + 64 KiB binomial broadcast) to completion.
// The same quantities feed BENCH_scale.json; this test is the in-tree
// regression stop for eager-initialization creep (pre-scale-work worlds
// cost ~5.5 KiB/rank and would fail here by 5x).
func TestIdleWorldFootprint16K(t *testing.T) {
	ranks := 16384
	if testing.Short() {
		ranks = 4096 // same budget, quarter the workload wall time
	}
	plat, err := platform.ByName("bgp-16k")
	if err != nil {
		t.Fatal(err)
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	eng, w, err := plat.NewWorldPlaced(ranks, 1, platform.Block)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	perRank := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(ranks)
	if perRank > IdleBudgetBytesPerRank {
		t.Errorf("idle %d-rank world costs %.0f B/rank, budget is %d B/rank",
			ranks, perRank, IdleBudgetBytesPerRank)
	}

	w.Start(scaleProg)
	virt := eng.Run()
	if virt <= 0 || eng.EventsFired == 0 {
		t.Fatalf("scale workload did not run: %.3g virtual s, %d events", virt, eng.EventsFired)
	}
	t.Logf("%d ranks: %.0f B/rank idle, workload %d events in %.3f virtual s",
		ranks, perRank, eng.EventsFired, virt)
}
