package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// Regression tests for the pooled-event execution core: heap-backed Cancel,
// generation-checked wake tickets, panic propagation, the allocation-free
// steady state, and the coroutine driver's hazards (thread-locked drivers,
// faults and deadlocks with suspended coroutines, the handoff count). These are deliberately white-box — they pin the internal
// invariants (free-list recycling, ticket coalescing) that the public-API
// tests in engine_test.go cannot reach.

func TestCancelRemovesFromQueue(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(0.5, func() {})
	ev := e.At(1.0, func() { fired = true })
	ev.Cancel()
	if n := len(e.heap); n != 1 {
		t.Fatalf("cancel must remove the record from the heap: %d queued", n)
	}
	if end := e.Run(); end != 0.5 {
		t.Fatalf("run ended at %g, want 0.5: canceled event still advanced the clock", end)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelMidRun(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(2, func() { fired = true })
	e.At(1, func() { ev.Cancel() })
	if end := e.Run(); end != 1 {
		t.Fatalf("run ended at %g, want 1", end)
	}
	if fired {
		t.Fatal("event canceled at t=1 fired anyway")
	}
	// Double cancel and zero-handle cancel are no-ops.
	ev.Cancel()
	(Event{}).Cancel()
}

// TestCancelSubsetHeapIntegrity cancels a pseudo-random subset of queued
// events at scattered heap positions and checks that the survivors still pop
// in strict time order — i.e. heapRemove's sift-down/sift-up repair keeps the
// 4-ary heap invariant intact.
func TestCancelSubsetHeapIntegrity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine(1)
		const n = 500
		events := make([]Event, n)
		times := make([]Time, n)
		var fired []Time
		for i := 0; i < n; i++ {
			d := rng.Float64() * 100
			times[i] = d
			i := i
			events[i] = e.At(d, func() { fired = append(fired, times[i]) })
		}
		canceled := make(map[int]bool)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				events[i].Cancel()
				canceled[i] = true
			}
		}
		e.Run()
		want := make([]Time, 0, n)
		for i := 0; i < n; i++ {
			if !canceled[i] {
				want = append(want, times[i])
			}
		}
		sort.Float64s(want)
		if len(fired) != len(want) {
			t.Fatalf("trial %d: %d events fired, want %d", trial, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: fire order broken at %d: got %g, want %g", trial, i, fired[i], want[i])
			}
		}
	}
}

// TestStaleHandleAfterRecycle: once an event fires, its pooled record goes to
// the free list and a later event reuses the slot. Canceling through the old
// handle must not kill the new tenant — the generation check makes the stale
// handle a no-op.
func TestStaleHandleAfterRecycle(t *testing.T) {
	e := NewEngine(1)
	ev1 := e.At(0, func() {})
	e.Run() // ev1 fires; its record is free-listed

	fired := false
	ev2 := e.At(1, func() { fired = true })
	if ev2.idx != ev1.idx {
		t.Fatalf("expected slot reuse: ev1 idx %d, ev2 idx %d", ev1.idx, ev2.idx)
	}
	ev1.Cancel() // stale generation: must not touch ev2
	e.Run()
	if !fired {
		t.Fatal("stale Cancel removed a recycled record's new event")
	}
}

// TestStaleWakeTicketDropped injects a wake ticket carrying an outdated park
// generation while the process is parked on a newer one. The event loop
// must drop it, so the process sleeps its full duration instead of waking
// early. This is the mechanism behind wake coalescing and behind Cond's
// "stale broadcast" safety.
func TestStaleWakeTicketDropped(t *testing.T) {
	e := NewEngine(1)
	var wokeAt Time = -1
	p := e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1)  // parks on gen 2
		p.Sleep(10) // parks on gen 3
		wokeAt = p.Now()
	})
	// At t=2 the proc is parked on its second sleep (gen 3). A ticket for
	// gen 2 must be dropped, not resume it.
	e.At(2, func() { e.atWake(0, p, 2) })
	end := e.Run()
	if wokeAt != 11 {
		t.Fatalf("stale ticket woke the process early: woke at %g, want 11", wokeAt)
	}
	if end != 11 {
		t.Fatalf("run ended at %g, want 11", end)
	}
	// A ticket for a finished process is likewise dropped without incident.
	e.atWake(0, p, 99)
	e.Run()
}

// TestWakeTicketCoalescing pushes two same-instant tickets for the same park
// generation. The first resumes the waiter; by the time the second pops, the
// waiter has re-parked on a new generation, so the duplicate is dropped — the
// waiter observes exactly one (spurious) wakeup, not two.
func TestWakeTicketCoalescing(t *testing.T) {
	e := NewEngine(1)
	cond := NewCond(e)
	ready := false
	spurious := 0
	p := e.Spawn("waiter", func(p *Proc) {
		for !ready {
			cond.Wait(p)
			if !ready {
				spurious++
			}
		}
	})
	e.At(1, func() {
		g := p.gen // the generation of the current park
		e.atWake(0, p, g)
		e.atWake(0, p, g)
	})
	e.At(2, func() {
		ready = true
		cond.Broadcast()
	})
	e.Run()
	if spurious != 1 {
		t.Fatalf("got %d spurious wakeups from two coalescible tickets, want 1", spurious)
	}
}

// TestCondSpuriousWakeupRequiresPredicateLoop is the black-box companion: a
// Broadcast that races ahead of the predicate flip is a legal spurious wakeup,
// and a waiter that re-checks in a loop (the documented contract) survives it.
func TestCondSpuriousWakeupRequiresPredicateLoop(t *testing.T) {
	e := NewEngine(1)
	cond := NewCond(e)
	ready := false
	spurious := 0
	finished := false
	e.Spawn("waiter", func(p *Proc) {
		for !ready {
			cond.Wait(p)
			if !ready {
				spurious++
			}
		}
		finished = true
	})
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(1)
		cond.Broadcast() // predicate still false: spurious for the waiter
		p.Sleep(1)
		ready = true
		cond.Broadcast()
	})
	e.Run()
	if !finished {
		t.Fatal("waiter never finished")
	}
	if spurious != 1 {
		t.Fatalf("waiter saw %d spurious wakeups, want exactly 1", spurious)
	}
}

func TestProcPanicRecoverable(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("victim", func(p *Proc) {
		p.Sleep(3)
		panic("boom")
	})
	var pp *ProcPanic
	func() {
		defer func() {
			r := recover()
			var ok bool
			if pp, ok = r.(*ProcPanic); !ok {
				t.Fatalf("recovered %T (%v), want *ProcPanic", r, r)
			}
		}()
		e.Run()
	}()
	if pp.Proc != "victim" {
		t.Fatalf("panic attributed to %q, want \"victim\"", pp.Proc)
	}
	if pp.Value != "boom" {
		t.Fatalf("panic value %v, want \"boom\"", pp.Value)
	}
	if len(pp.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
	if pp.Unwrap() != nil {
		t.Fatalf("string panic must not unwrap to an error: %v", pp.Unwrap())
	}
}

func TestProcPanicUnwrapsError(t *testing.T) {
	e := NewEngine(1)
	sentinel := errors.New("kernel fault")
	e.Spawn("victim", func(p *Proc) { panic(sentinel) })
	defer func() {
		pp, ok := recover().(*ProcPanic)
		if !ok {
			t.Fatal("expected *ProcPanic")
		}
		if !errors.Is(pp, sentinel) {
			t.Fatalf("errors.Is must see through ProcPanic to the original error")
		}
	}()
	e.Run()
}

// nopCall is package-level so AtCall sites in the alloc test do not close
// over anything.
func nopCall(any) {}

// TestSteadyStateAllocFree pins the tentpole's core performance claim: once
// the record pool and heap have grown to working size, scheduling and firing
// events allocates nothing.
func TestSteadyStateAllocFree(t *testing.T) {
	e := NewEngine(1)
	run := func(n int) {
		for i := 0; i < n; i++ {
			e.AtCall(float64(i)*1e-6, nopCall, nil)
		}
		e.Run()
	}
	run(4096) // warm the pool, heap, and free list
	const batch = 1024
	allocs := testing.AllocsPerRun(10, func() { run(batch) })
	if per := allocs / batch; per > 0.01 {
		t.Fatalf("steady state allocates %.4f allocs/event, want ~0", per)
	}
}

// pingPong spawns two processes that pass a turn back and forth msgs times
// each through a pair of Conds; every message after the first wakes a
// process parked on the other Cond.
func pingPong(e *Engine, msgs int) {
	conds := [2]*Cond{NewCond(e), NewCond(e)}
	turn := 0
	for me := 0; me < 2; me++ {
		me := me
		e.Spawn(fmt.Sprintf("pp%d", me), func(p *Proc) {
			for i := 0; i < msgs; i++ {
				for turn != me {
					conds[me].Wait(p)
				}
				turn = 1 - me
				conds[1-me].Signal()
			}
		})
	}
}

// TestHandoffsCountCrossProcessSwitches pins the switch-mix counter: in a
// two-process ping-pong every extra message costs exactly one handoff,
// while a lone sleeper — even with timer events interleaved — resumes
// inline from its own wake every time and never hands off.
func TestHandoffsCountCrossProcessSwitches(t *testing.T) {
	handoffs := func(msgs int) int64 {
		e := NewEngine(1)
		pingPong(e, msgs)
		e.Run()
		return e.Handoffs
	}
	h10, h30 := handoffs(10), handoffs(30)
	if d := h30 - h10; d != 2*(30-10) {
		t.Fatalf("40 extra ping-pong messages cost %d handoffs (%d -> %d), want 40", d, h10, h30)
	}

	e := NewEngine(1)
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(1)
		}
	})
	for i := 0; i < 50; i++ {
		e.At(float64(i)+0.5, func() {})
	}
	e.Run()
	if e.Handoffs != 0 {
		t.Fatalf("lone sleeper handed off %d times, want 0", e.Handoffs)
	}
}

// TestCoroutineFirstResumedByLockedShardWorker spawns processes on the test
// goroutine and lets 2-shard Windows workers, each locked to its OS thread,
// drive them. The runtime only allows switching to a coroutine with the
// thread-lock state it was created under, so the engine must create each
// coroutine on its first resume by the driver, never in Spawn.
func TestCoroutineFirstResumedByLockedShardWorker(t *testing.T) {
	engs := []*Engine{NewEngine(1), NewEngine(2)}
	for _, e := range engs {
		pingPong(e, 20)
		e.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(0.25)
			}
		})
	}
	ws := NewWindows(engs, 0.5)
	if end := ws.Run(); end != 1.25 {
		t.Fatalf("windowed run ended at %g, want 1.25", end)
	}
	for s, e := range engs {
		if e.live != 0 || e.Handoffs == 0 {
			t.Fatalf("shard %d: %d live process(es), %d handoffs; want 0 live and ping-pong handoffs", s, e.live, e.Handoffs)
		}
	}
}

// TestProcPanicFromInlineDispatch fires a faulting event callback from the
// event loop a parked process runs inline, while two other processes sit
// suspended in their coroutines. The driver must re-raise it as a
// *ProcPanic naming the process whose loop fired it, with the callback's
// value and stack, and leave the suspended processes parked.
func TestProcPanicFromInlineDispatch(t *testing.T) {
	e := NewEngine(1)
	never := NewCond(e)
	a := e.Spawn("a", func(p *Proc) { never.Wait(p) })
	b := e.Spawn("b", func(p *Proc) { never.Wait(p) })
	e.Spawn("c", func(p *Proc) { p.Sleep(2) })
	e.At(1, func() { panic("callback fault") })
	var pp *ProcPanic
	func() {
		defer func() {
			var ok bool
			if pp, ok = recover().(*ProcPanic); !ok {
				t.Fatal("Run did not re-raise a *ProcPanic")
			}
		}()
		e.Run()
	}()
	if pp.Proc != "c" || pp.Value != "callback fault" {
		t.Fatalf("got ProcPanic{%q, %v}, want {\"c\", callback fault}", pp.Proc, pp.Value)
	}
	if !strings.Contains(string(pp.Stack), "TestProcPanicFromInlineDispatch") {
		t.Fatalf("stack does not reach the faulting callback:\n%s", pp.Stack)
	}
	if a.Done() || b.Done() || e.live != 2 {
		t.Fatalf("a.Done=%v b.Done=%v live=%d; want a and b parked and live", a.Done(), b.Done(), e.live)
	}
}

// TestDeadlockNamesSuspendedProcs checks Run's deadlock diagnostic when the
// stuck process is a coroutine suspended in the driver after the queue
// drained, beside processes that finished through handoffs.
func TestDeadlockNamesSuspendedProcs(t *testing.T) {
	e := NewEngine(1)
	pingPong(e, 3)
	never := NewCond(e)
	e.Spawn("zz-waiter", func(p *Proc) {
		p.Sleep(1)
		never.Wait(p)
	})
	e.Spawn("done", func(p *Proc) {})
	defer func() {
		s, _ := recover().(string)
		if !strings.Contains(s, "deadlock at t=1") || !strings.Contains(s, "1 process(es) parked: [zz-waiter]") {
			t.Fatalf("recovered %q, want a deadlock naming [zz-waiter]", s)
		}
	}()
	e.Run()
	t.Fatal("Run returned despite deadlock")
}

// TestFaultedRunsReleaseSuspendedCoroutines runs engines that end in a
// process fault, a fault in an event callback the driver fires itself, or a
// deadlock while other processes sit suspended in their coroutines —
// sequential (Run and RunUntil), on a one-shard window and on two shard
// workers — and checks that none of those coroutines' goroutines outlive
// the failed run. Abandoned bodies unwind through their deferred calls
// without firing another event, and the fault still names the faulting
// process.
func TestFaultedRunsReleaseSuspendedCoroutines(t *testing.T) {
	late := false
	build := func(fault string) *Engine {
		e := NewEngine(1)
		never := NewCond(e)
		for _, name := range []string{"a", "b"} {
			e.Spawn(name, func(p *Proc) {
				defer p.Sleep(0.5) // a park during the unwind must not run the loop
				never.Wait(p)
			})
		}
		switch fault {
		case "proc":
			e.Spawn("c", func(p *Proc) {
				p.Sleep(1)
				panic("fault")
			})
		case "callback":
			e.At(1, func() { panic("callback fault") })
		}
		if fault != "" {
			e.At(5, func() { late = true })
		}
		return e
	}
	mustPanic := func(run func()) (r any) {
		defer func() { r = recover() }()
		run()
		t.Fatal("run returned despite a fault or deadlock")
		return nil
	}
	base := runtime.NumGoroutine()
	runs := 0
	for i := 0; i < 20; i++ {
		e := build("proc")
		if pp, ok := mustPanic(func() { e.Run() }).(*ProcPanic); !ok || pp.Proc != "c" {
			t.Fatalf("Run re-raised %v, want a *ProcPanic from c", pp)
		}
		if s, _ := mustPanic(func() { build("").Run() }).(string); !strings.Contains(s, "deadlock") {
			t.Fatalf("recovered %q, want a deadlock", s)
		}
		for _, run := range []func(){
			func() { build("callback").Run() },
			func() { build("callback").RunUntil(10) },
			func() { NewWindows([]*Engine{build("callback")}, 0.25).Run() },
			func() { NewWindows([]*Engine{build("proc")}, 0.25).Run() },
			func() { NewWindows([]*Engine{build(""), build("proc")}, 0.25).Run() },
			func() { NewWindows([]*Engine{build(""), build("")}, 0.25).Run() },
		} {
			if s, ok := mustPanic(run).(string); ok && !strings.Contains(s, "deadlock") && s != "callback fault" {
				t.Fatalf("recovered %q", s)
			}
		}
		runs += 8
	}
	if late {
		t.Fatal("an event fired after the fault while abandoned processes unwound")
	}
	// Goroutines of stopped coroutines and shard workers exit just after
	// their last handoff; give the scheduler a moment to reap them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base+2 {
		t.Fatalf("%d goroutines after %d failed runs, %d before: suspended coroutines leaked", n, runs, base)
	}
}
