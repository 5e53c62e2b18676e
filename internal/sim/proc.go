//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulated process. Its body runs as an iter.Pull coroutine
// driven by the engine's driver (the Run caller or a PDES shard worker), so
// exactly one of them executes at any instant and switching between them
// never goes through the Go scheduler. A parking process runs the event
// loop itself: it resumes inline when its own wake event is next, and
// otherwise names the woken process in e.handoff and yields to the driver,
// which resumes that process (see Engine.loop).
//
// Wakeups are pooled evWake records addressed by (process, park generation).
// Any API that logically wakes a process (Sleep timers, Cond.Broadcast,
// Cond.Signal) pushes such a record; the event loop drops tickets whose
// generation is stale, which coalesces multiple same-instant wakeups of one
// process into a single resume.
type Proc struct {
	eng    *Engine
	name   string
	id     int
	body   func(*Proc)
	next   func() (struct{}, bool) // driver side: resume the coroutine
	yield  func(struct{}) bool     // process side: suspend to the driver
	done   bool
	parked bool
	gen    uint64 // park generation; wake tickets target a generation
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// ID returns the process index in spawn order.
func (p *Proc) ID() int { return p.id }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// prepark marks the process as about to park and returns the wake ticket
// that targets exactly this park. Must be called from the process's own
// coroutine, immediately before parkPrepared.
func (p *Proc) prepark() uint64 {
	p.gen++
	p.parked = true
	return p.gen
}

// parkPrepared suspends the process until a wake record with a matching
// ticket fires. The process runs the event loop itself, so a park whose
// wake is the next runnable event costs no coroutine switch at all.
func (p *Proc) parkPrepared() {
	p.eng.loop(p)
	p.parked = false
}

// resume is the driver's side of a handoff: it switches to q's coroutine
// (creating it on q's first resume, so it belongs to the goroutine and
// thread that drive the engine) and keeps following the handoffs the
// resumed processes leave until one yields without naming a successor. A
// panic captured from a process body is re-raised here as a *ProcPanic.
func (e *Engine) resume(q *Proc) {
	for ; q != nil; q = e.handoff {
		e.handoff = nil
		if q.next == nil {
			q.next, _ = iter.Pull(q.run)
		} else {
			e.Handoffs++
		}
		q.next()
		if pp := e.procPanic; pp != nil {
			e.procPanic = nil
			panic(pp)
		}
	}
}

// run is the coroutine body: it runs the process to completion, recording
// an escaped panic for the driver to re-raise.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	p.parked = false
	fail := p.runBody(p.body)
	p.done, p.body = true, nil
	p.eng.live--
	if fail != nil {
		p.eng.procPanic = fail
	}
}

// runBody executes the process body, converting an escaped panic into a
// *ProcPanic so it can be re-raised on the driver's goroutine.
func (p *Proc) runBody(fn func(*Proc)) (fail *ProcPanic) {
	defer func() {
		if r := recover(); r != nil {
			if pp, ok := r.(*ProcPanic); ok {
				fail = pp // already wrapped by a nested engine's driver
				return
			}
			fail = &ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()}
		}
	}()
	fn(p)
	return nil
}

// Sleep advances the process's local activity by duration d of virtual time.
// Other events interleave while the process sleeps.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %g in %q", d, p.name))
	}
	if d == 0 {
		return
	}
	g := p.prepark()
	p.eng.atWake(d, p, g)
	p.parkPrepared()
}

// Yield parks the process and schedules an immediate wakeup, letting other
// events at the current virtual time run first.
func (p *Proc) Yield() {
	g := p.prepark()
	p.eng.atWake(0, p, g)
	p.parkPrepared()
}

type condWaiter struct {
	p *Proc
	g uint64
}

// Cond is a condition variable for simulated processes. The zero value is
// not usable; create one with NewCond. Waiters can experience spurious
// wakeups (e.g. when a stale broadcast fires), so, as with sync.Cond,
// callers must re-check their predicate in a loop.
type Cond struct {
	eng     *Engine
	waiters []condWaiter
}

// NewCond returns a condition variable bound to engine e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// Wait parks p until the condition is signaled.
func (c *Cond) Wait(p *Proc) {
	g := p.prepark()
	c.waiters = append(c.waiters, condWaiter{p, g})
	p.parkPrepared()
}

// Broadcast wakes all current waiters in FIFO order. It is safe to call from
// process context or event context: each waiter gets a zero-delay wake
// record, so the wakeups happen strictly after the caller's current step,
// in consecutive event order. A waiter that was meanwhile woken through
// another path holds a newer park generation and its record is dropped as
// stale by the event loop.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		c.eng.atWake(0, w.p, w.g)
	}
	c.waiters = c.waiters[:0]
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:n]
	c.eng.atWake(0, w.p, w.g)
}

// Waiters reports the number of parked processes on the condition.
func (c *Cond) Waiters() int { return len(c.waiters) }
