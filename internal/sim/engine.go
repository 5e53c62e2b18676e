// Package sim implements a deterministic discrete-event simulation engine
// with cooperatively scheduled processes. It is layer S1 of the substitution
// map (DESIGN.md §1): the stand-in for MPI ranks running on real clusters.
//
// The engine owns a virtual clock and a priority queue of events. Simulated
// processes run as iter.Pull coroutines under one driver: the goroutine
// that called Run (or a PDES shard worker), so at most one of them executes
// at any instant. A parking process runs the event loop inline; when its own
// wake event is next it resumes with zero switches, and when another
// process's wake is next it yields to the driver, which switches to that
// process — two coroutine switches, with no channel operation, scheduler
// wakeup or futex. Runs are fully deterministic for a fixed seed, which is
// what makes the reproduction of the paper's measurements repeatable.
//
// Events live in a pool of records indexed by an inlined 4-ary heap, so the
// steady-state hot path (schedule, fire, free-list) performs no allocation.
// Callback state that would otherwise force a closure allocation can be
// passed through AtCall's (fn, arg) pair.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Time is virtual time in seconds.
type Time = float64

// Event kinds stored in pooled event records.
const (
	evFunc uint8 = iota // fn()
	evCall              // fn2(arg)
	evWake              // wake proc if still parked on generation wgen
)

// eventRec is one pooled event. Records are recycled through a free list;
// gen distinguishes a live record from a recycled one so that stale Event
// handles become no-ops instead of acting on the wrong event.
type eventRec struct {
	t    Time
	seq  int64
	wgen uint64    // evWake: park generation the ticket targets
	fn   func()    // evFunc
	fn2  func(any) // evCall
	arg  any       // evCall
	proc *Proc     // evWake
	pos  int32     // heap position; -1 when not queued
	gen  uint32    // handle generation, bumped on free
	kind uint8
}

// Event is a cancelable handle to a scheduled callback. Events fire in
// (time, sequence) order; the sequence number makes simultaneous events
// deterministic (FIFO). The zero Event is a valid no-op handle.
type Event struct {
	e   *Engine
	idx int32
	gen uint32
	t   Time
}

// Time returns the virtual time at which the event fires (or fired).
func (ev Event) Time() Time { return ev.t }

// Cancel prevents a queued event from firing, removing it from the queue
// immediately so long sweeps with many canceled timers do not grow the heap.
// Canceling an already fired or already canceled event is a no-op.
func (ev Event) Cancel() {
	if ev.e == nil {
		return
	}
	r := &ev.e.recs[ev.idx]
	if r.gen != ev.gen || r.pos < 0 {
		return // already fired, freed, or mid-dispatch
	}
	ev.e.heapRemove(r.pos)
	ev.e.freeRec(ev.idx)
}

// ProcPanic wraps a panic that escaped a simulated process body. It is
// re-raised on the goroutine that called Run/RunUntil, so harness code (the
// experiment runner, tests) can recover from faults in simulated rank code
// exactly like it recovers from engine-level panics.
type ProcPanic struct {
	Proc  string // name of the process whose body panicked
	Value any    // the original panic value
	Stack []byte // stack captured at the panic site
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: panic in process %q: %v", pp.Proc, pp.Value)
}

func (pp *ProcPanic) String() string { return pp.Error() }

// Unwrap exposes the original panic value when it was an error.
func (pp *ProcPanic) Unwrap() error {
	if err, ok := pp.Value.(error); ok {
		return err
	}
	return nil
}

// Engine is a discrete-event simulator.
type Engine struct {
	now  Time
	recs []eventRec // event pool; heap and free list hold indices into it
	free []int32    // recycled record indexes
	heap []int32    // 4-ary min-heap of queued records, keyed by (t, seq)
	seq  int64

	deadline  Time       // horizon of the current Run/RunUntil
	strictEnd bool       // exclusive horizon: stop before t == deadline (PDES windows)
	handoff   *Proc      // process a parked process yielded to the driver for
	procPanic *ProcPanic // pending fault captured from a process body

	procs []*Proc
	live  int
	rng   *ClonableRand

	// Stats counters, useful in tests and for harness reporting. Handoffs
	// counts driver switches into an already started process: the wakes
	// the woken process did not resume inline itself, first starts aside.
	EventsFired int64
	Handoffs    int64

	trace *Trace
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: NewClonableRand(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng.Rand }

// allocRec returns a free record index, growing the pool only when the free
// list is empty.
func (e *Engine) allocRec() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	e.recs = append(e.recs, eventRec{})
	return int32(len(e.recs) - 1)
}

// freeRec recycles a record, bumping its generation so outstanding Event
// handles go stale, and dropping references so fired callbacks can be
// collected.
func (e *Engine) freeRec(idx int32) {
	r := &e.recs[idx]
	r.gen++
	r.pos = -1
	r.fn = nil
	r.fn2 = nil
	r.arg = nil
	r.proc = nil
	e.free = append(e.free, idx)
}

// less orders records by (time, sequence); seq uniqueness makes this a
// strict total order, so the heap's pop sequence is fully deterministic.
func (e *Engine) less(a, b int32) bool {
	ra, rb := &e.recs[a], &e.recs[b]
	if ra.t != rb.t {
		return ra.t < rb.t
	}
	return ra.seq < rb.seq
}

func (e *Engine) heapPush(idx int32) {
	i := len(e.heap)
	e.heap = append(e.heap, idx)
	e.recs[idx].pos = int32(i)
	e.siftUp(i)
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	idx := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(idx, h[parent]) {
			break
		}
		h[i] = h[parent]
		e.recs[h[i]].pos = int32(i)
		i = parent
	}
	h[i] = idx
	e.recs[idx].pos = int32(i)
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	idx := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if e.less(h[c], h[best]) {
				best = c
			}
		}
		if !e.less(h[best], idx) {
			break
		}
		h[i] = h[best]
		e.recs[h[i]].pos = int32(i)
		i = best
	}
	h[i] = idx
	e.recs[idx].pos = int32(i)
}

// heapPop removes and returns the minimum record index.
func (e *Engine) heapPop() int32 {
	top := e.heap[0]
	n := len(e.heap) - 1
	if n > 0 {
		e.heap[0] = e.heap[n]
		e.recs[e.heap[0]].pos = 0
	}
	e.heap = e.heap[:n]
	if n > 1 {
		e.siftDown(0)
	}
	e.recs[top].pos = -1
	return top
}

// heapRemove deletes the record at heap position i (Cancel's path).
func (e *Engine) heapRemove(i int32) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if int(i) == n {
		return
	}
	e.heap[i] = last
	e.recs[last].pos = i
	e.siftDown(int(i))
	if e.recs[last].pos == i {
		e.siftUp(int(i))
	}
}

// schedule allocates and enqueues a record firing after delay d.
func (e *Engine) schedule(d Time, kind uint8) int32 {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event in the past (d=%g)", d))
	}
	e.seq++
	idx := e.allocRec()
	r := &e.recs[idx]
	r.t = e.now + d
	r.seq = e.seq
	r.kind = kind
	e.heapPush(idx)
	return idx
}

// At schedules fn to run after delay d (d >= 0) and returns the event so it
// can be canceled. Scheduling with d < 0 panics: the past is immutable.
func (e *Engine) At(d Time, fn func()) Event {
	idx := e.schedule(d, evFunc)
	r := &e.recs[idx]
	r.fn = fn
	return Event{e: e, idx: idx, gen: r.gen, t: r.t}
}

// AtCall schedules fn(arg) after delay d. It is the allocation-free variant
// of At for hot paths: passing state through arg instead of a closure lets
// callers schedule with a package-level function and an already-held pointer.
func (e *Engine) AtCall(d Time, fn func(any), arg any) Event {
	idx := e.schedule(d, evCall)
	r := &e.recs[idx]
	r.fn2, r.arg = fn, arg
	return Event{e: e, idx: idx, gen: r.gen, t: r.t}
}

// AtTime schedules fn at absolute virtual time t (t >= Now()).
func (e *Engine) AtTime(t Time, fn func()) Event {
	return e.At(t-e.now, fn)
}

// AtTimeCall schedules fn(arg) at absolute virtual time t (t >= Now()).
func (e *Engine) AtTimeCall(t Time, fn func(any), arg any) Event {
	return e.AtCall(t-e.now, fn, arg)
}

// InjectAt enqueues fn(arg) at absolute virtual time t, bypassing the
// delay-relative schedule path. It exists for the PDES window barrier: the
// destination engine's clock at a barrier depends on how ranks are
// partitioned, so computing a relative delay (t - now) and adding it back
// would reintroduce partition-dependent floating-point round-off. Injected
// events receive the engine's next sequence number, so the caller's
// injection order is the tie-break order for simultaneous events.
func (e *Engine) InjectAt(t Time, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: injecting event in the past (t=%g, now=%g)", t, e.now))
	}
	e.seq++
	idx := e.allocRec()
	r := &e.recs[idx]
	r.t = t
	r.seq = e.seq
	r.kind = evCall
	r.fn2, r.arg = fn, arg
	e.heapPush(idx)
}

// atWake schedules a wake ticket for p's park generation g. Wake tickets are
// plain pooled records — no closure, no handle — and stale tickets (the
// process was already woken, re-parked, or finished) are dropped in the
// event loop, which is how same-instant wakeups coalesce into one resume.
func (e *Engine) atWake(d Time, p *Proc, g uint64) {
	idx := e.schedule(d, evWake)
	r := &e.recs[idx]
	r.proc, r.wgen = p, g
}

// horizonReached reports whether no queued event may fire under the current
// horizon. Run/RunUntil use an inclusive deadline; a PDES window sets
// strictEnd so events at exactly the window boundary wait for the next
// window (a cross-shard message can arrive precisely at now + lookahead, and
// it must be merged at the barrier before anything at that instant fires).
func (e *Engine) horizonReached() bool {
	if len(e.heap) == 0 {
		return true
	}
	t := e.recs[e.heap[0]].t
	if e.strictEnd {
		return t >= e.deadline
	}
	return t > e.deadline
}

// loop fires events until the horizon. self is the process running it inline
// from a park, or nil when the caller is the driver (Run, RunUntil or a PDES
// window). A wake for self returns at once: the own-wake resume costs no
// switch. A wake for another process q is a handoff: the driver resumes q
// directly, while a parked self sets e.handoff = q and yields to the driver,
// which then resumes q — two coroutine switches, no scheduler involvement.
// Reaching the horizon likewise yields self back to the driver, which
// returns to its caller.
func (e *Engine) loop(self *Proc) {
	for !e.horizonReached() {
		idx := e.heapPop()
		r := &e.recs[idx]
		e.now = r.t
		e.EventsFired++
		switch r.kind {
		case evFunc:
			fn := r.fn
			e.freeRec(idx)
			fn()
		case evCall:
			fn, arg := r.fn2, r.arg
			e.freeRec(idx)
			fn(arg)
		default: // evWake
			q, g := r.proc, r.wgen
			e.freeRec(idx)
			if q.done || !q.parked || q.gen != g {
				continue // stale ticket: this wakeup was coalesced away
			}
			if q == self {
				return // own wake: resume inline
			}
			if self == nil {
				e.resume(q)
				continue
			}
			e.handoff = q
			self.suspend()
			return
		}
	}
	if self != nil {
		self.suspend()
	}
}

// Run executes events until the queue drains. It returns the final virtual
// time. If processes remain parked when the queue drains, the simulation is
// deadlocked; Run panics with a diagnostic naming the parked processes. A
// panic escaping a process body is re-raised here as a *ProcPanic.
func (e *Engine) Run() Time {
	defer e.abandonOnPanic()
	e.deadline = math.Inf(1)
	e.loop(nil)
	if e.live > 0 {
		var stuck []string
		for _, p := range e.procs {
			if !p.done {
				stuck = append(stuck, p.name)
			}
		}
		sort.Strings(stuck)
		panic(fmt.Sprintf("sim: deadlock at t=%g, %d process(es) parked: %v", e.now, e.live, stuck))
	}
	return e.now
}

// RunUntil executes events with time <= deadline and returns the virtual time
// reached. Unlike Run it does not treat parked processes as a deadlock.
func (e *Engine) RunUntil(deadline Time) Time {
	defer e.abandonOnPanic()
	e.deadline = deadline
	e.loop(nil)
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// runWindow executes events with time strictly below end, leaving the clock
// at the last fired event. It is the per-shard leg of one PDES time window:
// the caller (Windows) guarantees that no event below end can be created by
// another shard, which is exactly the conservative-lookahead contract.
func (e *Engine) runWindow(end Time) {
	e.deadline, e.strictEnd = end, true
	e.loop(nil)
	e.strictEnd = false
}

// nextEventTime returns the earliest queued event time, if any. The Windows
// coordinator reduces this across shards to place the next window boundary.
func (e *Engine) nextEventTime() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.recs[e.heap[0]].t, true
}

// Spawn starts a new process executing fn. The process begins running at the
// current virtual time (via a zero-delay wake event); its coroutine is
// created by the driver on that first resume. If fn panics, the panic is
// captured with its stack and re-raised from Run as a *ProcPanic.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:    e,
		name:   name,
		id:     len(e.procs),
		body:   fn,
		parked: true,
		gen:    1,
	}
	e.procs = append(e.procs, p)
	e.live++
	e.atWake(0, p, 1)
	return p
}

// Procs returns all processes ever spawned.
func (e *Engine) Procs() []*Proc { return e.procs }
