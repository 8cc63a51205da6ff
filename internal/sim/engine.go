// Package sim provides a deterministic discrete-event simulation engine.
//
// All time in the simulator is virtual: an Engine owns a clock that only
// advances when the next scheduled event fires. Components schedule callbacks
// with At/After and the engine executes them in timestamp order (FIFO among
// events with equal timestamps). Together with the seeded random sources in
// this package, a simulation run is reproducible bit-for-bit.
//
// The event queue is the simulator's hottest data structure — every simulated
// request schedules several events — so the engine recycles fired events
// through a free list and keeps the heap hand-rolled (no interface dispatch).
// High-rate callers that never cancel use Schedule/ScheduleAfter, which skip
// the Timer handle allocation of At/After entirely.
package sim

import (
	"fmt"
	"time"
)

// Engine is a single-threaded discrete-event scheduler with a virtual clock.
// The zero value is not usable; construct with NewEngine. Engine is not safe
// for concurrent use: the simulation model is event-driven, not goroutine
// driven.
type Engine struct {
	now     time.Duration
	queue   []*event // binary min-heap on (at, seq)
	seq     uint64
	fired   uint64
	running bool
	free    []*event // recycled events, reused by schedule
}

// NewEngine returns an engine with its clock at zero and an empty event
// queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time, measured from the start of the
// simulation.
func (e *Engine) Now() time.Duration {
	return e.now
}

// Pending returns the number of scheduled events that have not yet fired.
func (e *Engine) Pending() int {
	return len(e.queue)
}

// Fired returns the number of events executed so far — the self-metric the
// sharded harness aggregates into events/second.
func (e *Engine) Fired() uint64 {
	return e.fired
}

// NextAt returns the timestamp of the earliest scheduled event, ok=false
// when the queue is empty. A cancelled-but-unpopped event still reports its
// time; the barrier scheduler treats that as a (harmless) early stop.
func (e *Engine) NextAt() (time.Duration, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// schedule enqueues fn at absolute time t (clamped to now) and returns the
// backing event. Events come from the free list when one is available, so
// the steady state allocates nothing.
func (e *Engine) schedule(t time.Duration, fn func()) *event {
	if fn == nil {
		panic("sim: schedule called with nil callback")
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn, ev.cancelled = t, e.seq, fn, false
	e.push(ev)
	return ev
}

// recycle returns a fired (or cancelled-and-popped) event to the free list.
// The event's seq is left intact: a stale Timer still holding it compares
// its remembered seq before cancelling, so recycled events cannot be
// cancelled through old handles once reused.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is an error in the model, so it is clamped to "now" and the event fires on
// the next step. The returned Timer can be used to cancel the event.
func (e *Engine) At(t time.Duration, fn func()) *Timer {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	ev := e.schedule(t, fn)
	return &Timer{event: ev, seq: ev.seq}
}

// After schedules fn to run d from the current virtual time. Negative
// durations are clamped to zero. The handle's type is clock.Timer's, spelled
// out because clock imports sim: with After and Every, the engine is a
// clock.Clock.
func (e *Engine) After(d time.Duration, fn func()) interface{ Cancel() } {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Schedule is At without the cancellation handle: the event cannot be
// cancelled, and nothing is allocated once the engine's free list is warm.
// The data plane's per-request events (WAN hops, executions) go through
// here.
func (e *Engine) Schedule(t time.Duration, fn func()) {
	e.schedule(t, fn)
}

// ScheduleAfter is After without the cancellation handle; see Schedule.
func (e *Engine) ScheduleAfter(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, fn)
}

// AtTimer schedules fn at absolute time t through a caller-owned Timer,
// rebinding the handle in place. Cancellable high-rate callers (request
// deadlines, hedge launches, retry backoffs) embed one Timer per pooled
// request and reschedule through it, so the steady state allocates no
// handles. The timer's previous schedule must have fired or been cancelled;
// rebinding an armed timer would orphan the pending event.
func (e *Engine) AtTimer(t *Timer, at time.Duration, fn func()) {
	if t == nil {
		panic("sim: AtTimer called with nil timer")
	}
	ev := e.schedule(at, fn)
	t.event, t.seq, t.cancelled = ev, ev.seq, false
}

// Every schedules fn to run every interval, starting one interval from now,
// until the returned Timer is cancelled. The interval must be positive.
func (e *Engine) Every(interval time.Duration, fn func()) interface{ Cancel() } {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: Every called with non-positive interval %v", interval))
	}
	t := &Timer{}
	var tick func()
	tick = func() {
		fn()
		if !t.cancelled {
			ev := e.schedule(e.now+interval, tick)
			t.event, t.seq = ev, ev.seq
		}
	}
	ev := e.schedule(e.now+interval, tick)
	t.event, t.seq = ev, ev.seq
	return t
}

// Step executes the next scheduled event, advancing the clock to its
// timestamp. It reports whether an event was executed; false means the queue
// is empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.pop()
		if ev.cancelled {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		fn := ev.fn
		e.recycle(ev)
		e.fired++
		fn()
		return true
	}
	return false
}

// RunUntil executes events in order until the clock would pass t or the
// queue empties. Events scheduled exactly at t are executed. The clock is
// left at t even if the queue drained earlier, so subsequent After calls are
// relative to t.
func (e *Engine) RunUntil(t time.Duration) {
	if e.running {
		panic("sim: RunUntil re-entered from within an event callback")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.queue) > 0 && e.queue[0].at <= t {
		ev := e.pop()
		if ev.cancelled {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		fn := ev.fn
		e.recycle(ev)
		e.fired++
		fn()
	}
	if e.now < t {
		e.now = t
	}
}

// Run executes events until the queue is empty and returns the final clock
// value. A model with a self-rescheduling ticker never drains, so most
// simulations should prefer RunUntil.
func (e *Engine) Run() time.Duration {
	for e.Step() {
	}
	return e.now
}

// Timer is a handle to a scheduled event. It remembers the event's schedule
// sequence number so that cancelling after the event fired (and its backing
// struct was recycled into a new event) is a safe no-op.
type Timer struct {
	event     *event
	seq       uint64
	cancelled bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op. For timers returned by Every, Cancel
// also stops all future ticks.
func (t *Timer) Cancel() {
	if t == nil || t.event == nil {
		return
	}
	t.cancelled = true
	if t.event.seq == t.seq {
		t.event.cancelled = true
	}
}

type event struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
}

// before is the heap order: timestamp, then schedule sequence (FIFO among
// equal timestamps). The (at, seq) pair is unique per event, so the order is
// total and pop order is independent of the heap's internal layout — the
// determinism guarantee does not depend on this implementation.
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// push adds ev to the heap (sift-up).
func (e *Engine) push(ev *event) {
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	e.queue = q
}

// pop removes and returns the heap's minimum (sift-down).
func (e *Engine) pop() *event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q[r].before(q[l]) {
			m = r
		}
		if !q[m].before(q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	e.queue = q
	return top
}
