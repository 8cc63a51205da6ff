package main

import (
	"time"

	"l3/internal/clock"
	"l3/internal/core"
	"l3/internal/metrics"
	"l3/internal/smi"
	"l3/internal/timeseries"
)

// The wrappers below are the traced run's only hold on the program: each
// sits on a public seam (clock.Clock, core.Assigner, core.WriteGuard,
// timeseries.Gate) and records a span around the call it forwards. They are
// installed only when a tracer is present, so end-to-end numbers never pay
// for them.

// spanStack tracks the open spans of a single-threaded world (the sim
// engine and the control loop run one callback at a time), so a wrapper can
// name its parent without being told.
type spanStack struct {
	tr    *tracer
	op    uint64
	stack []int
}

func (s *spanStack) push(name string) {
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	s.stack = append(s.stack, s.tr.begin(name, s.op, parent))
}

func (s *spanStack) pop() {
	n := len(s.stack) - 1
	s.tr.end(s.stack[n])
	s.stack = s.stack[:n]
}

// topIs reports whether the innermost open span has the given name.
func (s *spanStack) topIs(name string) bool {
	n := len(s.stack)
	if n == 0 {
		return false
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.tr.spans[s.stack[n-1]].Name == name
}

// popTo closes spans until depth remain — a callback's way of closing
// whatever its callees left open (a split write that never reached the
// store leaves its smi.update span open).
func (s *spanStack) popTo(depth int) {
	for len(s.stack) > depth {
		s.pop()
	}
}

// tracedClock records one span per timer callback it delivers.
type tracedClock struct {
	inner clock.Clock
	ss    *spanStack
	name  string
}

func (c tracedClock) wrap(fn func()) func() {
	return func() {
		depth := len(c.ss.stack)
		c.ss.push(c.name)
		fn()
		c.ss.popTo(depth)
	}
}

func (c tracedClock) Now() time.Duration { return c.inner.Now() }

func (c tracedClock) After(d time.Duration, fn func()) clock.Timer {
	return c.inner.After(d, c.wrap(fn))
}

func (c tracedClock) Every(interval time.Duration, fn func()) clock.Timer {
	return c.inner.Every(interval, c.wrap(fn))
}

// tracedAssigner records a span per Assign call.
type tracedAssigner struct {
	inner core.Assigner
	ss    *spanStack
}

func (a tracedAssigner) Assign(now time.Duration, m map[string]core.BackendMetrics) map[string]float64 {
	a.ss.push("core.assign")
	w := a.inner.Assign(now, m)
	a.ss.pop()
	return w
}

func (a tracedAssigner) Forget(backend string) { a.inner.Forget(backend) }

// tracedGuard records a span per Guard call and, when the gate lets the
// write through, opens the smi.update span that the store's watch callback
// (registered last, so it runs after the controller's own) closes.
type tracedGuard struct {
	inner core.WriteGuard
	ss    *spanStack
}

func (g tracedGuard) Observe(now time.Duration) { g.inner.Observe(now) }

func (g tracedGuard) Guard(now time.Duration, ts *smi.TrafficSplit, weights map[string]float64) (map[string]int64, bool) {
	g.ss.push("guard.gate")
	ints, ok := g.inner.Guard(now, ts, weights)
	g.ss.pop()
	if ok {
		g.ss.push("smi.update")
	}
	return ints, ok
}

// countedGate counts samples through the hygiene gate; a span per sample
// would cost more than the call it measures.
type countedGate struct {
	inner   timeseries.Gate
	samples uint64
}

func (g *countedGate) Admit(name string, labels metrics.Labels, kind metrics.Kind, t time.Duration, v float64) (float64, bool) {
	g.samples++
	return g.inner.Admit(name, labels, kind, t, v)
}
