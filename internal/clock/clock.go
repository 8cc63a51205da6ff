// Package clock abstracts "a clock that schedules callbacks" so the same
// component can run on the simulator's virtual time or on the machine's wall
// clock. Time is a time.Duration measured from the clock's epoch (simulation
// start, or process start for the wall clock) — exactly the convention every
// simulated component already follows, which is what makes the abstraction a
// drop-in: internal/loadgen, internal/health, the L3 controller, scraper and
// guard watchdog all schedule through this interface and cannot tell whether
// a sim.Engine or a Wall clock is underneath.
//
// The contract mirrors sim.Engine's execution model: callbacks of one clock
// are mutually serialized (never two at once), so single-threaded components
// like the EWMA weighter run unmodified on a Wall clock. What the wall clock
// cannot promise is the simulator's determinism — callbacks fire in real
// time, subject to scheduler jitter — so anything golden-tested stays on the
// virtual clock.
package clock

import (
	"time"

	"l3/internal/sim"
)

// Timer is a handle to a scheduled callback. Cancel prevents an unfired
// callback from running; cancelling an already-fired or already-cancelled
// timer is a no-op. For timers returned by Every, Cancel stops all future
// ticks.
type Timer interface {
	Cancel()
}

// Clock schedules callbacks against a monotonic clock measured from an
// epoch. Implementations serialize callbacks: no two callbacks of one clock
// run concurrently, and components driven by the same clock may share state
// without locks (the simulator's single-threaded model).
type Clock interface {
	// Now returns the time elapsed since the clock's epoch.
	Now() time.Duration
	// After schedules fn once, d from now (negative d clamps to zero).
	After(d time.Duration, fn func()) Timer
	// Every schedules fn every interval, starting one interval from now,
	// until the returned Timer is cancelled. The interval must be positive.
	Every(interval time.Duration, fn func()) Timer
}

// simClock adapts a sim.Engine to the Clock interface. The adapter is pure
// forwarding: scheduling through it is byte-identical to scheduling on the
// engine directly, so components refactored onto Clock keep their golden
// outputs.
type simClock struct {
	e *sim.Engine
}

// Sim wraps a simulation engine as a Clock.
func Sim(e *sim.Engine) Clock {
	if e == nil {
		panic("clock: Sim requires an engine")
	}
	return simClock{e}
}

func (c simClock) Now() time.Duration { return c.e.Now() }

func (c simClock) After(d time.Duration, fn func()) Timer { return c.e.After(d, fn) }

func (c simClock) Every(interval time.Duration, fn func()) Timer { return c.e.Every(interval, fn) }

// AfterTimer is After through a caller-owned handle (sim.Engine.AtTimer):
// the same event, no Timer allocated. Not part of Clock — a high-rate caller
// asserts for it and falls back to After. t must have fired or been cancelled.
func (c simClock) AfterTimer(t *sim.Timer, d time.Duration, fn func()) {
	c.e.AtTimer(t, c.e.Now()+max(d, 0), fn)
}
