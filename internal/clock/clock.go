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
// ticks. It is an alias of the unnamed interface so that sim.Engine, which
// this package imports and so cannot import, returns the very same type.
type Timer = interface{ Cancel() }

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

// The engine is a Clock itself: scheduling through this interface is
// scheduling on the engine, byte for byte.
var _ Clock = (*sim.Engine)(nil)

// Sim returns the engine as a Clock. It stays only because benchmark/ calls
// it; the engine can be passed wherever a Clock is taken.
func Sim(e *sim.Engine) Clock {
	if e == nil {
		panic("clock: Sim requires an engine")
	}
	return e
}
