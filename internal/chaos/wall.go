package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"l3/internal/clock"
)

// WallBackend is the fault surface of one wall-clock stub backend
// (implemented by serve.ChaosStub). Setters are idempotent and safe from
// any goroutine: the runner drives them from clock callbacks while the
// stub's request handlers read them concurrently.
type WallBackend interface {
	// SetStalled makes the backend accept connections but never answer.
	SetStalled(on bool)
	// SetResetting makes the backend TCP-reset every connection.
	SetResetting(on bool)
	// SetSlowLoris drips response bodies one byte per interval (0 = off).
	SetSlowLoris(interval time.Duration)
	// SetErrorRate answers 500 to the given fraction of requests (0 = off).
	SetErrorRate(rate float64)
	// SetExtraLatency adds a fixed delay to every response (0 = off).
	SetExtraLatency(extra time.Duration)
}

// WallTargets binds a schedule's events to a wall-clock run. Scrapers
// receive the control-plane scrape faults exactly as in the sim Injector:
// every gate takes scrapedrop, and gates with the ScrapeCorrupter,
// ScrapeSkewer or ScrapeSlower capability take garbage, clockskew or
// slowscrape.
type WallTargets struct {
	// Backends maps backend name to its fault surface.
	Backends map[string]WallBackend
	// Scrapers are the control plane's scrape gates.
	Scrapers []ScrapeGate
}

// WallRunner schedules a fault schedule onto a real clock: the wall-mode
// counterpart of Injector. The schedule grammar is shared — a schedule
// string works in either mode as long as its kinds fit the mode — but the
// injected faults are real socket misbehaviour (stalls, resets, slow-loris
// bodies) rather than structural simulator state. Ramps and flaps need
// in-window ticks, which the runner drives on the same clock, so a stopped
// runner leaves no timer behind.
type WallRunner struct {
	clk     clock.Clock
	sched   Schedule
	targets WallTargets
	shift   time.Duration

	// mu guards timers: ramp/flap ticks append from clock callbacks while
	// Stop drains from the harness goroutine.
	mu      sync.Mutex
	stopped bool
	timers  []clock.Timer
	applied atomic.Int64
	healed  atomic.Int64
}

// NewWallRunner returns a runner for one wall-clock run. shift displaces
// every event time, as Injector's does.
func NewWallRunner(clk clock.Clock, sched Schedule, targets WallTargets, shift time.Duration) *WallRunner {
	if clk == nil {
		panic("chaos: NewWallRunner requires a clock")
	}
	return &WallRunner{clk: clk, sched: sched, targets: targets, shift: shift}
}

// Start validates the schedule against the targets and arms every
// inject/heal pair. Faults already due (At ≤ 0 after shifting) fire one
// clock tick from now.
func (r *WallRunner) Start() error {
	if err := r.sched.Validate(); err != nil {
		return err
	}
	for _, ev := range r.sched.Events {
		if err := r.check(ev); err != nil {
			return err
		}
	}
	for _, ev := range r.sched.Events {
		ev := ev
		r.track(r.clk.After(r.shift+ev.At, func() {
			r.apply(ev)
			r.applied.Add(1)
		}))
		if ev.Duration > 0 {
			r.track(r.clk.After(r.shift+ev.At+ev.Duration, func() {
				r.heal(ev)
				r.healed.Add(1)
			}))
		}
	}
	return nil
}

// track registers a timer for Stop's drain; a timer registered after Stop
// is cancelled immediately.
func (r *WallRunner) track(t clock.Timer) {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		t.Cancel()
		return
	}
	r.timers = append(r.timers, t)
	r.mu.Unlock()
}

// Stop cancels every pending timer and heals all injected faults, leaving
// the targets clean — the teardown path for harnesses that end mid-window.
func (r *WallRunner) Stop() {
	r.mu.Lock()
	r.stopped = true
	timers := r.timers
	r.timers = nil
	r.mu.Unlock()
	for _, t := range timers {
		t.Cancel()
	}
	for _, ev := range r.sched.Events {
		r.heal(ev)
	}
}

// Applied and Healed report progress (safe from any goroutine).
func (r *WallRunner) Applied() int { return int(r.applied.Load()) }
func (r *WallRunner) Healed() int  { return int(r.healed.Load()) }

// check verifies the run exposes the target an event needs and the kind is
// wall-injectable.
func (r *WallRunner) check(ev Event) error {
	switch ev.Kind {
	case Stall, ConnReset, SlowLoris, ErrorBurst, LatencyRamp, BackendFlap:
		if _, ok := r.targets.Backends[ev.Backend]; !ok {
			return fmt.Errorf("chaos: %s event targets unknown wall backend %q", ev.Kind, ev.Backend)
		}
	case ScrapeDrop, Garbage, ClockSkew, SlowScrape:
		return checkScrape(r.targets.Scrapers, ev)
	default:
		return fmt.Errorf("chaos: %s is not wall-injectable; run it through the simulator's Injector", ev.Kind)
	}
	return nil
}

func (r *WallRunner) apply(ev Event) {
	switch ev.Kind {
	case Stall:
		r.targets.Backends[ev.Backend].SetStalled(true)
	case ConnReset:
		r.targets.Backends[ev.Backend].SetResetting(true)
	case SlowLoris:
		r.targets.Backends[ev.Backend].SetSlowLoris(ev.Extra)
	case ErrorBurst:
		r.targets.Backends[ev.Backend].SetErrorRate(ev.Factor)
	case LatencyRamp:
		r.startRamp(ev)
	case BackendFlap:
		r.startFlap(ev)
	case ScrapeDrop, Garbage, ClockSkew, SlowScrape:
		setScrape(r.targets.Scrapers, ev, true)
	}
}

// heal is idempotent: Stop replays it over every event, fired or not.
func (r *WallRunner) heal(ev Event) {
	b := r.targets.Backends[ev.Backend]
	switch ev.Kind {
	case Stall:
		b.SetStalled(false)
	case ConnReset, BackendFlap:
		b.SetResetting(false)
	case SlowLoris:
		b.SetSlowLoris(0)
	case ErrorBurst:
		b.SetErrorRate(0)
	case LatencyRamp:
		b.SetExtraLatency(0)
	case ScrapeDrop, Garbage, ClockSkew, SlowScrape:
		setScrape(r.targets.Scrapers, ev, false)
	}
}

// startRamp drives the linear latency ramp with in-window ticks; the final
// heal timer (scheduled by Start) zeroes the latency.
func (r *WallRunner) startRamp(ev Event) {
	b := r.targets.Backends[ev.Backend]
	tick := ev.Duration / 16
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	start := r.clk.Now()
	var timer clock.Timer
	timer = r.clk.Every(tick, func() {
		elapsed := r.clk.Now() - start
		if elapsed >= ev.Duration {
			// The heal timer zeroes the latency; setting the full Extra here
			// would race it when both land on the same instant.
			timer.Cancel()
			return
		}
		b.SetExtraLatency(time.Duration(float64(ev.Extra) * float64(elapsed) / float64(ev.Duration)))
	})
	r.track(timer)
}

// startFlap toggles resetting every Flap period; the heal timer clears it.
func (r *WallRunner) startFlap(ev Event) {
	b := r.targets.Backends[ev.Backend]
	b.SetResetting(true)
	on := true
	var timer clock.Timer
	end := r.clk.Now() + ev.Duration
	timer = r.clk.Every(ev.Flap, func() {
		if r.clk.Now() >= end {
			timer.Cancel()
			return
		}
		on = !on
		b.SetResetting(on)
	})
	r.track(timer)
}
