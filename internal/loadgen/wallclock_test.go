package loadgen

import (
	"sync"
	"testing"
	"time"

	"l3/internal/clock"
	"l3/internal/sim"
)

// hiddenEngine is the engine seen only through the Clock interface: New
// cannot find the *sim.Engine behind it, so arrivals take After's handle.
type hiddenEngine struct{ clock.Clock }

// TestNewClockSimEquivalent pins that a generator on the engine (arrivals
// rebound in place through AtTimer) and one on a clock that hides the engine
// (a fresh After handle per arrival) produce the identical arrival sequence —
// the guarantee that keeps every sim golden byte-identical whichever path
// schedules.
func TestNewClockSimEquivalent(t *testing.T) {
	run := func(wrap func(e *sim.Engine) clock.Clock) []time.Duration {
		e := sim.NewEngine()
		var arrivals []time.Duration
		g := New(wrap(e), Config{Rate: ConstantRate(100)}, func(done func(time.Duration, bool)) error {
			arrivals = append(arrivals, e.Now())
			done(time.Millisecond, true)
			return nil
		})
		g.Start()
		e.RunUntil(time.Second)
		return arrivals
	}
	direct := run(func(e *sim.Engine) clock.Clock { return e })
	viaClock := run(func(e *sim.Engine) clock.Clock { return hiddenEngine{e} })
	if len(direct) == 0 || len(direct) != len(viaClock) {
		t.Fatalf("arrival counts differ: %d vs %d", len(direct), len(viaClock))
	}
	for i := range direct {
		if direct[i] != viaClock[i] {
			t.Fatalf("arrival %d at %v via engine, %v via clock", i, direct[i], viaClock[i])
		}
	}
}

// TestCatchUpHoldsOfferedRate pins the wrk2-style correction on a real wall
// clock: with CatchUp, a run's issued count tracks rate*elapsed even though
// the Go runtime delivers timers late. The bound is deliberately loose —
// this asserts the catch-up mechanism works, not the machine's jitter.
func TestCatchUpHoldsOfferedRate(t *testing.T) {
	w := clock.NewWall()
	defer w.Stop()
	var mu sync.Mutex
	issued := 0
	g := New(w, Config{Rate: ConstantRate(2000), CatchUp: true}, func(done func(time.Duration, bool)) error {
		mu.Lock()
		issued++
		mu.Unlock()
		done(time.Millisecond, true)
		return nil
	})
	w.Do(g.Start)
	time.Sleep(250 * time.Millisecond)
	w.Do(g.Stop)
	mu.Lock()
	got := issued
	mu.Unlock()
	// 2000 rps for 250 ms is 500 ideal arrivals. Catch-up bursts recover
	// lost ticks, so even a noisy scheduler should land well above half the
	// ideal count; without catch-up, 1 ms relative gaps on a coarse timer
	// would deliver far fewer.
	if got < 250 {
		t.Fatalf("issued %d requests in 250ms at 2000 rps with catch-up; expected ≥ 250", got)
	}
}
