package sim

import (
	"testing"
	"time"
)

func TestEngineRunsEventsInTimestampOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(3*time.Second, func() { got = append(got, 3) })
	e.At(1*time.Second, func() { got = append(got, 1) })
	e.At(2*time.Second, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOAmongEqualTimestamps(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("equal-timestamp order = %v, want FIFO", got)
		}
	}
}

func TestEngineClockAdvancesToEventTime(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.After(5*time.Second, func() { at = e.Now() })
	e.Run()
	if at != 5*time.Second {
		t.Fatalf("Now() inside event = %v, want 5s", at)
	}
}

func TestEngineAfterIsRelative(t *testing.T) {
	e := NewEngine()
	var second time.Duration
	e.After(2*time.Second, func() {
		e.After(3*time.Second, func() { second = e.Now() })
	})
	e.Run()
	if second != 5*time.Second {
		t.Fatalf("nested After fired at %v, want 5s", second)
	}
}

func TestEngineRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		e.At(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2 (inclusive boundary)", len(fired))
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
	e.RunUntil(10 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events after second run, want 3", len(fired))
	}
	if e.Now() != 10*time.Second {
		t.Fatalf("clock = %v, want 10s even though queue drained earlier", e.Now())
	}
}

func TestEngineSchedulingInPastClampsToNow(t *testing.T) {
	e := NewEngine()
	var fired time.Duration
	e.At(4*time.Second, func() {
		e.At(time.Second, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 4*time.Second {
		t.Fatalf("past event fired at %v, want clamped to 4s", fired)
	}
}

func TestTimerCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(time.Second, func() { fired = true })
	tm.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerCancelIsIdempotentAndNilSafe(t *testing.T) {
	e := NewEngine()
	tm := e.After(time.Second, func() {})
	tm.Cancel()
	tm.Cancel()
	var nilTimer *Timer
	nilTimer.Cancel() // must not panic
	e.Run()
}

func TestEveryTicksAtInterval(t *testing.T) {
	e := NewEngine()
	var ticks []time.Duration
	tm := e.Every(time.Second, func() { ticks = append(ticks, e.Now()) })
	e.RunUntil(3500 * time.Millisecond)
	tm.Cancel()
	e.RunUntil(10 * time.Second)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3", len(ticks))
	}
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		if ticks[i] != want {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want)
		}
	}
}

func TestEveryCancelFromWithinCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tm interface{ Cancel() }
	tm = e.Every(time.Second, func() {
		count++
		if count == 2 {
			tm.Cancel()
		}
	})
	e.RunUntil(time.Minute)
	if count != 2 {
		t.Fatalf("ticker fired %d times, want 2 (cancelled from callback)", count)
	}
}

func TestPendingCountsUnfiredEvents(t *testing.T) {
	e := NewEngine()
	e.After(time.Second, func() {})
	e.After(2*time.Second, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after Run = %d, want 0", e.Pending())
	}
}

func TestAtNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil) did not panic")
		}
	}()
	NewEngine().At(time.Second, nil)
}

func TestEveryNonPositiveIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	NewEngine().Every(0, func() {})
}

func TestAtTimerRebindsHandleInPlace(t *testing.T) {
	e := NewEngine()
	var tm Timer
	fired := []string{}
	e.AtTimer(&tm, time.Second, func() { fired = append(fired, "a") })
	tm.Cancel()
	// Rebinding after cancel reuses the same handle for a fresh event.
	e.AtTimer(&tm, 2*time.Second, func() { fired = append(fired, "b") })
	e.Run()
	if len(fired) != 1 || fired[0] != "b" {
		t.Fatalf("fired = %v, want only the rebound event", fired)
	}
	// After firing, the handle rebinds again and a stale Cancel of the
	// fired schedule must not touch the new one.
	e.AtTimer(&tm, 3*time.Second, func() { fired = append(fired, "c") })
	old := tm // stale copy of the armed handle
	e.Run()
	old.Cancel() // fired already: no-op
	e.AtTimer(&tm, 4*time.Second, func() { fired = append(fired, "d") })
	old.Cancel() // stale seq: must not cancel the new event
	e.Run()
	if len(fired) != 3 || fired[1] != "c" || fired[2] != "d" {
		t.Fatalf("fired = %v, want [b c d]", fired)
	}
}

func TestAtTimerNilTimerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AtTimer(nil, ...) did not panic")
		}
	}()
	NewEngine().AtTimer(nil, time.Second, func() {})
}

func TestAtTimerDoesNotAllocateWhenWarm(t *testing.T) {
	e := NewEngine()
	var tm Timer
	fn := func() {}
	e.AtTimer(&tm, 0, fn)
	e.Run()
	allocs := testing.AllocsPerRun(500, func() {
		e.AtTimer(&tm, e.Now(), fn)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("warm AtTimer allocates %.1f objects, want 0", allocs)
	}
}
