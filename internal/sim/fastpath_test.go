package sim

import (
	"testing"
	"time"
)

// TestScheduleFiresWithoutTimerHandle covers the handle-free scheduling
// variants the data plane uses: same ordering semantics as At/After, no Timer
// allocation.
func TestScheduleFiresWithoutTimerHandle(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	e.Schedule(time.Second, func() { got = append(got, 1) })
	e.ScheduleAfter(3*time.Second, func() { got = append(got, 3) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Schedule order = %v, want [1 2 3]", got)
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", e.Now())
	}
}

func TestScheduleAfterIsRelative(t *testing.T) {
	e := NewEngine()
	var fired time.Duration
	e.Schedule(2*time.Second, func() {
		e.ScheduleAfter(3*time.Second, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 5*time.Second {
		t.Fatalf("nested ScheduleAfter fired at %v, want 5s", fired)
	}
}

// TestEventStructsAreRecycled pins the free-list behaviour the zero-alloc
// fast path relies on: a fired event's struct is reused by the next schedule.
func TestEventStructsAreRecycled(t *testing.T) {
	e := NewEngine()
	ev1 := e.schedule(time.Second, func() {})
	e.Run()
	ev2 := e.schedule(2*time.Second, func() {})
	if ev1 != ev2 {
		t.Fatal("fired event struct was not recycled into the next schedule")
	}
	if ev2.seq <= 0 {
		t.Fatalf("recycled event kept seq %d, want a fresh sequence number", ev2.seq)
	}
	e.Run()
}

// TestTimerCancelAfterRecycleIsNoOp pins the seq guard: cancelling a timer
// whose event already fired and was recycled into a new event must not cancel
// the new event.
func TestTimerCancelAfterRecycleIsNoOp(t *testing.T) {
	e := NewEngine()
	tm := e.After(time.Second, func() {})
	e.Run() // fires; the event struct goes to the free list
	fired := false
	e.After(time.Second, func() { fired = true }) // reuses the struct
	tm.Cancel()                                   // stale handle: must be a no-op
	e.Run()
	if !fired {
		t.Fatal("stale Timer.Cancel killed a recycled event")
	}
}

// TestScheduleStepAllocationFree pins the engine's steady state: with a warm
// free list, a schedule+dispatch cycle through the handle-free API allocates
// nothing.
func TestScheduleStepAllocationFree(t *testing.T) {
	e := NewEngine()
	noop := func() {}
	for i := 0; i < 8; i++ { // warm the event free list and heap slice
		e.ScheduleAfter(time.Microsecond, noop)
		e.Step()
	}
	allocs := testing.AllocsPerRun(500, func() {
		e.ScheduleAfter(time.Microsecond, noop)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Step allocates %.1f objects per event, want 0", allocs)
	}
}

// BenchmarkEngineSchedule measures the event heap's schedule+dispatch cycle:
// one ScheduleAfter and the Step that fires it, with a standing population
// of pending timers so heap sifts are exercised. With the event free list
// warm it allocates nothing (TestScheduleStepAllocationFree).
func BenchmarkEngineSchedule(b *testing.B) {
	engine := NewEngine()
	noop := func() {}
	for i := 0; i < 256; i++ { // standing population, like in-flight requests
		engine.After(time.Duration(i+1)*time.Hour, noop)
	}
	engine.ScheduleAfter(time.Microsecond, noop) // warm the event free list
	engine.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.ScheduleAfter(time.Microsecond, noop)
		engine.Step()
	}
}
