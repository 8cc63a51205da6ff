package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l3/internal/sim"
)

// TestSimAdapterForwards pins the engine's own Clock methods: a schedule made
// through the interface fires at the engine's times and in its order, and a
// cancelled Every leaves nothing pending.
func TestSimAdapterForwards(t *testing.T) {
	e := sim.NewEngine()
	var c Clock = e
	var fired []time.Duration
	c.After(10*time.Millisecond, func() { fired = append(fired, c.Now()) })
	c.After(5*time.Millisecond, func() { fired = append(fired, c.Now()) })
	tick := 0
	var every Timer
	every = c.Every(20*time.Millisecond, func() {
		fired = append(fired, c.Now())
		tick++
		if tick == 2 {
			every.Cancel()
		}
	})
	e.RunUntil(time.Second)
	want := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired[%d] = %v, want %v", i, fired[i], want[i])
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("cancelled Every left %d events pending (cancelled events are lazily popped)", e.Pending())
	}
}

// TestSimAdapterCancel pins that cancelling the Timer the engine hands out
// through the Clock interface reaches the engine event.
func TestSimAdapterCancel(t *testing.T) {
	e := sim.NewEngine()
	var c Clock = e
	ran := false
	timer := c.After(time.Millisecond, func() { ran = true })
	timer.Cancel()
	e.RunUntil(time.Second)
	if ran {
		t.Fatal("cancelled callback ran")
	}
}

func TestWallAfterFires(t *testing.T) {
	w := NewWall()
	defer w.Stop()
	done := make(chan time.Duration, 1)
	w.After(10*time.Millisecond, func() { done <- w.Now() })
	select {
	case at := <-done:
		if at < 10*time.Millisecond {
			t.Fatalf("fired at %v, before its 10ms due time", at)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("After callback never fired")
	}
}

func TestWallEveryReschedulesAndCancels(t *testing.T) {
	w := NewWall()
	defer w.Stop()
	var n atomic.Int32
	fired := make(chan struct{}, 16)
	timer := w.Every(5*time.Millisecond, func() {
		n.Add(1)
		select {
		case fired <- struct{}{}:
		default:
		}
	})
	for i := 0; i < 3; i++ {
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatalf("tick %d never fired", i)
		}
	}
	timer.Cancel()
	after := n.Load()
	time.Sleep(50 * time.Millisecond)
	if got := n.Load(); got > after+1 {
		// One tick may have been in flight at Cancel; more means the
		// reschedule ignored cancellation.
		t.Fatalf("ticks kept firing after Cancel: %d -> %d", after, got)
	}
}

// TestWallCallbacksSerialized pins the core contract: no two callbacks of
// one Wall run concurrently, so sim-written components need no locks.
func TestWallCallbacksSerialized(t *testing.T) {
	w := NewWall()
	defer w.Stop()
	var inside atomic.Int32
	var overlaps atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		w.After(time.Duration(i%3)*time.Millisecond, func() {
			defer wg.Done()
			if inside.Add(1) != 1 {
				overlaps.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
			inside.Add(-1)
		})
	}
	wg.Wait()
	if overlaps.Load() != 0 {
		t.Fatalf("%d callbacks overlapped", overlaps.Load())
	}
}

// TestWallScheduleFromCallback pins that After/Every/Cancel are legal inside
// a callback (the health checker schedules probe timeouts there).
func TestWallScheduleFromCallback(t *testing.T) {
	w := NewWall()
	defer w.Stop()
	done := make(chan struct{})
	w.After(time.Millisecond, func() {
		inner := w.After(time.Hour, func() { t.Error("cancelled inner timer fired") })
		inner.Cancel()
		w.After(time.Millisecond, func() { close(done) })
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("nested schedule never fired")
	}
}

// TestWallStopSilences pins that Stop is a barrier: once it returns, no
// callback runs, even ones already due.
func TestWallStopSilences(t *testing.T) {
	w := NewWall()
	var ran atomic.Int32
	for i := 0; i < 16; i++ {
		w.After(time.Duration(i)*time.Millisecond, func() { ran.Add(1) })
	}
	w.Stop()
	snapshot := ran.Load()
	time.Sleep(40 * time.Millisecond)
	if got := ran.Load(); got != snapshot {
		t.Fatalf("callbacks ran after Stop returned: %d -> %d", snapshot, got)
	}
}

// TestWallDoSerializes pins that Do excludes callbacks while it runs.
func TestWallDoSerializes(t *testing.T) {
	w := NewWall()
	defer w.Stop()
	var inside atomic.Int32
	var overlaps atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		w.After(time.Millisecond, func() {
			defer wg.Done()
			if inside.Add(1) != 1 {
				overlaps.Add(1)
			}
			time.Sleep(time.Millisecond)
			inside.Add(-1)
		})
	}
	for i := 0; i < 50; i++ {
		w.Do(func() {
			if inside.Add(1) != 1 {
				overlaps.Add(1)
			}
			inside.Add(-1)
		})
	}
	wg.Wait()
	if overlaps.Load() != 0 {
		t.Fatalf("%d overlaps between Do and callbacks", overlaps.Load())
	}
}
