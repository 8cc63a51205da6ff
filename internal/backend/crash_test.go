package backend

import (
	"testing"
	"time"

	"l3/internal/sim"
)

// outcome is one request's result and the virtual time it was delivered;
// calls counts deliveries, which must be exactly one.
type outcome struct {
	res   Result
	at    time.Duration
	calls int
}

// serve sends one request to r and returns where its outcome lands.
func serve(e *sim.Engine, r *Replica) *outcome {
	o := &outcome{}
	r.Serve(func(res Result) { o.res, o.at = res, e.Now(); o.calls++ })
	return o
}

// check fails t unless o was delivered once, at the given time, with the
// given latency and success.
func (o *outcome) check(t *testing.T, what string, at, latency time.Duration, success bool) {
	t.Helper()
	if o.calls != 1 || o.at != at || o.res.Latency != latency || o.res.Success != success || o.res.Rejected {
		t.Errorf("%s: %d deliveries, last at %v with %+v; want one at %v with latency %v, success %v",
			what, o.calls, o.at, o.res, at, latency, success)
	}
}

// A crash fails a queued request at once, with the time it spent queued as
// its latency, and an executing one when its execution time ends: its
// connection died with the deployment. A second Crash changes nothing.
func TestCrashFailsQueuedAtOnceAndExecutingAtItsEnd(t *testing.T) {
	e := sim.NewEngine()
	r := New(e, sim.NewRand(1), Config{Concurrency: 1}, constProfile(100*time.Millisecond))
	executing, queued := serve(e, r), serve(e, r)
	e.RunUntil(30 * time.Millisecond)
	r.Crash()
	r.Crash()
	if r.Inflight() != 0 {
		t.Errorf("Inflight after the crash = %d, want 0", r.Inflight())
	}
	e.RunUntil(time.Second)
	queued.check(t, "queued request", 30*time.Millisecond, 30*time.Millisecond, false)
	executing.check(t, "executing request", 100*time.Millisecond, 100*time.Millisecond, false)
	if r.Served() != 0 {
		t.Errorf("Served = %d, want 0: the crash killed both requests", r.Served())
	}
}

// A request that arrives while the replica is down is refused after
// connRefusedDelay, and never reaches the worker pool.
func TestCrashedReplicaRefusesFast(t *testing.T) {
	e := sim.NewEngine()
	r := New(e, sim.NewRand(1), Config{Concurrency: 1}, constProfile(100*time.Millisecond))
	r.Crash()
	e.RunUntil(50 * time.Millisecond)
	refused := serve(e, r)
	if r.Inflight() != 0 {
		t.Errorf("Inflight with a refused request = %d, want 0", r.Inflight())
	}
	e.RunUntil(time.Second)
	refused.check(t, "refused request", 50*time.Millisecond+connRefusedDelay, connRefusedDelay, false)
	if r.Served() != 0 {
		t.Errorf("Served = %d, want 0", r.Served())
	}
}

// longRequests sends n requests whose execution outlasts the test, so busy
// workers and queue length show the pool's size.
func longRequests(e *sim.Engine, r *Replica, n int) {
	for i := 0; i < n; i++ {
		serve(e, r)
	}
}

// Restart(0) brings the pool back at full concurrency at once, and the
// restarted replica serves again.
func TestRestartWithoutSlowStartIsFullAtOnce(t *testing.T) {
	e := sim.NewEngine()
	r := New(e, sim.NewRand(1), Config{Concurrency: 8}, constProfile(time.Hour))
	r.Crash()
	e.RunUntil(10 * time.Millisecond)
	r.Restart(0)
	longRequests(e, r, 8)
	if r.QueueLen() != 0 || r.Utilization() != 1 {
		t.Errorf("after Restart(0): %d queued at utilization %v, want 8 executing and none queued", r.QueueLen(), r.Utilization())
	}
}

// Restart(d) brings the pool back at a quarter of its concurrency and ramps
// it in three equal steps to full at d, draining the queue as it grows.
func TestRestartRampsToFullConcurrency(t *testing.T) {
	e := sim.NewEngine()
	r := New(e, sim.NewRand(1), Config{Concurrency: 8}, constProfile(time.Hour))
	r.Crash()
	r.Restart(300 * time.Millisecond)
	longRequests(e, r, 8)
	for _, step := range []struct {
		at     time.Duration
		queued int
	}{{0, 6}, {99 * time.Millisecond, 6}, {100 * time.Millisecond, 4}, {200 * time.Millisecond, 2}, {300 * time.Millisecond, 0}} {
		e.RunUntil(step.at)
		if r.QueueLen() != step.queued || r.Inflight() != 8 {
			t.Errorf("at %v: %d queued of %d in flight, want %d of 8", step.at, r.QueueLen(), r.Inflight(), step.queued)
		}
	}
}

// A crash mid-ramp stops the ramp: no step scheduled by the interrupted
// restart resizes the pool, while the replica is down or after it is
// restarted again.
func TestCrashMidRampStopsTheRamp(t *testing.T) {
	e := sim.NewEngine()
	r := New(e, sim.NewRand(1), Config{Concurrency: 8}, constProfile(time.Hour))
	r.Crash()
	r.Restart(300 * time.Millisecond)
	e.RunUntil(150 * time.Millisecond) // the pool is at half
	r.Crash()
	e.RunUntil(160 * time.Millisecond)
	r.Restart(0)
	longRequests(e, r, 8)
	queued, busy := r.QueueLen(), r.Utilization()
	e.RunUntil(time.Second)
	if r.QueueLen() != queued || r.Utilization() != busy {
		t.Errorf("pool resized after a crash stopped the ramp: %d queued at utilization %v, then %d at %v",
			queued, busy, r.QueueLen(), r.Utilization())
	}
}

// Restart on a live replica does nothing: the pool keeps its full size.
func TestRestartOfALiveReplicaIsANoOp(t *testing.T) {
	e := sim.NewEngine()
	r := New(e, sim.NewRand(1), Config{Concurrency: 8}, constProfile(time.Hour))
	r.Restart(300 * time.Millisecond)
	longRequests(e, r, 8)
	e.RunUntil(time.Second)
	if r.QueueLen() != 0 || r.Utilization() != 1 {
		t.Errorf("after Restart on a live replica: %d queued at utilization %v, want 8 executing and none queued", r.QueueLen(), r.Utilization())
	}
}
