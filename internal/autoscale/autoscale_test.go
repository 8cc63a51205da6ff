package autoscale

import (
	"testing"
	"time"

	"l3/internal/backend"
	"l3/internal/sim"
)

// load drives a replica at the given RPS with a constant service time.
func load(engine *sim.Engine, r *backend.Replica, rps float64) interface{ Cancel() } {
	gap := time.Duration(float64(time.Second) / rps)
	return engine.Every(gap, func() {
		r.Serve(func(backend.Result) {})
	})
}

func newReplica(engine *sim.Engine, conc int, svc time.Duration) *backend.Replica {
	return backend.New(engine, sim.NewRand(1), backend.Config{Concurrency: conc},
		func(time.Duration, *sim.Rand) (time.Duration, bool) { return svc, true })
}

func TestScalesUpUnderLoad(t *testing.T) {
	engine := sim.NewEngine()
	// 100 RPS x 100ms = 10 busy workers needed; pool starts at 4 (will
	// queue heavily) and should grow toward ~17 (10/0.6 target).
	r := newReplica(engine, 4, 100*time.Millisecond)
	a := New(engine, r, Config{Min: 4, Max: 64})
	a.Start()
	load(engine, r, 100)
	engine.RunUntil(3 * time.Minute)
	if got := r.Concurrency(); got < 12 || got > 32 {
		t.Fatalf("concurrency = %d, want ~17 after scale-up", got)
	}
	ups, _ := a.ScaleEvents()
	if ups == 0 {
		t.Fatal("no scale-up events")
	}
}

func TestScaleUpRelievesQueueing(t *testing.T) {
	engine := sim.NewEngine()
	r := newReplica(engine, 4, 100*time.Millisecond)
	a := New(engine, r, Config{Min: 4, Max: 64})
	a.Start()
	var last time.Duration
	engine.Every(10*time.Millisecond, func() {
		r.Serve(func(res backend.Result) { last = res.Latency })
	})
	engine.RunUntil(5 * time.Minute)
	if last > 150*time.Millisecond {
		t.Fatalf("latency after scale-up = %v, want near the 100ms service time", last)
	}
}

func TestScaleDownAfterStabilization(t *testing.T) {
	engine := sim.NewEngine()
	// Oversized pool at light load: should shrink, but only after the
	// stabilisation window.
	r := newReplica(engine, 64, 50*time.Millisecond)
	a := New(engine, r, Config{Min: 4, Max: 64})
	a.Start()
	load(engine, r, 20) // needs ~1 worker
	engine.RunUntil(45 * time.Second)
	if r.Concurrency() != 64 {
		t.Fatalf("scaled down before stabilisation window: %d", r.Concurrency())
	}
	engine.RunUntil(10 * time.Minute)
	if got := r.Concurrency(); got > 16 {
		t.Fatalf("concurrency = %d, want shrunk toward the minimum", got)
	}
	_, downs := a.ScaleEvents()
	if downs == 0 {
		t.Fatal("no scale-down events")
	}
}

func TestRespectsBounds(t *testing.T) {
	engine := sim.NewEngine()
	r := newReplica(engine, 8, 200*time.Millisecond)
	a := New(engine, r, Config{Min: 8, Max: 12})
	a.Start()
	load(engine, r, 500) // wants far more than 12
	engine.RunUntil(3 * time.Minute)
	if got := r.Concurrency(); got != 12 {
		t.Fatalf("concurrency = %d, want capped at 12", got)
	}
}

func TestSteadyStateNoFlapping(t *testing.T) {
	engine := sim.NewEngine()
	// 60 RPS x 100ms = 6 busy; pool of 10 => utilisation 0.6 == target.
	r := newReplica(engine, 10, 100*time.Millisecond)
	a := New(engine, r, Config{Min: 4, Max: 64})
	a.Start()
	load(engine, r, 60)
	engine.RunUntil(10 * time.Minute)
	ups, downs := a.ScaleEvents()
	if ups+downs > 2 {
		t.Fatalf("flapping: %d ups, %d downs at steady state", ups, downs)
	}
}

func TestStopHaltsScaling(t *testing.T) {
	engine := sim.NewEngine()
	r := newReplica(engine, 4, 100*time.Millisecond)
	a := New(engine, r, Config{Min: 4, Max: 64})
	a.Start()
	a.Stop()
	load(engine, r, 200)
	engine.RunUntil(2 * time.Minute)
	if r.Concurrency() != 4 {
		t.Fatalf("scaled after Stop: %d", r.Concurrency())
	}
}

func TestNilDepsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil deps did not panic")
		}
	}()
	New(nil, nil, Config{})
}

func TestReplicaSetConcurrencyDrainsQueue(t *testing.T) {
	engine := sim.NewEngine()
	r := newReplica(engine, 1, 100*time.Millisecond)
	done := 0
	for i := 0; i < 5; i++ {
		r.Serve(func(backend.Result) { done++ })
	}
	if r.QueueLen() != 4 {
		t.Fatalf("queue = %d", r.QueueLen())
	}
	r.SetConcurrency(5) // queued work starts immediately
	if r.QueueLen() != 0 {
		t.Fatalf("queue after grow = %d, want drained", r.QueueLen())
	}
	engine.RunUntil(time.Second)
	if done != 5 {
		t.Fatalf("completed = %d", done)
	}
	r.SetConcurrency(0) // clamped to 1
	if r.Concurrency() != 1 {
		t.Fatalf("clamp failed: %d", r.Concurrency())
	}
}

func TestReplicaUtilization(t *testing.T) {
	engine := sim.NewEngine()
	r := newReplica(engine, 4, time.Second)
	if r.Utilization() != 0 {
		t.Fatalf("idle utilization = %v", r.Utilization())
	}
	r.Serve(func(backend.Result) {})
	r.Serve(func(backend.Result) {})
	if r.Utilization() != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", r.Utilization())
	}
	engine.RunUntil(2 * time.Second)
	if r.Utilization() != 0 {
		t.Fatalf("post-drain utilization = %v", r.Utilization())
	}
}
