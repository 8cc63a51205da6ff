package guard

import (
	"testing"
	"time"

	"l3/internal/sim"
	"l3/internal/smi"
)

func TestWatchdogDegradesStalledSplit(t *testing.T) {
	engine := sim.NewEngine()
	splits := smi.NewStore()
	ts := newSplit(900, 100)
	if err := splits.Create(ts); err != nil {
		t.Fatal(err)
	}
	gate := NewWriteGate(Config{}, nil)
	w := NewWatchdog(engine, splits, Config{}, nil, nil, gate) // TTL six 5s intervals
	w.Start()

	// Rounds keep coming for a minute: no degrade.
	stop := engine.Every(5*time.Second, func() {
		if engine.Now() <= time.Minute {
			gate.Observe(engine.Now())
		}
	})
	defer stop.Cancel()
	engine.RunUntil(time.Minute)
	if w.Degraded() || w.DegradesTotal() != 0 {
		t.Fatalf("degraded while rounds flowing: %v/%v", w.Degraded(), w.DegradesTotal())
	}

	// Rounds stop at 1m; the TTL expires at 1m30s.
	engine.RunUntil(2 * time.Minute)
	if !w.Degraded() {
		t.Fatal("watchdog did not degrade after stall")
	}
	if w.DegradesTotal() != 1 {
		t.Fatalf("DegradesTotal = %v, want 1 (baseline written once per stall)", w.DegradesTotal())
	}
	got, _ := splits.Get("t")
	if got.Backends[0].Weight != 500 || got.Backends[1].Weight != 500 {
		t.Fatalf("degraded split = %v, want uniform 500/500", got.Backends)
	}
}

func TestWatchdogRearmsAfterRoundsResume(t *testing.T) {
	engine := sim.NewEngine()
	splits := smi.NewStore()
	if err := splits.Create(newSplit(900, 100)); err != nil {
		t.Fatal(err)
	}
	gate := NewWriteGate(Config{}, nil)
	w := NewWatchdog(engine, splits, Config{Interval: 2 * time.Second}, nil, nil, gate) // TTL 12s
	w.Start()

	engine.RunUntil(time.Minute)
	if !w.Degraded() {
		t.Fatal("no degrade (grace period never expired?)")
	}
	got, _ := splits.Get("t")
	if got.Backends[0].Weight != 500 || got.Backends[1].Weight != 500 {
		t.Fatalf("degraded split = %v, want uniform 500/500", got.Backends)
	}

	// Rounds resume: the watchdog re-arms, and a second stall degrades again
	// at the first check (every 4s) more than the TTL after the last round.
	last := engine.Now() + time.Second
	engine.At(last, func() { gate.Observe(engine.Now()) })
	engine.RunUntil(last + 4*time.Second)
	if w.Degraded() {
		t.Fatal("watchdog did not re-arm after rounds resumed")
	}
	engine.RunUntil(last + 12*time.Second)
	if w.DegradesTotal() != 1 {
		t.Fatalf("DegradesTotal = %v within the 12s TTL of the last round, want 1", w.DegradesTotal())
	}
	engine.RunUntil(last + 16*time.Second)
	if w.DegradesTotal() != 2 {
		t.Fatalf("DegradesTotal = %v a check past the TTL, want 2 after second stall", w.DegradesTotal())
	}
}

func TestWatchdogFilterLimitsScope(t *testing.T) {
	engine := sim.NewEngine()
	splits := smi.NewStore()
	managed := newSplit(900, 100)
	other := &smi.TrafficSplit{Name: "other", RootService: "o",
		Backends: []smi.Backend{{Service: "x", Weight: 7}}}
	if err := splits.Create(managed); err != nil {
		t.Fatal(err)
	}
	if err := splits.Create(other); err != nil {
		t.Fatal(err)
	}
	gate := NewWriteGate(Config{}, nil)
	w := NewWatchdog(engine, splits, Config{Interval: 2 * time.Second}, nil,
		func(name string) bool { return name == "t" }, gate)
	w.Start()
	engine.RunUntil(time.Minute)
	got, _ := splits.Get("other")
	if got.Backends[0].Weight != 7 {
		t.Fatalf("filtered-out split mutated: %v", got.Backends)
	}
	got, _ = splits.Get("t")
	if got.Backends[0].Weight != 500 {
		t.Fatalf("managed split not degraded: %v", got.Backends)
	}
}
