package chaos

import (
	"testing"
	"time"

	"l3/internal/clock"
	"l3/internal/sim"
)

// fakeWallBackend records the fault setters' trajectory.
type fakeWallBackend struct {
	stalled, resetting bool
	slowLoris          time.Duration
	errorRate          float64
	extra              time.Duration
	extraHistory       []time.Duration
	resetToggles       int
}

func (f *fakeWallBackend) SetStalled(on bool)   { f.stalled = on }
func (f *fakeWallBackend) SetResetting(on bool) { f.resetting = on; f.resetToggles++ }
func (f *fakeWallBackend) SetSlowLoris(d time.Duration) {
	f.slowLoris = d
}
func (f *fakeWallBackend) SetErrorRate(r float64) { f.errorRate = r }
func (f *fakeWallBackend) SetExtraLatency(d time.Duration) {
	f.extra = d
	f.extraHistory = append(f.extraHistory, d)
}

type fakeWallScraper struct {
	dropping    bool
	garbageOn   bool
	garbageMode string
	skew        time.Duration
	slowFactor  int
}

func (f *fakeWallScraper) SetDropping(on bool)     { f.dropping = on }
func (f *fakeWallScraper) SetSkew(d time.Duration) { f.skew = d }
func (f *fakeWallScraper) SetSlowFactor(n int)     { f.slowFactor = n }
func (f *fakeWallScraper) SetGarbage(backend, mode string, on bool) {
	f.garbageOn = on
	f.garbageMode = mode
}

// runWall executes a schedule against fakes on the deterministic sim clock
// (the runner only sees clock.Clock, so virtual time exercises exactly the
// wall code paths).
func runWall(t *testing.T, sched string, until time.Duration) (*fakeWallBackend, *fakeWallScraper, *WallRunner, *sim.Engine) {
	t.Helper()
	s, err := ParseSchedule(sched)
	if err != nil {
		t.Fatalf("parse %q: %v", sched, err)
	}
	e := sim.NewEngine()
	b := &fakeWallBackend{}
	sc := &fakeWallScraper{}
	r := NewWallRunner(clock.Sim(e), *s, WallTargets{
		Backends: map[string]WallBackend{"api-a": b},
		Scrapers: []ScrapeGate{sc},
	}, 0)
	if err := r.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	e.RunUntil(until)
	return b, sc, r, e
}

func TestWallRunnerStallInjectHeal(t *testing.T) {
	e := sim.NewEngine()
	b := &fakeWallBackend{}
	s, err := ParseSchedule("stall@2s+3s:api-a")
	if err != nil {
		t.Fatal(err)
	}
	r := NewWallRunner(clock.Sim(e), *s, WallTargets{Backends: map[string]WallBackend{"api-a": b}}, 0)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(2500 * time.Millisecond)
	if !b.stalled {
		t.Fatal("stall not injected at 2s")
	}
	e.RunUntil(6 * time.Second)
	if b.stalled {
		t.Fatal("stall not healed at 5s")
	}
	if r.Applied() != 1 || r.Healed() != 1 {
		t.Fatalf("applied=%d healed=%d, want 1/1", r.Applied(), r.Healed())
	}
}

func TestWallRunnerAllKinds(t *testing.T) {
	sched := "reset@1s+1s:api-a; slowloris@3s+1s:api-a/50ms; errorburst@5s+1s:api-a/0.8; scrapedrop@7s+1s; garbage@9s+1s:nan/api-a; " +
		"clockskew@11s+1s:2s; slowscrape@13s+1s:3"
	b, sc, _, e := runWall(t, sched, 1500*time.Millisecond)
	if !b.resetting {
		t.Fatal("reset not injected")
	}
	e.RunUntil(3500 * time.Millisecond)
	if b.resetting {
		t.Fatal("reset not healed")
	}
	if b.slowLoris != 50*time.Millisecond {
		t.Fatalf("slowloris = %v, want 50ms", b.slowLoris)
	}
	e.RunUntil(5500 * time.Millisecond)
	if b.slowLoris != 0 {
		t.Fatal("slowloris not healed")
	}
	if b.errorRate != 0.8 {
		t.Fatalf("errorRate = %v, want 0.8", b.errorRate)
	}
	e.RunUntil(7500 * time.Millisecond)
	if b.errorRate != 0 {
		t.Fatal("errorburst not healed")
	}
	if !sc.dropping {
		t.Fatal("scrapedrop not injected")
	}
	e.RunUntil(9500 * time.Millisecond)
	if sc.dropping {
		t.Fatal("scrapedrop not healed")
	}
	if !sc.garbageOn || sc.garbageMode != "nan" {
		t.Fatalf("garbage on=%v mode=%q, want on/nan", sc.garbageOn, sc.garbageMode)
	}
	e.RunUntil(11500 * time.Millisecond)
	if sc.garbageOn {
		t.Fatal("garbage not healed")
	}
	if sc.skew != 2*time.Second {
		t.Fatalf("skew = %v, want 2s", sc.skew)
	}
	e.RunUntil(13500 * time.Millisecond)
	if sc.skew != 0 {
		t.Fatal("clockskew not healed")
	}
	if sc.slowFactor != 3 {
		t.Fatalf("slow factor = %d, want 3", sc.slowFactor)
	}
	e.RunUntil(15 * time.Second)
	if sc.slowFactor != 0 {
		t.Fatal("slowscrape not healed")
	}
}

func TestWallRunnerRampIsMonotonic(t *testing.T) {
	b, _, _, _ := runWall(t, "ramp@1s+2s:api-a/400ms", 4*time.Second)
	if len(b.extraHistory) < 3 {
		t.Fatalf("ramp produced %d steps, want several", len(b.extraHistory))
	}
	// Steps rise monotonically until the heal resets to zero.
	last := b.extraHistory[len(b.extraHistory)-1]
	if last != 0 {
		t.Fatalf("final extra = %v, want 0 after heal", last)
	}
	prev := time.Duration(-1)
	for _, v := range b.extraHistory[:len(b.extraHistory)-1] {
		if v < prev {
			t.Fatalf("ramp went backwards: %v after %v (history %v)", v, prev, b.extraHistory)
		}
		prev = v
	}
	if prev < 300*time.Millisecond {
		t.Fatalf("ramp peaked at %v, want near 400ms", prev)
	}
}

func TestWallRunnerFlapTogglesAndHeals(t *testing.T) {
	b, _, _, _ := runWall(t, "bflap@1s+5s:api-a/1s", 10*time.Second)
	if b.resetting {
		t.Fatal("flap not healed")
	}
	if b.resetToggles < 4 {
		t.Fatalf("flap toggled %d times over a 5s window at 1s period, want >= 4", b.resetToggles)
	}
}

func TestWallRunnerStopHealsEverything(t *testing.T) {
	b, sc, r, _ := runWall(t, "stall@1s:api-a; scrapedrop@1s", 2*time.Second)
	if !b.stalled || !sc.dropping {
		t.Fatal("faults not injected before stop")
	}
	r.Stop()
	if b.stalled || sc.dropping {
		t.Fatal("Stop left faults active")
	}
}

func TestWallRunnerRejectsUnknownTargetsAndSimKinds(t *testing.T) {
	e := sim.NewEngine()
	s, err := ParseSchedule("stall@1s+1s:nope")
	if err != nil {
		t.Fatal(err)
	}
	r := NewWallRunner(clock.Sim(e), *s, WallTargets{Backends: map[string]WallBackend{"api-a": &fakeWallBackend{}}}, 0)
	if err := r.Start(); err == nil {
		t.Fatal("unknown backend accepted")
	}
	s2, err := ParseSchedule("partition@1s+1s:c1/c2")
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewWallRunner(clock.Sim(e), *s2, WallTargets{}, 0)
	if err := r2.Start(); err == nil {
		t.Fatal("sim-only kind accepted by wall runner")
	}
}

func TestSimInjectorRejectsWallKinds(t *testing.T) {
	e := sim.NewEngine()
	s, err := ParseSchedule("reset@1s+1s:api-a")
	if err != nil {
		t.Fatal(err)
	}
	in := New(e, *s, Targets{}, 0)
	if err := in.Start(); err == nil {
		t.Fatal("sim injector accepted a wall-clock fault kind")
	}
}
