package resilience

import (
	"testing"
	"time"

	"l3/internal/mesh"
	"l3/internal/metrics"
)

func newBreakerUnderTest(cfg BreakerConfig, backends ...string) *Breaker {
	cfg = Policy{Breaker: cfg}.withDefaults().Breaker
	return NewBreaker(cfg, "api", backends, metrics.NewRegistry())
}

func TestBreakerEjectsAfterConsecutiveFailures(t *testing.T) {
	b := newBreakerUnderTest(BreakerConfig{ConsecutiveFailures: 3, BaseEjection: 5 * time.Second}, "b1", "b2")
	now := time.Duration(0)
	b.Record(now, "b1", false)
	b.Record(now, "b1", true) // success resets the streak
	b.Record(now, "b1", false)
	b.Record(now, "b1", false)
	if !b.Allowed(now, "b1") {
		t.Fatal("ejected before reaching the consecutive-failure threshold")
	}
	b.Record(now, "b1", false)
	if b.Allowed(now, "b1") {
		t.Fatal("not ejected after 3 consecutive failures")
	}
	if b.Allowed(now, "b2") != true || b.EjectedCount(now) != 1 {
		t.Fatal("ejection leaked to the healthy backend")
	}
	// Restored exactly when the window expires, and failure streak resets.
	if b.Allowed(4*time.Second, "b1") {
		t.Fatal("restored before the 5s window expired")
	}
	if !b.Allowed(5*time.Second, "b1") {
		t.Fatal("not restored after the window expired")
	}
	if b.EjectedCount(5*time.Second) != 0 {
		t.Fatal("ejected count not decremented on restore")
	}
}

func TestBreakerEjectionWindowGrowsExponentially(t *testing.T) {
	b := newBreakerUnderTest(BreakerConfig{ConsecutiveFailures: 1, BaseEjection: 5 * time.Second, MaxEjection: 18 * time.Second}, "b1")
	eject := func(now time.Duration) time.Duration {
		b.Record(now, "b1", false)
		st := b.states["b1"]
		if !st.ejected {
			t.Fatalf("not ejected at %v", now)
		}
		return st.until - now
	}
	now := time.Duration(0)
	for i, want := range []time.Duration{5 * time.Second, 10 * time.Second, 18 * time.Second, 18 * time.Second} {
		got := eject(now)
		if got != want {
			t.Fatalf("ejection %d window = %v, want %v", i+1, got, want)
		}
		now += got // advance exactly to the restore point
		if !b.Allowed(now, "b1") {
			t.Fatalf("not restored after window %d", i+1)
		}
	}
}

func TestBreakerMaxEjectionPercent(t *testing.T) {
	b := newBreakerUnderTest(BreakerConfig{ConsecutiveFailures: 1, MaxEjectionPercent: 0.5}, "b1", "b2", "b3", "b4")
	now := time.Duration(0)
	// A correlated fault fails every backend at once: only half may go.
	for _, name := range []string{"b1", "b2", "b3", "b4"} {
		b.Record(now, name, false)
	}
	if got := b.EjectedCount(now); got != 2 {
		t.Fatalf("ejected %d of 4 backends, max-ejection-percent 0.5 allows 2", got)
	}
	if !b.Allowed(now, "b3") || !b.Allowed(now, "b4") {
		t.Fatal("guard failed: more than half the backends ejected")
	}
	if v := b.mDenied.Value(); v != 2 {
		t.Fatalf("denied counter = %v, want 2", v)
	}
	// Even with the threshold at 1, a lone backend set still allows the
	// first ejection (at-least-one rule)…
	lone := newBreakerUnderTest(BreakerConfig{ConsecutiveFailures: 1, MaxEjectionPercent: 0.5}, "b1", "b2")
	lone.Record(now, "b1", false)
	if lone.Allowed(now, "b1") {
		t.Fatal("first ejection must always be allowed")
	}
	// …but never the last backend standing.
	lone.Record(now, "b2", false)
	if !lone.Allowed(now, "b2") {
		t.Fatal("guard ejected the last backend of the service")
	}
}

func TestBreakerCountersConsistent(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := Policy{Breaker: BreakerConfig{ConsecutiveFailures: 1, BaseEjection: time.Second}}.withDefaults().Breaker
	b := NewBreaker(cfg, "api", []string{"b1"}, reg)
	now := time.Duration(0)
	for i := 0; i < 5; i++ {
		b.Record(now, "b1", false)
		st := b.states["b1"]
		now = st.until
		if !b.Allowed(now, "b1") {
			t.Fatalf("cycle %d: not restored at window end", i)
		}
	}
	ej := reg.Counter(MetricBreakerEjectionsTotal, metrics.Labels{"service": "api", "backend": "b1"}).Value()
	re := reg.Counter(MetricBreakerRestoresTotal, metrics.Labels{"service": "api", "backend": "b1"}).Value()
	if ej != 5 || re != 5 {
		t.Fatalf("ejections/restores = %v/%v, want 5/5", ej, re)
	}
}

// TestBreakerFiltersPickerEndToEnd drives the whole composition: a failing
// backend is ejected from the installed round-robin strategy's view within
// a few requests, traffic avoids it during the window, and it returns
// afterwards.
func TestBreakerFiltersPickerEndToEnd(t *testing.T) {
	bad := &scriptServer{latency: time.Millisecond, ok: false}
	good := &scriptServer{latency: time.Millisecond, ok: true}
	rig := newRig(t, map[string]*scriptServer{"bad": bad, "good": good})
	// Deterministic alternation so the bad backend sees traffic quickly.
	if err := rig.mesh.SetPicker("api", &roundRobin{}); err != nil {
		t.Fatal(err)
	}
	err := rig.client.Apply("api", Policy{
		Breaker: BreakerConfig{ConsecutiveFailures: 3, BaseEjection: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, fail := 0, 0
	for i := 0; i < 100; i++ {
		rig.engine.ScheduleAfter(time.Duration(i)*50*time.Millisecond, func() {
			_ = rig.client.Call("cluster-1", "api", func(r Result) {
				if r.Success {
					ok++
				} else {
					fail++
				}
			})
		})
	}
	rig.engine.Run()
	br := rig.client.Breaker("api")
	if br == nil {
		t.Fatal("no breaker installed")
	}
	// 3 failures trip the breaker; a 10s window covers 200 requests, so
	// the bad backend cycles eject → restore → re-eject and absorbs only
	// the probe-like trickle of 3 failures per cycle.
	if fail > 9 {
		t.Fatalf("%d failures in 100 requests, breaker barely helping", fail)
	}
	if bad.served >= 20 {
		t.Fatalf("ejected backend still served %d of 100 requests", bad.served)
	}
	if good.served+bad.served != 100 {
		t.Fatalf("served %d+%d, want 100 total", good.served, bad.served)
	}
}

// roundRobin is a minimal deterministic strategy for composition tests.
type roundRobin struct{ i int }

func (r *roundRobin) Pick(_ time.Duration, _, _ string, bs []*mesh.Backend) *mesh.Backend {
	b := bs[r.i%len(bs)]
	r.i++
	return b
}
