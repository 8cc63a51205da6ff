package wan

import (
	"testing"
	"time"
)

func TestIntraClusterDelayIsLocal(t *testing.T) {
	m := New(DefaultConfig())
	d := m.OneWayDelay("c1", "c1", 5*time.Second)
	if d != 500*time.Microsecond {
		t.Fatalf("local delay = %v, want 500µs", d)
	}
	if m.BaseRTT("c1", "c1") != time.Millisecond {
		t.Fatalf("local RTT = %v", m.BaseRTT("c1", "c1"))
	}
}

func TestInterClusterDelayNearBase(t *testing.T) {
	m := New(DefaultConfig())
	base := 5 * time.Millisecond // half of 10ms RTT
	for s := 0; s < 600; s++ {
		d := m.OneWayDelay("c1", "c2", time.Duration(s)*time.Second)
		if d < base/2 || d > base*3 {
			t.Fatalf("delay at %ds = %v, outside plausible band around %v", s, d, base)
		}
	}
}

func TestDelayIsDeterministic(t *testing.T) {
	a := New(DefaultConfig())
	b := New(DefaultConfig())
	for s := 0; s < 100; s++ {
		ts := time.Duration(s) * 250 * time.Millisecond
		if a.OneWayDelay("c1", "c3", ts) != b.OneWayDelay("c1", "c3", ts) {
			t.Fatalf("delay not deterministic at %v", ts)
		}
	}
}

func TestDelayVariesOverTime(t *testing.T) {
	m := New(DefaultConfig())
	seen := make(map[time.Duration]bool)
	for s := 0; s < 120; s++ {
		seen[m.OneWayDelay("c1", "c2", time.Duration(s)*time.Second)] = true
	}
	if len(seen) < 20 {
		t.Fatalf("delay took only %d distinct values over 2 minutes; no variability", len(seen))
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfgA := DefaultConfig()
	cfgB := DefaultConfig()
	cfgB.Seed = 99
	a, b := New(cfgA), New(cfgB)
	same := 0
	for s := 0; s < 100; s++ {
		ts := time.Duration(s) * time.Second
		if a.OneWayDelay("c1", "c2", ts) == b.OneWayDelay("c1", "c2", ts) {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("%d/100 identical delays across seeds", same)
	}
}

func TestDelayNeverBelowLocal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BaseRTT = 800 * time.Microsecond // 400 µs a way, under the floor
	m := New(cfg)
	floored := 0
	for s := 0; s < 300; s++ {
		d := m.OneWayDelay("c1", "c2", time.Duration(s)*100*time.Millisecond)
		if d < 500*time.Microsecond {
			t.Fatalf("delay %v fell below the local floor", d)
		}
		if d == 500*time.Microsecond {
			floored++
		}
	}
	if floored == 0 {
		t.Fatal("no delay reached the local floor; the clamp went unexercised")
	}
}

func TestZeroConfigGetsDefaults(t *testing.T) {
	m := New(Config{})
	if m.BaseRTT("a", "b") != 10*time.Millisecond {
		t.Fatalf("BaseRTT = %v, want 10ms default", m.BaseRTT("a", "b"))
	}
}
