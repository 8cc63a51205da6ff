package guard

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"l3/internal/core"
)

// spyAssigner records the backends it was asked about and returns canned
// weights (default 1) so tests can observe exactly what reaches the inner
// algorithm.
type spyAssigner struct {
	calls   []map[string]core.BackendMetrics
	weights map[string]float64
	forgot  []string
}

func (s *spyAssigner) Assign(now time.Duration, m map[string]core.BackendMetrics) map[string]float64 {
	s.calls = append(s.calls, m)
	out := make(map[string]float64, len(m))
	for b := range m {
		if w, ok := s.weights[b]; ok {
			out[b] = w
		} else {
			out[b] = 1
		}
	}
	return out
}

func (s *spyAssigner) Forget(b string) { s.forgot = append(s.forgot, b) }

func (s *spyAssigner) lastCall(t *testing.T) []string {
	t.Helper()
	if len(s.calls) == 0 {
		t.Fatal("inner assigner never called")
	}
	var names []string
	for b := range s.calls[len(s.calls)-1] {
		names = append(names, b)
	}
	sort.Strings(names)
	return names
}

func fresh(at time.Duration) core.BackendMetrics {
	return core.BackendMetrics{HasTraffic: true, RPS: 10, LastSample: at}
}

func TestAssignerFreshPassesThrough(t *testing.T) {
	inner := &spyAssigner{weights: map[string]float64{"a": 2, "b": 3}}
	a := NewAssigner(inner, Config{}, nil)
	now := 60 * time.Second
	out := a.Assign(now, map[string]core.BackendMetrics{
		"a": fresh(now), "b": fresh(now),
	})
	if out["a"] != 2 || out["b"] != 3 {
		t.Fatalf("out = %v, want inner weights 2/3", out)
	}
	if got := inner.lastCall(t); len(got) != 2 {
		t.Fatalf("inner saw %v, want both backends", got)
	}
}

func TestAssignerHoldsStaleBackend(t *testing.T) {
	inner := &spyAssigner{weights: map[string]float64{"a": 2, "b": 8}}
	a := NewAssigner(inner, Config{}, nil)

	// Round 1: both fresh, weights land at 2/8.
	now := 60 * time.Second
	a.Assign(now, map[string]core.BackendMetrics{"a": fresh(now), "b": fresh(now)})

	// Round 2: b's data is 20s old — past three 5s intervals, not six:
	// stale. Inner only sees a; b holds 8.
	now = 80 * time.Second
	inner.weights["a"] = 4
	out := a.Assign(now, map[string]core.BackendMetrics{
		"a": fresh(now), "b": fresh(60 * time.Second),
	})
	if got := inner.lastCall(t); len(got) != 1 || got[0] != "a" {
		t.Fatalf("inner saw %v, want only a", got)
	}
	if out["a"] != 4 || out["b"] != 8 {
		t.Fatalf("out = %v, want a=4 (fresh), b=8 (held)", out)
	}
	if a.holds.Value() != 1 {
		t.Fatalf("holds = %v, want 1", a.holds.Value())
	}
}

func TestAssignerStarvedAndResetSeenHold(t *testing.T) {
	inner := &spyAssigner{}
	// Two fresh backends of four meet the half quorum, so the round stays
	// live and the degraded backends hold individually.
	a := NewAssigner(inner, Config{}, nil)
	now := 60 * time.Second
	a.Assign(now, map[string]core.BackendMetrics{"a": fresh(now), "b": fresh(now), "c": fresh(now), "d": fresh(now)})

	now = 65 * time.Second
	starved := core.BackendMetrics{LastSample: now, Starved: true}
	resetSeen := fresh(now)
	resetSeen.ResetSeen = true
	a.Assign(now, map[string]core.BackendMetrics{"a": starved, "b": resetSeen, "c": fresh(now), "d": fresh(now)})
	if got := inner.lastCall(t); len(got) != 2 || got[0] != "c" || got[1] != "d" {
		t.Fatalf("inner saw %v, want only c and d (a starved, b reset-seen)", got)
	}
	if a.holds.Value() != 2 {
		t.Fatalf("holds = %v, want 2", a.holds.Value())
	}
}

func TestAssignerBlindDecaysTowardBaseline(t *testing.T) {
	inner := &spyAssigner{weights: map[string]float64{"a": 9, "b": 1}}
	a := NewAssigner(inner, Config{}, nil) // one fresh of two meets the half quorum
	now := 60 * time.Second
	a.Assign(now, map[string]core.BackendMetrics{"a": fresh(now), "b": fresh(now)})

	// b blind (40s > six 5s intervals): its weight decays toward the anchor
	// (mean held = 5).
	now = 100 * time.Second
	out := a.Assign(now, map[string]core.BackendMetrics{
		"a": fresh(now), "b": fresh(60 * time.Second),
	})
	// cur=1, anchor=5, decay step 0.2 -> 1.8.
	if math.Abs(out["b"]-1.8) > 1e-9 {
		t.Fatalf("blind weight = %v, want 1.8 (1 + 0.2*(5-1))", out["b"])
	}
	if a.decays.Value() != 1 {
		t.Fatalf("decays = %v, want 1", a.decays.Value())
	}

	// Repeated blindness converges to uniform: the gap to a shrinks by a
	// tenth a round (the anchor is the mean of a and b).
	for i := 0; i < 60; i++ {
		now += 5 * time.Second
		out = a.Assign(now, map[string]core.BackendMetrics{
			"a": fresh(now), "b": fresh(60 * time.Second),
		})
	}
	// Anchor moves as held weights change; the fixed point is uniform:
	// b's weight pulled to the mean of {9, b} means b -> 9.
	if math.Abs(out["b"]-out["a"]) > 0.1 {
		t.Fatalf("decay fixed point: a=%v b=%v, want converged", out["a"], out["b"])
	}
}

// TestGuardThresholdsFollowTheInterval: stale and blind are three and six
// scrape intervals, whatever the interval. At 250ms a backend whose newest
// sample is 1s old holds and one 2s old decays; at the 5s default both ages
// are fresh.
func TestGuardThresholdsFollowTheInterval(t *testing.T) {
	for _, tt := range []struct {
		cfg           Config
		inner         []string // what reaches the inner assigner, sorted
		holds, decays float64
	}{
		{Config{Interval: 250 * time.Millisecond}, []string{"a", "b"}, 1, 1},
		{Config{}, []string{"a", "b", "decayed", "held"}, 0, 0},
	} {
		inner := &spyAssigner{}
		a := NewAssigner(inner, tt.cfg, nil)
		now := 60 * time.Second
		a.Assign(now, map[string]core.BackendMetrics{
			"a": fresh(now), "b": fresh(now), "held": fresh(now), "decayed": fresh(now),
		})
		last := now
		now += 2 * time.Second
		// Two fresh backends of four meet the half quorum.
		a.Assign(now, map[string]core.BackendMetrics{
			"a": fresh(now), "b": fresh(now),
			"held": fresh(now - time.Second), "decayed": fresh(last),
		})
		if got := inner.lastCall(t); !slices.Equal(got, tt.inner) {
			t.Errorf("interval %v: inner saw %v, want %v", tt.cfg.Interval, got, tt.inner)
		}
		if a.holds.Value() != tt.holds || a.decays.Value() != tt.decays {
			t.Errorf("interval %v: holds, decays = %v, %v; want %v, %v",
				tt.cfg.Interval, a.holds.Value(), a.decays.Value(), tt.holds, tt.decays)
		}
	}
}

func TestAssignerQuorumFreeze(t *testing.T) {
	inner := &spyAssigner{weights: map[string]float64{"a": 2, "b": 4, "c": 6}}
	a := NewAssigner(inner, Config{}, nil)
	now := 60 * time.Second
	all := map[string]core.BackendMetrics{"a": fresh(now), "b": fresh(now), "c": fresh(now)}
	a.Assign(now, all)
	innerCalls := len(inner.calls)

	// 1 fresh of 3 < 0.5 quorum: the round freezes, the inner assigner is
	// not consulted, every backend keeps its held weight.
	now = 80 * time.Second
	old := fresh(60 * time.Second)
	out := a.Assign(now, map[string]core.BackendMetrics{
		"a": fresh(now), "b": old, "c": old,
	})
	if len(inner.calls) != innerCalls {
		t.Fatal("inner assigner consulted during a frozen round")
	}
	if out["a"] != 2 || out["b"] != 4 || out["c"] != 6 {
		t.Fatalf("frozen round = %v, want held 2/4/6", out)
	}
	if a.FrozenRounds() != 1 {
		t.Fatalf("FrozenRounds = %v, want 1", a.FrozenRounds())
	}

	// 2 fresh of 3 passes quorum again: b is stale (held), a and c fresh.
	now = 85 * time.Second
	out = a.Assign(now, map[string]core.BackendMetrics{
		"a": fresh(now), "b": old, "c": fresh(now),
	})
	if len(inner.calls) != innerCalls+1 {
		t.Fatal("inner assigner not consulted after quorum recovered")
	}
	if out["b"] != 4 {
		t.Fatalf("stale b = %v, want held 4", out["b"])
	}
}

func TestAssignerColdStartPassesThrough(t *testing.T) {
	inner := &spyAssigner{}
	a := NewAssigner(inner, Config{}, nil)
	// Never-scraped backends (LastSample 0) are fresh by definition: no
	// quorum freeze, the inner assigner's cold-start behaviour applies.
	out := a.Assign(0, map[string]core.BackendMetrics{"a": {}, "b": {}})
	if len(out) != 2 || a.FrozenRounds() != 0 {
		t.Fatalf("cold start: out=%v frozen=%v", out, a.FrozenRounds())
	}
	if got := inner.lastCall(t); len(got) != 2 {
		t.Fatalf("inner saw %v, want both", got)
	}
}

func TestAssignerForget(t *testing.T) {
	inner := &spyAssigner{}
	a := NewAssigner(inner, Config{}, nil)
	now := 60 * time.Second
	a.Assign(now, map[string]core.BackendMetrics{"a": fresh(now)})
	a.Forget("a")
	if len(inner.forgot) != 1 || inner.forgot[0] != "a" {
		t.Fatalf("inner.forgot = %v", inner.forgot)
	}
	if _, ok := a.held["a"]; ok {
		t.Fatal("held weight survived Forget")
	}
}
