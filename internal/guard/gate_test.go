package guard

import (
	"maps"
	"math"
	"testing"
	"time"

	"l3/internal/smi"
)

func newSplit(weights ...int64) *smi.TrafficSplit {
	ts := &smi.TrafficSplit{Name: "t", RootService: "svc"}
	names := []string{"a", "b", "c", "d"}
	for i, w := range weights {
		ts.Backends = append(ts.Backends, smi.Backend{Service: names[i], Weight: w})
	}
	return ts
}

func TestWriteGateRejectsInvalidVectors(t *testing.T) {
	g := NewWriteGate(Config{}, nil)
	ts := newSplit(500, 500)
	cases := []map[string]float64{
		{"a": math.NaN(), "b": 1},
		{"a": math.Inf(1), "b": 1},
		{"a": -1, "b": 1},
		{"a": 0, "b": 0},
		{},
	}
	for i, w := range cases {
		if _, ok := g.Guard(0, ts, w); ok {
			t.Errorf("case %d: invalid vector accepted: %v", i, w)
		}
	}
	if g.RejectedTotal() != float64(len(cases)) {
		t.Fatalf("RejectedTotal = %v, want %d", g.RejectedTotal(), len(cases))
	}
}

func TestWriteGateScalesAndPreservesSum(t *testing.T) {
	g := NewWriteGate(Config{}, nil)
	ts := newSplit(0, 0, 0) // an all-zero split takes the proposal unclamped
	ints, ok := g.Guard(0, ts, map[string]float64{"a": 1, "b": 1, "c": 2})
	if !ok {
		t.Fatal("valid vector suppressed")
	}
	if ints["a"] != 250 || ints["b"] != 250 || ints["c"] != 500 {
		t.Fatalf("ints = %v, want 250/250/500", ints)
	}
	ts, err := ts.WithWeights(ints)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.CheckScaledSum(1000); err != nil {
		t.Fatal(err)
	}
}

func TestWriteGateClampsShareDelta(t *testing.T) {
	g := NewWriteGate(Config{}, nil)
	// Current split: 50/50. Proposal: 90/10 — a 0.4 share move, clamped to
	// 0.25 per round: 75/25.
	ts := newSplit(500, 500)
	ints, ok := g.Guard(0, ts, map[string]float64{"a": 9, "b": 1})
	if !ok {
		t.Fatal("clamped vector suppressed")
	}
	if ints["a"] != 750 || ints["b"] != 250 {
		t.Fatalf("ints = %v, want 750/250", ints)
	}
	if g.ClampedTotal() != 1 {
		t.Fatalf("ClampedTotal = %v, want 1", g.ClampedTotal())
	}
	// Repeated rounds converge to the proposal despite the clamp.
	for i := 0; i < 10; i++ {
		if ints, ok = g.Guard(0, ts, map[string]float64{"a": 9, "b": 1}); ok {
			var err error
			if ts, err = ts.WithWeights(ints); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := ts.Backends[0].Weight; got != 900 {
		t.Fatalf("converged a = %v, want 900", got)
	}
}

func TestWriteGateSuppressesNoOpWrites(t *testing.T) {
	g := NewWriteGate(Config{}, nil)
	ts := newSplit(250, 750)
	if _, ok := g.Guard(0, ts, map[string]float64{"a": 1, "b": 3}); ok {
		t.Fatal("no-op write not suppressed")
	}
	if g.SuppressedTotal() != 1 {
		t.Fatalf("SuppressedTotal = %v, want 1", g.SuppressedTotal())
	}
	// A genuinely different vector still goes through (clamped to 500/500).
	if _, ok := g.Guard(0, ts, map[string]float64{"a": 3, "b": 1}); !ok {
		t.Fatal("changed vector suppressed")
	}
}

func TestWriteGateObserveTracksRounds(t *testing.T) {
	g := NewWriteGate(Config{}, nil)
	if _, ok := g.LastRound(); ok {
		t.Fatal("LastRound before any Observe")
	}
	g.Observe(42 * time.Second)
	if last, ok := g.LastRound(); !ok || last != 42*time.Second {
		t.Fatalf("LastRound = %v, %v", last, ok)
	}
	// Guard itself counts as a round heartbeat.
	g.Guard(50*time.Second, newSplit(1, 1), map[string]float64{"a": 1, "b": 1})
	if last, _ := g.LastRound(); last != 50*time.Second {
		t.Fatalf("LastRound after Guard = %v, want 50s", last)
	}
}

// The gate adds a vector in name order, not in map order: weights 0.002,
// 0.019 and 0.059 scale to 25/238/738 added a, b, c, and to 25/238/737 added
// a, c, b, so the two orders are two different writes.
func TestWriteGateIsOneResultWhateverTheMapOrder(t *testing.T) {
	want := map[string]int64{"a": 25, "b": 238, "c": 738}
	for i := 0; i < 200; i++ {
		g := NewWriteGate(Config{}, nil)
		ints, ok := g.Guard(0, newSplit(0, 0, 0), map[string]float64{"a": 0.002, "b": 0.019, "c": 0.059})
		if !ok {
			t.Fatal("valid vector suppressed")
		}
		if !maps.Equal(ints, want) {
			t.Fatalf("call %d wrote %v, want %v (the name order's sum)", i, ints, want)
		}
	}
}
