package guard

import (
	"math"
	"testing"
	"time"

	"l3/internal/metrics"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

func TestHygieneRejectsGarbageValues(t *testing.T) {
	h := NewHygiene(Config{}, nil)
	lbl := metrics.Labels{"backend": "b"}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -0.001} {
		if _, ok := h.Admit("m", lbl, metrics.KindCounter, sec(5), v); ok {
			t.Errorf("Admit(%v) accepted", v)
		}
	}
	if got := h.RejectedTotal(); got != 5 {
		t.Fatalf("RejectedTotal = %v, want 5", got)
	}
	if _, ok := h.Admit("m", lbl, metrics.KindCounter, sec(5), 10); !ok {
		t.Fatal("clean sample rejected")
	}
}

func TestHygieneDuplicateAndOutOfOrder(t *testing.T) {
	h := NewHygiene(Config{}, nil)
	lbl := metrics.Labels{"backend": "b"}
	if _, ok := h.Admit("m", lbl, metrics.KindCounter, sec(5), 10); !ok {
		t.Fatal("first sample rejected")
	}
	// Duplicate timestamp: first write wins, even with a different value.
	if _, ok := h.Admit("m", lbl, metrics.KindCounter, sec(5), 11); ok {
		t.Fatal("duplicate timestamp accepted")
	}
	// Out of order: the frontier only moves forward.
	if _, ok := h.Admit("m", lbl, metrics.KindCounter, sec(4), 12); ok {
		t.Fatal("out-of-order sample accepted")
	}
	// The frontier itself is untouched: the next in-order sample works.
	if v, ok := h.Admit("m", lbl, metrics.KindCounter, sec(10), 20); !ok || v != 20 {
		t.Fatalf("in-order sample after rejections: %v, %v", v, ok)
	}
	if got := h.RejectedTotal(); got != 2 {
		t.Fatalf("RejectedTotal = %v, want 2", got)
	}
}

func TestHygieneSplicesCounterReset(t *testing.T) {
	h := NewHygiene(Config{}, nil)
	lbl := metrics.Labels{"backend": "b"}
	admit := func(at int, v float64) float64 {
		t.Helper()
		got, ok := h.Admit("m", lbl, metrics.KindCounter, sec(at), v)
		if !ok {
			t.Fatalf("Admit(t=%ds, v=%v) rejected", at, v)
		}
		return got
	}
	admit(5, 100)
	admit(10, 200)
	// Restart: the counter re-exposes from ~0. Spliced onto the offset the
	// stored series keeps increasing.
	if got := admit(15, 50); got != 250 {
		t.Fatalf("spliced value = %v, want 250 (200 offset + 50)", got)
	}
	if got := admit(20, 150); got != 350 {
		t.Fatalf("post-reset value = %v, want 350", got)
	}
	if h.ResetsTotal() != 1 {
		t.Fatalf("ResetsTotal = %v, want 1", h.ResetsTotal())
	}
	// A second reset stacks offsets.
	if got := admit(25, 10); got != 360 {
		t.Fatalf("second splice = %v, want 360 (350 offset + 10)", got)
	}
	rt, ok := h.LastReset(metrics.Labels{"backend": "b"})
	if !ok || rt != sec(25) {
		t.Fatalf("LastReset = %v, %v; want 25s", rt, ok)
	}
	if _, ok := h.LastReset(metrics.Labels{"backend": "other"}); ok {
		t.Fatal("LastReset matched a different backend")
	}
}

func TestHygieneShallowDecreaseIsAnomalyNotReset(t *testing.T) {
	h := NewHygiene(Config{}, nil)
	lbl := metrics.Labels{"backend": "b"}
	h.Admit("m", lbl, metrics.KindCounter, sec(5), 1000)
	// 900 is 90% of the previous value: restarted counters re-expose near
	// zero, so this is a corrupt sample. Raw increase() would have treated
	// it as a reset and added 900 to the window's delta.
	if _, ok := h.Admit("m", lbl, metrics.KindCounter, sec(10), 900); ok {
		t.Fatal("shallow decrease accepted")
	}
	if h.ResetsTotal() != 0 {
		t.Fatalf("shallow decrease counted as reset")
	}
	// The frontier keeps the last good value: a resumed counter continues.
	if v, ok := h.Admit("m", lbl, metrics.KindCounter, sec(15), 1100); !ok || v != 1100 {
		t.Fatalf("resumed sample: %v, %v", v, ok)
	}
}

func TestHygieneGaugesMayDecrease(t *testing.T) {
	h := NewHygiene(Config{}, nil)
	lbl := metrics.Labels{"backend": "b"}
	h.Admit("g", lbl, metrics.KindGauge, sec(5), 10)
	if v, ok := h.Admit("g", lbl, metrics.KindGauge, sec(10), 2); !ok || v != 2 {
		t.Fatalf("gauge decrease: %v, %v; want 2, true", v, ok)
	}
	if h.ResetsTotal() != 0 || h.RejectedTotal() != 0 {
		t.Fatal("gauge decrease miscounted as reset or rejection")
	}
}

func TestHygieneCountersInRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	h := NewHygiene(Config{}, reg)
	h.Admit("m", nil, metrics.KindCounter, sec(5), math.NaN())
	if got := reg.Counter(MetricRejectedTotal, metrics.Labels{"reason": "nan"}).Value(); got != 1 {
		t.Fatalf("registry nan rejection counter = %v, want 1", got)
	}
}

// Two label sets filed under one hash keep separate states: the lookup
// confirms with Equal and walks the chain.
func TestHygieneKeepsCollidingLabelSetsApart(t *testing.T) {
	h := NewHygiene(Config{}, nil)
	a, b := metrics.Labels{"backend": "a"}, metrics.Labels{"backend": "b"}
	const hash = 42
	sa, created := h.state("response_total", hash, a)
	if !created {
		t.Fatal("first sight of a not reported as created")
	}
	sb, created := h.state("response_total", hash, b)
	if !created || sb == sa {
		t.Fatal("b, colliding with a, was handed a's state")
	}
	if got, created := h.state("response_total", hash, a); created || got != sa {
		t.Fatal("a not found behind b in the chain")
	}
	if got, created := h.state("response_total", hash, b); created || got != sb {
		t.Fatal("b not found at the head of the chain")
	}
	if got, created := h.state("other_total", hash, a); !created || got == sa {
		t.Fatal("the same labels under another metric name shared a state")
	}
}

// LastReset looks only at series that have spliced a reset, and still
// answers by subset match with the newest splice.
func TestHygieneLastResetConsultsOnlyResetSeries(t *testing.T) {
	h := NewHygiene(Config{}, nil)
	for i := 0; i < 50; i++ {
		l := metrics.Labels{"backend": "steady", "shard": string(rune('a' + i%26)), "n": string(rune('0' + i/26))}
		h.Admit("response_total", l, metrics.KindCounter, sec(1), 100)
		h.Admit("response_total", l, metrics.KindCounter, sec(2), 200)
	}
	if _, ok := h.LastReset(nil); ok || len(h.reset) != 0 {
		t.Fatalf("no series reset, LastReset ok=%v over %d candidates", ok, len(h.reset))
	}
	succ := metrics.Labels{"backend": "restarted", "classification": "success"}
	fail := metrics.Labels{"backend": "restarted", "classification": "failure"}
	for _, s := range []struct {
		l  metrics.Labels
		at int
		v  float64
	}{{succ, 1, 1000}, {fail, 1, 1000}, {succ, 3, 1}, {fail, 4, 1}, {succ, 4, 500}, {succ, 5, 2}} {
		h.Admit("response_total", s.l, metrics.KindCounter, sec(s.at), s.v)
	}
	if len(h.reset) != 2 {
		t.Fatalf("%d series listed as reset, want 2 (one spliced twice)", len(h.reset))
	}
	if at, ok := h.LastReset(metrics.Labels{"backend": "restarted"}); !ok || at != sec(5) {
		t.Fatalf("LastReset(restarted) = (%v, %v), want (5s, true)", at, ok)
	}
	if at, ok := h.LastReset(metrics.Labels{"classification": "failure"}); !ok || at != sec(4) {
		t.Fatalf("LastReset(failure) = (%v, %v), want (4s, true)", at, ok)
	}
	if _, ok := h.LastReset(metrics.Labels{"backend": "steady"}); ok {
		t.Fatal("LastReset(steady) found a reset")
	}
}
