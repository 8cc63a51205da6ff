package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestAdjustNoChangeLeavesWeight(t *testing.T) {
	if got := RateControlAdjust(0, 2000, 1000); got != 2000 {
		t.Fatalf("c=0 adjust = %v, want unchanged", got)
	}
}

func TestAdjustIncreaseConvergesTowardAverage(t *testing.T) {
	// Equation 5: for growing c, both above- and below-average weights
	// approach wµ.
	for _, wb := range []float64{2000, 500} {
		prev := wb
		for _, c := range []float64{0.5, 1, 2, 3, 5} {
			got := RateControlAdjust(c, wb, 1000)
			if math.Abs(got-1000) > math.Abs(prev-1000)+1e-9 {
				t.Fatalf("wb=%v c=%v: %v further from average than at smaller c (%v)", wb, c, got, prev)
			}
			prev = got
		}
		if final := RateControlAdjust(10, wb, 1000); math.Abs(final-1000) > 30 {
			t.Fatalf("wb=%v at c=10: %v, want ~1000", wb, final)
		}
	}
}

func TestAdjustDecreaseDivergesFromAverage(t *testing.T) {
	// c < 0: above-average weights grow, below-average shrink — the
	// opportunistic shift to faster backends.
	if got := RateControlAdjust(-0.5, 2000, 1000); got <= 2000 {
		t.Fatalf("above-average weight did not grow: %v", got)
	}
	if got := RateControlAdjust(-0.5, 500, 1000); got >= 500 {
		t.Fatalf("below-average weight did not shrink: %v", got)
	}
}

func TestAdjustPublishedFormulaAnchors(t *testing.T) {
	// Algorithm 2 as published: line 10 at c=-1, wb=2000, wµ=1000:
	// 2·2000 − 1000 − 1000/(1+3)^1.5 = 3000 − 125 = 2875 (the "over 2800"
	// the paper's §3.2 example describes for a halved RPS).
	if got := RateControlAdjust(-1, 2000, 1000); math.Abs(got-2875) > 1e-9 {
		t.Fatalf("line-10 anchor = %v, want 2875", got)
	}
	// Line 8 at c=-1, wb=500, wµ=1000: 500/(1+2)^1.5 = 500/5.196… = 96.22.
	want := 500 / math.Pow(3, 1.5)
	if got := RateControlAdjust(-1, 500, 1000); math.Abs(got-want) > 1e-9 {
		t.Fatalf("line-8 anchor = %v, want %v", got, want)
	}
	// Equation 5 at c=1, wb=2000, wµ=1000:
	// 1000 − 1000/2^1.5 + 2000/2^1.5 = 1000 + 1000/2.828… = 1353.55.
	want = 1000 + 1000/math.Pow(2, 1.5)
	if got := RateControlAdjust(1, 2000, 1000); math.Abs(got-want) > 1e-9 {
		t.Fatalf("eq-5 anchor = %v, want %v", got, want)
	}
}

func TestAdjustAverageWeightFixedPointForIncreases(t *testing.T) {
	// For c >= 0 the average weight is a fixed point of Equation 5. For
	// c < 0 it is NOT: Algorithm 2 line 7 routes wb <= wµ (including
	// equality) through the shrink branch, so an average-weight backend
	// shrinks on an RPS drop — a deliberate property of the published
	// pseudocode.
	f := func(c uint8) bool {
		cc := float64(c) / 64 // c in [0, ~4]
		got := RateControlAdjust(cc, 1000, 1000)
		return math.Abs(got-1000) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if got := RateControlAdjust(-0.5, 1000, 1000); got >= 1000 {
		t.Fatalf("average weight at c<0 = %v, want shrunk per line 8", got)
	}
}

func TestAdjustContinuousAtZeroProperty(t *testing.T) {
	// The piecewise definition must not jump at c=0.
	for _, wb := range []float64{100, 1000, 5000} {
		up := RateControlAdjust(1e-9, wb, 1000)
		down := RateControlAdjust(-1e-9, wb, 1000)
		if math.Abs(up-wb) > 0.01 || math.Abs(down-wb) > 0.01 {
			t.Fatalf("discontinuity at c=0 for wb=%v: %v / %v", wb, up, down)
		}
	}
}

func TestRateControllerFirstSampleNoChange(t *testing.T) {
	rc := NewRateController(RateControlConfig{})
	w := map[string]float64{"a": 2000, "b": 500}
	rc.Apply(0, w, 100)
	if w["a"] != 2000 || w["b"] != 500 {
		t.Fatalf("first sample adjusted weights: %v", w)
	}
}

func TestRateControllerSteadyRPSLeavesWeights(t *testing.T) {
	rc := NewRateController(RateControlConfig{})
	for i := 0; i < 50; i++ {
		w := map[string]float64{"a": 2000, "b": 500}
		rc.Apply(time.Duration(i)*5*time.Second, w, 100)
		if i > 10 {
			if math.Abs(w["a"]-2000) > 50 || math.Abs(w["b"]-500) > 20 {
				t.Fatalf("steady RPS moved weights at round %d: %v (c=%v)", i, w, rc.LastRelativeChange())
			}
		}
	}
}

func TestRateControllerSurgeFlattensWeights(t *testing.T) {
	rc := NewRateController(RateControlConfig{})
	for i := 0; i < 20; i++ {
		rc.Apply(time.Duration(i)*5*time.Second, map[string]float64{"a": 2000, "b": 500}, 100)
	}
	// RPS quadruples: c ≈ 3 against the lagging EWMA.
	w := map[string]float64{"a": 2000, "b": 500}
	rc.Apply(100*time.Second, w, 400)
	if rc.LastRelativeChange() < 2 {
		t.Fatalf("relative change = %v, want ~3", rc.LastRelativeChange())
	}
	// Both weights must have moved strongly toward the average 1250.
	if w["a"] > 1500 || w["b"] < 1000 {
		t.Fatalf("surge did not flatten: %v", w)
	}
}

func TestRateControllerDropShiftsToFastBackends(t *testing.T) {
	rc := NewRateController(RateControlConfig{})
	for i := 0; i < 20; i++ {
		rc.Apply(time.Duration(i)*5*time.Second, map[string]float64{"a": 2000, "b": 500}, 100)
	}
	w := map[string]float64{"a": 2000, "b": 500}
	rc.Apply(100*time.Second, w, 20) // RPS collapses
	if rc.LastRelativeChange() > -0.5 {
		t.Fatalf("relative change = %v, want strongly negative", rc.LastRelativeChange())
	}
	if w["a"] <= 2000 {
		t.Fatalf("fast backend weight should grow: %v", w["a"])
	}
	if w["b"] >= 500 {
		t.Fatalf("slow backend weight should shrink: %v", w["b"])
	}
}

func TestRateControllerFloor(t *testing.T) {
	rc := NewRateController(RateControlConfig{MinWeight: 1})
	for i := 0; i < 20; i++ {
		rc.Apply(time.Duration(i)*5*time.Second, map[string]float64{"a": 1000, "b": 1.2}, 100)
	}
	w := map[string]float64{"a": 1000, "b": 1.2}
	rc.Apply(100*time.Second, w, 10)
	if w["b"] < 1 {
		t.Fatalf("weight %v below the floor", w["b"])
	}
	// The default floor is only a keep-positive guard, so braking is free
	// to push a weight well below 1 natural unit.
	rc = NewRateController(RateControlConfig{})
	for i := 0; i < 20; i++ {
		rc.Apply(time.Duration(i)*5*time.Second, map[string]float64{"a": 1000, "b": 1.2}, 100)
	}
	w = map[string]float64{"a": 1000, "b": 1.2}
	rc.Apply(100*time.Second, w, 10)
	if w["b"] >= 1.2 || w["b"] < rc.cfg.MinWeight {
		t.Fatalf("weight = %v, want shrunk but no lower than %v", w["b"], rc.cfg.MinWeight)
	}
}

func TestRateControllerEmptyWeights(t *testing.T) {
	rc := NewRateController(RateControlConfig{})
	out := rc.Apply(0, map[string]float64{}, 100)
	if len(out) != 0 {
		t.Fatal("empty weights grew")
	}
	// The RPS sample must still be folded in (λ-seed blend: (0+100)/2).
	if rc.RPSEWMA() != 50 {
		t.Fatalf("RPS not observed on empty weights: %v", rc.RPSEWMA())
	}
}

func TestRateControllerEmptyWeightsUpdatesRelativeChange(t *testing.T) {
	// Regression: an Apply with no backends must still run the full
	// observation cycle, so LastRelativeChange reflects the newest sample
	// instead of going stale.
	rc := NewRateController(RateControlConfig{})
	for i := 0; i < 20; i++ {
		rc.Apply(time.Duration(i)*5*time.Second, map[string]float64{"a": 1000}, 100)
	}
	priorC := rc.LastRelativeChange()
	rc.Apply(100*time.Second, map[string]float64{}, 400)
	if c := rc.LastRelativeChange(); c < 2 {
		t.Fatalf("c after empty-weights surge = %v (prior %v), want ~3", c, priorC)
	}
	// And the EWMA moved, so the next cycle compares against fresh state.
	if rc.RPSEWMA() <= 100 {
		t.Fatalf("EWMA did not fold in the surge sample: %v", rc.RPSEWMA())
	}
}

func TestRateControllerZeroEWMANoAdjustment(t *testing.T) {
	// Zero traffic history then a burst: EWMA 0 -> c defined as 0.
	rc := NewRateController(RateControlConfig{})
	rc.Apply(0, map[string]float64{"a": 100}, 0)
	w := map[string]float64{"a": 100}
	rc.Apply(5*time.Second, w, 500)
	if rc.LastRelativeChange() != 0 {
		t.Fatalf("c with zero EWMA = %v, want 0", rc.LastRelativeChange())
	}
}

// TotalRPS and Algorithm 2's mean add in name order, not in map order: RPS
// or weights of 0.1, 0.2 and 0.3 add to 0.6 or to 0.6000000000000001
// depending on the order, so 200 freshly built maps summed in map order show
// both bit patterns.
func TestRoundSumsAreOneBitPattern(t *testing.T) {
	rps := make(map[uint64]bool)
	adjusted := make(map[[3]uint64]bool)
	for i := 0; i < 200; i++ {
		m := map[string]BackendMetrics{
			"a": {RPS: 0.1, HasTraffic: true}, "b": {RPS: 0.2, HasTraffic: true}, "c": {RPS: 0.3, HasTraffic: true},
		}
		rps[math.Float64bits(TotalRPS(m, sortedKeys(nil, m)))] = true

		rc := NewRateController(RateControlConfig{})
		rc.Apply(0, map[string]float64{"a": 1}, 100) // history, so the next c is not 0
		w := rc.Apply(5*time.Second, map[string]float64{"a": 0.1, "b": 0.2, "c": 0.3}, 200)
		adjusted[[3]uint64{math.Float64bits(w["a"]), math.Float64bits(w["b"]), math.Float64bits(w["c"])}] = true
	}
	if len(rps) != 1 || len(adjusted) != 1 {
		t.Errorf("200 calls on one input: %d TotalRPS bit patterns, %d Apply bit patterns; want 1 each", len(rps), len(adjusted))
	}
}
