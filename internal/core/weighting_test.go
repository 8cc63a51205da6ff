package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"l3/internal/ewma"
)

// observed builds BackendMetrics with traffic.
func observed(p99, success, rps, inflight float64) BackendMetrics {
	return BackendMetrics{
		RPS: rps, SuccessRate: success,
		P99: p99, P99Valid: true,
		MeanLatency: p99 / 3, MeanValid: true,
		Inflight: inflight, HasTraffic: true,
	}
}

func TestWeighterDefaultsApplied(t *testing.T) {
	w := NewWeighter(WeightingConfig{})
	cfg := w.Config()
	if cfg.Penalty != 600*time.Millisecond {
		t.Fatalf("Penalty default = %v", cfg.Penalty)
	}
	if cfg.FilterKind != ewma.KindEWMA {
		t.Fatalf("FilterKind default = %v", cfg.FilterKind)
	}
	if cfg.InflightExponent != 2 {
		t.Fatalf("exponent = %v", cfg.InflightExponent)
	}
	if cfg.LatencyHalfLife != 5*time.Second || cfg.SuccessHalfLife != 10*time.Second {
		t.Fatalf("half-lives = %v/%v", cfg.LatencyHalfLife, cfg.SuccessHalfLife)
	}
}

func TestFasterBackendGetsHigherWeight(t *testing.T) {
	w := NewWeighter(WeightingConfig{})
	m := map[string]BackendMetrics{
		"fast": observed(0.050, 1, 100, 1),
		"slow": observed(0.500, 1, 100, 1),
	}
	var weights map[string]float64
	for i := 0; i < 20; i++ { // converge the filters
		weights = w.Update(time.Duration(i)*5*time.Second, m)
	}
	if weights["fast"] <= weights["slow"] {
		t.Fatalf("fast=%v slow=%v, want fast > slow", weights["fast"], weights["slow"])
	}
	// With identical success/inflight the ratio approaches the latency
	// ratio 10x.
	ratio := weights["fast"] / weights["slow"]
	if ratio < 8 || ratio > 12 {
		t.Fatalf("weight ratio = %v, want ~10", ratio)
	}
}

func TestEquation4AnchorValue(t *testing.T) {
	// Lest = 100ms, Ri = 0: wb = 1/0.1 = 10.
	w := NewWeighter(WeightingConfig{})
	m := map[string]BackendMetrics{"b": observed(0.100, 1, 100, 0)}
	var weights map[string]float64
	for i := 0; i < 30; i++ {
		weights = w.Update(time.Duration(i)*5*time.Second, m)
	}
	if math.Abs(weights["b"]-10) > 0.5 {
		t.Fatalf("weight = %v, want ~10 for Lest=100ms Ri=0", weights["b"])
	}
}

func TestFailurePenaltyLowersWeight(t *testing.T) {
	w := NewWeighter(WeightingConfig{})
	m := map[string]BackendMetrics{
		"healthy": observed(0.100, 1.0, 100, 0),
		"flaky":   observed(0.100, 0.5, 100, 0),
	}
	var weights map[string]float64
	for i := 0; i < 30; i++ {
		weights = w.Update(time.Duration(i)*5*time.Second, m)
	}
	// Equation 3: flaky's Lest = 0.1 + 0.6·(1/0.5 − 1) = 0.7 vs 0.1.
	ratio := weights["healthy"] / weights["flaky"]
	if ratio < 6 || ratio > 8 {
		t.Fatalf("healthy/flaky ratio = %v, want ~7", ratio)
	}
}

func TestZeroSuccessRateUsesLsBranch(t *testing.T) {
	// Rs = 0 must not divide by zero: Lest = Ls (Algorithm 1 line 11).
	// Exercised directly: with λ-seeding the success EWMA only asymptotes
	// toward zero, so the branch is a guard rather than a steady state.
	w := NewWeighter(WeightingConfig{})
	f := &backendFilters{
		latency:  ewma.New(5*time.Second, 0.2),
		success:  ewma.New(10*time.Second, 0), // Rs = 0 before any sample
		rps:      ewma.New(10*time.Second, 0),
		inflight: ewma.New(5*time.Second, 0),
		failRTT:  ewma.New(10*time.Second, 0.6),
	}
	if got := w.weightOf(f); math.Abs(got-5) > 1e-9 { // 1/0.2
		t.Fatalf("weight = %v, want 5 (Lest = Ls)", got)
	}
	// End to end, a backend whose every request fails converges to the
	// minimum weight: Rs decays toward 0 and Equation 3 explodes.
	m := map[string]BackendMetrics{"dead": {
		RPS: 100, SuccessRate: 0, P99: 0.2, P99Valid: true, HasTraffic: true,
	}}
	var weights map[string]float64
	for i := 0; i < 200; i++ {
		weights = w.Update(time.Duration(i)*5*time.Second, m)
	}
	if math.IsInf(weights["dead"], 0) || math.IsNaN(weights["dead"]) {
		t.Fatalf("weight = %v", weights["dead"])
	}
	if weights["dead"] != minWeight {
		t.Fatalf("weight = %v, want floored to minWeight %v", weights["dead"], minWeight)
	}
}

func TestPenaltyFactorScalesImpact(t *testing.T) {
	mkWeights := func(p time.Duration) float64 {
		w := NewWeighter(WeightingConfig{Penalty: p})
		m := map[string]BackendMetrics{"b": observed(0.100, 0.9, 100, 0)}
		var weights map[string]float64
		for i := 0; i < 30; i++ {
			weights = w.Update(time.Duration(i)*5*time.Second, m)
		}
		return weights["b"]
	}
	small, large := mkWeights(100*time.Millisecond), mkWeights(1500*time.Millisecond)
	if small <= large {
		t.Fatalf("P=100ms weight %v should exceed P=1.5s weight %v", small, large)
	}
}

func TestInflightSquaredPenalty(t *testing.T) {
	w := NewWeighter(WeightingConfig{})
	m := map[string]BackendMetrics{
		"idle": observed(0.100, 1, 100, 0),   // Ri = 0
		"busy": observed(0.100, 1, 100, 100), // Ri = 1
	}
	var weights map[string]float64
	for i := 0; i < 30; i++ {
		weights = w.Update(time.Duration(i)*5*time.Second, m)
	}
	// (Ri+1)² = 4 for busy vs 1 for idle.
	ratio := weights["idle"] / weights["busy"]
	if math.Abs(ratio-4) > 0.4 {
		t.Fatalf("idle/busy ratio = %v, want ~4", ratio)
	}
}

func TestInflightExponentAblation(t *testing.T) {
	run := func(exp float64) float64 {
		w := NewWeighter(WeightingConfig{InflightExponent: exp})
		m := map[string]BackendMetrics{
			"idle": observed(0.100, 1, 100, 0),
			"busy": observed(0.100, 1, 100, 100),
		}
		var weights map[string]float64
		for i := 0; i < 30; i++ {
			weights = w.Update(time.Duration(i)*5*time.Second, m)
		}
		return weights["idle"] / weights["busy"]
	}
	if r := run(1); math.Abs(r-2) > 0.2 {
		t.Fatalf("exponent 1 ratio = %v, want ~2", r)
	}
	if r := run(3); math.Abs(r-8) > 0.8 {
		t.Fatalf("exponent 3 ratio = %v, want ~8", r)
	}
}

func TestZeroRPSMeansZeroNormalizedInflight(t *testing.T) {
	// Algorithm 1 line 6-9: Rrps = 0 -> Ri = 0 (no division).
	w := NewWeighter(WeightingConfig{})
	m := map[string]BackendMetrics{"b": {
		RPS: 0, SuccessRate: 1, P99: 0.1, P99Valid: true, Inflight: 50, HasTraffic: true,
	}}
	var weights map[string]float64
	for i := 0; i < 30; i++ {
		weights = w.Update(time.Duration(i)*5*time.Second, m)
	}
	if math.Abs(weights["b"]-10) > 1 {
		t.Fatalf("weight = %v, want ~10 (inflight ignored at zero RPS)", weights["b"])
	}
}

func TestMinWeightFloor(t *testing.T) {
	// The floor clamps: 100 requests in flight per RPS at Lest = 0.5s is a
	// raw weight of 1/(101²·0.5) ≈ 2e-4 -> floored to minWeight.
	w := NewWeighter(WeightingConfig{})
	m := map[string]BackendMetrics{"stuck": observed(0.5, 1, 1, 100)}
	var weights map[string]float64
	for i := 0; i < 30; i++ {
		weights = w.Update(time.Duration(i)*5*time.Second, m)
	}
	if weights["stuck"] != minWeight {
		t.Fatalf("weight = %v, want floored to %v", weights["stuck"], minWeight)
	}
	// The floor is only a numerical guard: a slow backend (Lest = 5s)
	// keeps its honest Equation 4 weight (the integer TrafficSplit floor
	// downstream is what keeps it measurable).
	w = NewWeighter(WeightingConfig{})
	m = map[string]BackendMetrics{"slow": observed(5.0, 1, 100, 0)}
	for i := 0; i < 30; i++ {
		weights = w.Update(time.Duration(i)*5*time.Second, m)
	}
	if math.Abs(weights["slow"]-0.2) > 0.02 {
		t.Fatalf("weight = %v, want ~0.2 unfloored", weights["slow"])
	}
}

func TestNoTrafficRelaxesTowardDefaults(t *testing.T) {
	w := NewWeighter(WeightingConfig{})
	// Teach it a fast backend first.
	for i := 0; i < 20; i++ {
		w.Update(time.Duration(i)*5*time.Second, map[string]BackendMetrics{
			"b": observed(0.010, 1, 100, 0),
		})
	}
	view, _ := w.View("b")
	if view.Latency > 0.02 {
		t.Fatalf("pre-relax latency = %v", view.Latency)
	}
	// Then starve it: filters must drift toward the 5 s default latency.
	for i := 20; i < 200; i++ {
		w.Update(time.Duration(i)*5*time.Second, map[string]BackendMetrics{
			"b": {HasTraffic: false},
		})
	}
	view, _ = w.View("b")
	if view.Latency < 4.5 {
		t.Fatalf("post-relax latency = %v, want near the 5s default", view.Latency)
	}
	if view.RPS > 1 {
		t.Fatalf("post-relax RPS = %v, want near 0", view.RPS)
	}
}

func TestPeakEWMAKindReactsToSpikes(t *testing.T) {
	now := time.Duration(0)
	step := func(w *Weighter, p99 float64) float64 {
		weights := w.Update(now, map[string]BackendMetrics{"b": observed(p99, 1, 100, 0)})
		return weights["b"]
	}
	peak := NewWeighter(WeightingConfig{FilterKind: ewma.KindPeak})
	plain := NewWeighter(WeightingConfig{FilterKind: ewma.KindEWMA})
	for i := 0; i < 20; i++ {
		now = time.Duration(i) * 5 * time.Second
		step(peak, 0.05)
		step(plain, 0.05)
	}
	now += 5 * time.Second
	pw := step(peak, 0.8) // spike
	ew := step(plain, 0.8)
	if pw >= ew {
		t.Fatalf("peak weight %v should fall below ewma weight %v on a spike", pw, ew)
	}
}

func TestViewAndForget(t *testing.T) {
	w := NewWeighter(WeightingConfig{})
	if _, ok := w.View("never"); ok {
		t.Fatal("View of unknown backend returned ok")
	}
	w.Update(0, map[string]BackendMetrics{"b": observed(0.1, 1, 50, 2)})
	view, ok := w.View("b")
	// One sample in: the RPS filter blends its λ seed (0) with the sample,
	// (0+50)/2 = 25.
	if !ok || view.RPS != 25 || view.Weight <= 0 {
		t.Fatalf("view = %+v, %v", view, ok)
	}
	w.Forget("b")
	if _, ok := w.View("b"); ok {
		t.Fatal("View after Forget returned ok")
	}
}

func TestWeightsAlwaysPositiveFiniteProperty(t *testing.T) {
	f := func(p99m, succ255, rps16, inflight16 uint16) bool {
		w := NewWeighter(WeightingConfig{})
		m := map[string]BackendMetrics{"b": {
			RPS:         float64(rps16 % 2000),
			SuccessRate: float64(succ255%256) / 255,
			P99:         float64(p99m%10000) / 1000,
			P99Valid:    true,
			Inflight:    float64(inflight16 % 500),
			HasTraffic:  true,
		}}
		for i := 0; i < 5; i++ {
			weights := w.Update(time.Duration(i)*5*time.Second, m)
			v := weights["b"]
			if v < minWeight || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerLatencyNeverLowersWeightProperty(t *testing.T) {
	// Monotonicity: with all else equal, a strictly lower P99 must never
	// produce a lower weight.
	f := func(aMs, bMs uint16) bool {
		la := float64(aMs%5000+1) / 1000
		lb := float64(bMs%5000+1) / 1000
		wa := convergedWeight(la)
		wb := convergedWeight(lb)
		if la < lb {
			return wa >= wb
		}
		if lb < la {
			return wb >= wa
		}
		return wa == wb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func convergedWeight(p99 float64) float64 {
	w := NewWeighter(WeightingConfig{})
	var weights map[string]float64
	for i := 0; i < 20; i++ {
		weights = w.Update(time.Duration(i)*5*time.Second, map[string]BackendMetrics{
			"b": observed(p99, 1, 100, 0),
		})
	}
	return weights["b"]
}

func TestDynamicPenaltyTracksFailureRTT(t *testing.T) {
	w := NewWeighter(WeightingConfig{DynamicPenalty: true, Penalty: 600 * time.Millisecond})
	// Failures cost only 50ms here; the dynamic P must converge to that
	// instead of the 600ms static default.
	m := map[string]BackendMetrics{"b": {
		RPS: 100, SuccessRate: 0.5, P99: 0.1, P99Valid: true,
		FailureMeanLatency: 0.05, FailureMeanValid: true, HasTraffic: true,
	}}
	var weights map[string]float64
	for i := 0; i < 40; i++ {
		weights = w.Update(time.Duration(i)*5*time.Second, m)
	}
	// Lest = 0.1 + 0.05*(1/0.5-1) = 0.15 -> w ~ 6.67.
	if math.Abs(weights["b"]-1/0.15) > 0.5 {
		t.Fatalf("dynamic-penalty weight = %v, want ~6.67", weights["b"])
	}
}

func TestDynamicPenaltyDefaultsToStaticBeforeFailures(t *testing.T) {
	w := NewWeighter(WeightingConfig{DynamicPenalty: true, Penalty: 600 * time.Millisecond})
	// No failure latency observed: the filter's default (the static P)
	// applies, so behaviour matches the static configuration.
	m := map[string]BackendMetrics{"b": observed(0.1, 0.5, 100, 0)}
	var weights map[string]float64
	for i := 0; i < 40; i++ {
		weights = w.Update(time.Duration(i)*5*time.Second, m)
	}
	// Lest = 0.1 + 0.6*(1/0.5-1) = 0.7 -> w ~ 1.43.
	if math.Abs(weights["b"]-1/0.7) > 0.1 {
		t.Fatalf("pre-feedback weight = %v, want ~1.43", weights["b"])
	}
}
