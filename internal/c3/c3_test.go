package c3

import (
	"math"
	"testing"
	"time"

	"l3/internal/core"
)

func metricsFor(mean, inflight float64) core.BackendMetrics {
	return core.BackendMetrics{
		RPS: 100, SuccessRate: 1,
		P99: mean * 3, P99Valid: true,
		MeanLatency: mean, MeanValid: true,
		Inflight: inflight, HasTraffic: true,
	}
}

func converge(a *Assigner, m map[string]core.BackendMetrics) map[string]float64 {
	var w map[string]float64
	for i := 0; i < 40; i++ {
		w = a.Assign(time.Duration(i)*5*time.Second, m)
	}
	return w
}

func TestFasterBackendScoresBetter(t *testing.T) {
	a := New(Config{})
	w := converge(a, map[string]core.BackendMetrics{
		"fast": metricsFor(0.050, 1),
		"slow": metricsFor(0.500, 1),
	})
	if w["fast"] <= w["slow"] {
		t.Fatalf("fast=%v slow=%v", w["fast"], w["slow"])
	}
	sf, _ := a.Score("fast")
	ss, _ := a.Score("slow")
	if sf >= ss {
		t.Fatalf("score fast=%v slow=%v, want fast lower", sf, ss)
	}
}

func TestCubicQueuePenalty(t *testing.T) {
	a := New(Config{})
	w := converge(a, map[string]core.BackendMetrics{
		"idle": metricsFor(0.100, 0), // q̂=1
		"busy": metricsFor(0.100, 6), // q̂=1+6/2=4
	})
	// Ψ ratio: (1+64)/(1+1) = 32.5.
	ratio := w["idle"] / w["busy"]
	if math.Abs(ratio-32.5) > 3 {
		t.Fatalf("idle/busy ratio = %v, want ~32.5 (cube law)", ratio)
	}
}

func TestNoSuccessRateSensitivity(t *testing.T) {
	// C3's adaptation must ignore availability: identical latency and
	// inflight with wildly different success rates yield equal weights.
	a := New(Config{})
	healthy := metricsFor(0.1, 1)
	flaky := metricsFor(0.1, 1)
	flaky.SuccessRate = 0.3
	w := converge(a, map[string]core.BackendMetrics{"h": healthy, "f": flaky})
	if math.Abs(w["h"]-w["f"]) > 1e-9 {
		t.Fatalf("success rate influenced C3 weights: %v vs %v", w["h"], w["f"])
	}
}

func TestP99DrivenNotMeanDriven(t *testing.T) {
	// The adaptation consumes the aggregated P99 (the latency signal the
	// paper's §5.3.1 says plays the decisive role in both algorithms);
	// the mean is ignored, so equal P99s with different means score the
	// same.
	a := New(Config{})
	lowMean := metricsFor(0.1, 1)
	highMean := metricsFor(0.1, 1)
	highMean.MeanLatency = 0.09
	w := converge(a, map[string]core.BackendMetrics{"low": lowMean, "high": highMean})
	if math.Abs(w["low"]-w["high"]) > 1e-9 {
		t.Fatalf("mean influenced C3 weights: %v vs %v", w["low"], w["high"])
	}
	// And a worse P99 with the same mean lowers the weight.
	spiky := metricsFor(0.1, 1)
	spiky.P99 = 3.0
	w = converge(New(Config{}), map[string]core.BackendMetrics{"calm": metricsFor(0.1, 1), "spiky": spiky})
	if w["spiky"] >= w["calm"] {
		t.Fatalf("P99 did not drive C3 weights: calm=%v spiky=%v", w["calm"], w["spiky"])
	}
}

func TestRelaxationOnNoTraffic(t *testing.T) {
	a := New(Config{})
	converge(a, map[string]core.BackendMetrics{"b": metricsFor(0.010, 0)})
	w0 := a.Assign(1000*time.Second, map[string]core.BackendMetrics{"b": metricsFor(0.010, 0)})["b"]
	var w float64
	for i := 0; i < 100; i++ {
		w = a.Assign(time.Duration(1001+i)*5*time.Second,
			map[string]core.BackendMetrics{"b": {HasTraffic: false}})["b"]
	}
	// Latency relaxes toward the 5 s default, so the weight must fall.
	if w >= w0/10 {
		t.Fatalf("idle weight = %v, want far below the active weight %v", w, w0)
	}
}

func TestMinWeightFloor(t *testing.T) {
	a := New(Config{})
	w := converge(a, map[string]core.BackendMetrics{"awful": metricsFor(5.0, 50)})
	if w["awful"] != minWeight {
		t.Fatalf("weight = %v, want floored at %v", w["awful"], minWeight)
	}
}

func TestForgetDropsState(t *testing.T) {
	a := New(Config{})
	converge(a, map[string]core.BackendMetrics{"b": metricsFor(0.01, 0)})
	if _, ok := a.Score("b"); !ok {
		t.Fatal("state missing before Forget")
	}
	a.Forget("b")
	if _, ok := a.Score("b"); ok {
		t.Fatal("state present after Forget")
	}
}

func TestInvalidP99SkipsObservation(t *testing.T) {
	a := New(Config{})
	m := metricsFor(0.1, 0)
	m.P99Valid = false
	w := converge(a, map[string]core.BackendMetrics{"b": m})
	// Latency EWMA stays at its 5s default: weight 1/(5·2)=0.1.
	if math.Abs(w["b"]-0.1) > 0.02 {
		t.Fatalf("weight = %v, want ~0.1 (default latency retained)", w["b"])
	}
}

func TestWeightsPositiveFinite(t *testing.T) {
	a := New(Config{})
	for i := 0; i < 50; i++ {
		w := a.Assign(time.Duration(i)*5*time.Second, map[string]core.BackendMetrics{
			"z": {HasTraffic: true, MeanLatency: 0, MeanValid: true, Inflight: -5},
		})
		if v := w["z"]; v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("weight = %v", v)
		}
	}
}

// A warm Assign reuses the last call's sorted names and weight map, so it
// allocates nothing.
func TestC3WarmAssignDoesNotAllocate(t *testing.T) {
	a := New(Config{})
	m := map[string]core.BackendMetrics{
		"a": metricsFor(0.05, 1),
		"b": metricsFor(0.2, 3),
		"c": {HasTraffic: false},
	}
	now := 5 * time.Second
	a.Assign(now, m)
	if n := testing.AllocsPerRun(100, func() {
		now += 5 * time.Second
		a.Assign(now, m)
	}); n != 0 {
		t.Errorf("warm Assign: %v allocs, want 0", n)
	}
}
