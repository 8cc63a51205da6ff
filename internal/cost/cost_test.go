package cost

import (
	"math"
	"testing"
	"time"

	"l3/internal/core"
)

func TestRatesLookup(t *testing.T) {
	if RequestCost("a", "a") != 0 {
		t.Fatal("intra-cluster transfer should be free")
	}
	if got := RequestCost("a", "b") / bytesPerRequest * (1 << 30); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("inter-cluster = $%v/GB, want $0.02", got)
	}
	if RequestCost("b", "a") != RequestCost("a", "b") {
		t.Fatal("the two directions of a link are priced differently")
	}
}

func TestRequestAndTrafficCost(t *testing.T) {
	req := RequestCost("a", "b")
	total := TrafficCost(map[[2]string]float64{
		{"a", "a"}: 100, // free
		{"a", "b"}: 10,  // 10 requests
		{"b", "a"}: 5,   // 5 more, the other way
	})
	if math.Abs(total-15*req) > 1e-15 {
		t.Fatalf("TrafficCost = %v, want %v", total, 15*req)
	}
}

func TestModelDefaultBytes(t *testing.T) {
	want := 0.02 * float64(16<<10) / float64(1<<30) // 16 KiB a request
	if got := RequestCost("a", "b"); math.Abs(got-want) > 1e-15 {
		t.Fatalf("default-bytes cost = %v, want %v", got, want)
	}
}

// staticAssigner returns fixed weights.
type staticAssigner struct {
	weights map[string]float64
	forgot  []string
}

func (s *staticAssigner) Assign(time.Duration, map[string]core.BackendMetrics) map[string]float64 {
	out := make(map[string]float64, len(s.weights))
	for k, v := range s.weights {
		out[k] = v
	}
	return out
}

func (s *staticAssigner) Forget(b string) { s.forgot = append(s.forgot, b) }

func clusterOf(b string) string {
	// "svc-clusterX" -> "clusterX"
	return b[len("svc-"):]
}

func TestAssignerZeroLambdaIsIdentity(t *testing.T) {
	inner := &staticAssigner{weights: map[string]float64{"svc-c1": 10, "svc-c2": 10}}
	a := NewAssigner(inner, "c1", clusterOf, 0)
	w := a.Assign(0, nil)
	if w["svc-c1"] != 10 || w["svc-c2"] != 10 {
		t.Fatalf("lambda=0 changed weights: %v", w)
	}
}

func TestAssignerPenalizesRemoteBackends(t *testing.T) {
	inner := &staticAssigner{weights: map[string]float64{"svc-c1": 10, "svc-c2": 10}}
	// λ chosen so a remote request costs ~10ms of virtual latency:
	// 0.01s / RequestCost.
	lambda := 0.01 / RequestCost("c1", "c2")
	a := NewAssigner(inner, "c1", clusterOf, lambda)
	w := a.Assign(0, nil)
	if w["svc-c1"] != 10 {
		t.Fatalf("local weight changed: %v", w["svc-c1"])
	}
	// Remote: w' = 1/(1/10 + 0.01) = 9.0909...
	if math.Abs(w["svc-c2"]-1/0.11) > 1e-9 {
		t.Fatalf("remote weight = %v, want %v", w["svc-c2"], 1/0.11)
	}
}

func TestAssignerLambdaMonotone(t *testing.T) {
	prev := math.Inf(1)
	for _, lambda := range []float64{0, 1e4, 1e5, 1e6} {
		inner := &staticAssigner{weights: map[string]float64{"svc-c2": 10}}
		a := NewAssigner(inner, "c1", clusterOf, lambda)
		w := a.Assign(0, nil)["svc-c2"]
		if w > prev {
			t.Fatalf("remote weight not monotone in lambda: %v after %v", w, prev)
		}
		prev = w
	}
}

func TestAssignerForgetDelegates(t *testing.T) {
	inner := &staticAssigner{weights: map[string]float64{}}
	a := NewAssigner(inner, "c1", clusterOf, 1)
	a.Forget("svc-c9")
	if len(inner.forgot) != 1 || inner.forgot[0] != "svc-c9" {
		t.Fatalf("Forget not delegated: %v", inner.forgot)
	}
}

func TestAssignerNilDepsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil deps did not panic")
		}
	}()
	NewAssigner(nil, "c1", nil, 1)
}
