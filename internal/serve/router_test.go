package serve

import (
	"testing"

	"l3/internal/metrics"
	"l3/internal/smi"
)

func testBackends(t *testing.T, names ...string) []*Backend {
	t.Helper()
	reg := metrics.NewRegistry()
	out := make([]*Backend, 0, len(names))
	for _, n := range names {
		b, err := newBackend(BackendConfig{Name: n, URL: "http://127.0.0.1:1"}, "api", reg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestRouterWeightedDistribution(t *testing.T) {
	backends := testBackends(t, "a", "b", "c")
	r := NewRouter(backends)
	r.rebuild(backends, map[string]int64{"a": 800, "b": 190, "c": 10})

	counts := map[string]int{}
	for i := 0; i < 100000; i++ {
		counts[r.Pick(0).Name]++
	}
	if aShare := float64(counts["a"]) / 100000; aShare < 0.77 || aShare > 0.83 {
		t.Fatalf("a share = %v, want ~0.80", aShare)
	}
	if cShare := float64(counts["c"]) / 100000; cShare < 0.005 || cShare > 0.02 {
		t.Fatalf("c share = %v, want ~0.01", cShare)
	}
}

func TestRouterDropsZeroWeight(t *testing.T) {
	backends := testBackends(t, "a", "b")
	r := NewRouter(backends)
	r.rebuild(backends, map[string]int64{"a": 1, "b": 0})
	for i := 0; i < 1000; i++ {
		if got := r.Pick(0); got.Name != "a" {
			t.Fatalf("picked %q, want only a", got.Name)
		}
	}
}

func TestRouterSkipsUnavailable(t *testing.T) {
	backends := testBackends(t, "a", "b")
	r := NewRouter(backends)
	backends[0].SetHealthy(false)
	for i := 0; i < 1000; i++ {
		if got := r.Pick(0); got.Name != "b" {
			t.Fatalf("picked unhealthy %q", got.Name)
		}
	}
	// All unavailable: fail open rather than return nil.
	backends[1].SetHealthy(false)
	if got := r.Pick(0); got == nil {
		t.Fatal("Pick failed closed with every backend unavailable")
	}
}

func TestRouterPickAvoiding(t *testing.T) {
	backends := testBackends(t, "a", "b")
	r := NewRouter(backends)
	for i := 0; i < 1000; i++ {
		if got := r.PickAvoiding(0, backends[0]); got != backends[1] {
			t.Fatalf("PickAvoiding returned the avoided backend")
		}
	}
	// Single backend: falling back to the avoided one beats nothing.
	r.rebuild(backends, map[string]int64{"a": 1})
	if got := r.PickAvoiding(0, backends[0]); got != backends[0] {
		t.Fatalf("PickAvoiding sole-backend = %v, want fail-open to a", got)
	}
}

// rebuild publishes weights as a split naming exactly their keys.
func (r *Router) rebuild(backends []*Backend, weights map[string]int64) {
	split := &smi.TrafficSplit{}
	for name, w := range weights {
		split.Backends = append(split.Backends, smi.Backend{Service: name, Weight: w})
	}
	r.publish(backends, split)
}

// shares picks n times and returns each backend's share.
func shares(n int, pick func() *Backend) map[string]float64 {
	out := map[string]float64{}
	for i := 0; i < n; i++ {
		out[pick().Name] += 1 / float64(n)
	}
	return out
}

// TestRouterSurvivorsKeepProportion: with a out, b and c split its traffic
// at their own ratio, 190:10 — c gets 5 %, not the 1 % a ring-order
// fallback that hands all of a's share to b leaves it.
func TestRouterSurvivorsKeepProportion(t *testing.T) {
	backends := testBackends(t, "a", "b", "c")
	r := NewRouter(backends)
	r.rebuild(backends, map[string]int64{"a": 800, "b": 190, "c": 10})
	backends[0].SetHealthy(false)
	got := shares(100000, func() *Backend { return r.Pick(0) })
	if got["a"] != 0 {
		t.Fatalf("unavailable a got %v of the picks", got["a"])
	}
	if got["c"] < 0.04 || got["c"] > 0.06 {
		t.Fatalf("c share = %v, want ~0.05", got["c"])
	}
}

func TestRouterAllZeroWeightsUniform(t *testing.T) {
	backends := testBackends(t, "a", "b", "c")
	r := NewRouter(backends)
	r.rebuild(backends, map[string]int64{"a": 0, "b": 0, "c": 0})
	got := shares(30000, func() *Backend { return r.Pick(0) })
	for _, b := range backends {
		if s := got[b.Name]; s < 0.30 || s > 0.37 {
			t.Fatalf("%s share = %v over an all-zero split, want ~1/3", b.Name, s)
		}
	}
}

// TestRouterPickAvoidingSpreadsInProportion: a retry leaving a goes to the
// available others at their own ratio, 1:3, not to whichever comes first.
func TestRouterPickAvoidingSpreadsInProportion(t *testing.T) {
	backends := testBackends(t, "a", "b", "c", "d")
	r := NewRouter(backends)
	r.rebuild(backends, map[string]int64{"a": 8, "b": 1, "c": 3, "d": 4})
	backends[3].SetHealthy(false)
	got := shares(100000, func() *Backend { return r.PickAvoiding(0, backends[0]) })
	if got["a"] != 0 || got["d"] != 0 {
		t.Fatalf("PickAvoiding chose the avoided or an unavailable backend: %v", got)
	}
	if got["b"] < 0.23 || got["b"] > 0.27 {
		t.Fatalf("b share = %v, want ~0.25", got["b"])
	}
}

// TestRouterAllUnavailableFailsOpen: with every backend out the pick is the
// weighted one over all of them, and a retry still leaves the avoided one.
func TestRouterAllUnavailableFailsOpen(t *testing.T) {
	backends := testBackends(t, "a", "b")
	r := NewRouter(backends)
	r.rebuild(backends, map[string]int64{"a": 3, "b": 1})
	for _, b := range backends {
		b.SetHealthy(false)
	}
	if got := shares(40000, func() *Backend { return r.Pick(0) }); got["a"] < 0.72 || got["a"] > 0.78 {
		t.Fatalf("a share = %v with every backend unavailable, want ~0.75", got["a"])
	}
	for i := 0; i < 1000; i++ {
		if got := r.PickAvoiding(0, backends[0]); got != backends[1] {
			t.Fatalf("PickAvoiding = %v with every backend unavailable, want b", got)
		}
	}
}

// TestProxyHotPathZeroAllocs pins the acceptance bar: the serve layer's own
// per-request bookkeeping — deadline, the resilience core's request-start
// and response calls, weighted pick, outcome recording — allocates nothing,
// on the success path and on the failure path with its breaker bookkeeping
// and retry decision. What forwarding a whole request allocates is pinned in
// proxy_test.go.
func TestProxyHotPathZeroAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(10000, proxyLayer(true)); got != 0 {
		t.Fatalf("proxy-layer hot path = %v allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(10000, proxyLayer(false)); got != 0 {
		t.Fatalf("failure path = %v allocs/op, want 0", got)
	}
}

func TestMeasureProxyLayerAllocsAgrees(t *testing.T) {
	if got := MeasureProxyLayerAllocs(); got != 0 {
		t.Fatalf("MeasureProxyLayerAllocs = %v, want 0 (the benchmark's serve.layer_allocs_per_op must agree with the pin)", got)
	}
}
