package serve

import (
	"net/http"
	"testing"
	"time"

	"l3/internal/metrics"
)

func testBackends(t *testing.T, names ...string) []*Backend {
	t.Helper()
	reg := metrics.NewRegistry()
	out := make([]*Backend, 0, len(names))
	for _, n := range names {
		b, err := newBackend(BackendConfig{Name: n, URL: "http://127.0.0.1:1"}, "api", reg, 3, time.Second)
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

func TestBreakerOpensAndReArms(t *testing.T) {
	backends := testBackends(t, "a")
	b := backends[0]
	now := 10 * time.Second
	for i := 0; i < 3; i++ {
		if !b.Available(now) {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i)
		}
		b.Record(now, time.Millisecond, false)
	}
	if b.Available(now) {
		t.Fatal("breaker still closed after threshold failures")
	}
	if !b.Available(now + 1100*time.Millisecond) {
		t.Fatal("breaker still open after the 1s window")
	}
	// A success resets the consecutive-failure streak.
	later := now + 2*time.Second
	b.Record(later, time.Millisecond, false)
	b.Record(later, time.Millisecond, true)
	b.Record(later, time.Millisecond, false)
	b.Record(later, time.Millisecond, false)
	if !b.Available(later) {
		t.Fatal("streak should have reset on success")
	}
}

func TestRetryBudgetBounds(t *testing.T) {
	b := newRetryBudget(0.1)
	// Drain the initial burst.
	for b.withdraw() {
	}
	// 10% earn rate: 10 deposits buy one retry.
	for i := 0; i < 9; i++ {
		b.deposit()
	}
	if b.withdraw() {
		t.Fatal("withdraw succeeded before a full token accrued")
	}
	b.deposit()
	if !b.withdraw() {
		t.Fatal("withdraw failed with a full token in the bucket")
	}
	if zero := newRetryBudget(0); zero.withdraw() {
		t.Fatal("zero-ratio budget must never grant retries")
	}
}

// TestProxyHotPathZeroAllocs pins the acceptance bar: the serve layer's own
// per-request bookkeeping — weighted pick, outcome recording, budget and
// deadline math — allocates nothing. What forwarding a whole request
// allocates is pinned in proxy_test.go.
func TestProxyHotPathZeroAllocs(t *testing.T) {
	backends := testBackends(t, "a", "b", "c")
	r := NewRouter(backends)
	budget := newRetryBudget(0.2)
	tracker := newHedgeTracker(0.95, time.Millisecond)
	req, err := http.NewRequest(http.MethodGet, "http://127.0.0.1:1/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderDeadline, "250")
	now := 42 * time.Millisecond
	if got := testing.AllocsPerRun(10000, func() {
		budget.deposit()
		b := r.Pick(now)
		_ = deadlineBudget(req, 10*time.Second)
		b.inflight.Inc()
		b.inflight.Dec()
		b.Record(now, 3*time.Millisecond, true)
		tracker.observe(3 * time.Millisecond)
		_ = tracker.hedgeAfter()
	}); got != 0 {
		t.Fatalf("proxy-layer hot path = %v allocs/op, want 0", got)
	}
	// Failure path (breaker bookkeeping) must not allocate either.
	if got := testing.AllocsPerRun(10000, func() {
		b := r.Pick(now)
		b.Record(now, 3*time.Millisecond, false)
	}); got != 0 {
		t.Fatalf("failure path = %v allocs/op, want 0", got)
	}
}

func TestMeasureProxyLayerAllocsAgrees(t *testing.T) {
	if got := MeasureProxyLayerAllocs(); got != 0 {
		t.Fatalf("MeasureProxyLayerAllocs = %v, want 0 (the benchmark's serve.layer_allocs_per_op must agree with the pin)", got)
	}
}
