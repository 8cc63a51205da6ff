package serve

import (
	"net/http"
	"runtime"
	"time"

	"l3/internal/metrics"
	"l3/internal/resilience"
)

// MeasureProxyLayerAllocs measures the serve package's own per-request hot
// path — deadline, the resilience core's request-start and response calls,
// weighted pick and outcome recording — isolated from forwarding itself
// (what a whole proxied request allocates is pinned by
// TestProxiedRequestBytes and itemized in DESIGN.md). The acceptance bar is 0
// allocs/op, pinned by TestMeasureProxyLayerAllocsAgrees and
// TestProxyHotPathZeroAllocs; the repository benchmark reports it as
// serve.layer_allocs_per_op.
func MeasureProxyLayerAllocs() float64 {
	return allocsPerRun(10000, proxyLayer(true))
}

// proxyLayer returns one request through the per-request path over three
// backends under DefaultResilience, ending in a success (ok) or in a failure
// and its retry decision.
func proxyLayer(ok bool) func() {
	reg := metrics.NewRegistry()
	backends := make([]*Backend, 0, 3)
	for _, name := range []string{"a", "b", "c"} {
		b, err := newBackend(BackendConfig{Name: name, URL: "http://127.0.0.1:1"}, "api", reg)
		if err != nil {
			panic(err)
		}
		backends = append(backends, b)
	}
	router := NewRouter(backends)
	pol, err := resilience.ParsePolicy(DefaultResilience)
	if err != nil {
		panic(err)
	}
	res := newWallResilience(pol, "api", backends, reg)
	req, err := http.NewRequest(http.MethodGet, "http://127.0.0.1:1/", nil)
	if err != nil {
		panic(err)
	}
	req.Header.Set(HeaderDeadline, "250")
	return func() {
		now := 42 * time.Millisecond
		dl := res.deadline(now, headerBudget(req))
		res.start(now, dl)
		b := router.Pick(now)
		b.inflight.Inc()
		b.inflight.Dec()
		b.Record(now, 3*time.Millisecond, ok)
		if !ok {
			res.retry(now, 1, pol.Retry.Backoff, dl)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun without importing package testing
// into the l3serve binary: pin to one OS thread's worth of parallelism,
// warm up once, then average mallocs over runs.
func allocsPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
