// Package serve is the wall-clock serving mode: a reverse proxy that runs
// the repository's mesh machinery — weighted TrafficSplit routing, the L3/C3
// controllers, health probing, guard-hardened control loops — against real
// HTTP backends. The simulator validates the algorithms; this package is
// where they meet sockets.
//
// The split of responsibilities mirrors the sim mesh. The data plane
// (Router, Backend, the proxy handler) is allocation-free in this package's
// own code: backend selection reads an atomic snapshot table and each
// backend's published ejection end, outcome recording is atomic
// counter/histogram updates, and the resilience decisions (budget, breaker,
// hedge delay, deadline) are internal/resilience's Core under one mutex
// (resilience.go). The control plane (control.go) runs single-threaded on a
// clock.Wall — the same components, the same execution model, as the
// simulated control plane — and publishes new weight tables with one atomic
// pointer store.
package serve

import (
	"math/rand/v2"
	"net/url"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"l3/internal/balancer"
	"l3/internal/histogram"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/smi"
)

// Backend is one upstream server with its hot-path state: pre-resolved
// metric handles (so recording never touches the registry's lock), its
// health bit and the end of its breaker ejection.
type Backend struct {
	Name string
	URL  *url.URL

	// idx is the backend's position in the server's fleet — the admission
	// layer's per-backend limiter index (0 when no admitter runs).
	idx int

	stamp []string // the X-L3-Backend value of every answer it serves; read-only

	// healthy mirrors the health checker's verdict (control plane writes,
	// data plane reads). Backends start healthy, like the checker's states.
	healthy atomic.Bool
	// openUntil is the instant (nanoseconds on the server's clock) the
	// breaker's latest ejection of this backend ends; res publishes it.
	openUntil atomic.Int64
	// res is the resilience core Record feeds (nil outside a Server).
	res *wallResilience

	// Pre-resolved metric handles, same families and label schema as the
	// sim mesh ({service, backend, src, classification}), so the untouched
	// core.Collector reads serve traffic exactly as it reads sim traffic.
	okTotal     *metrics.Counter
	failTotal   *metrics.Counter
	okLatency   *metrics.Histogram
	failLatency *metrics.Histogram
	inflight    *metrics.Gauge
}

// srcLabel is the constant "src" label of serve-mode data-plane metrics —
// one proxy process is one traffic source, where the sim mesh has one
// source per cluster.
const srcLabel = "l3serve"

func newBackend(cfg BackendConfig, serviceName string, reg *metrics.Registry) (*Backend, error) {
	u, err := url.Parse(cfg.URL)
	if err != nil {
		return nil, err
	}
	b := &Backend{Name: cfg.Name, URL: u, stamp: []string{cfg.Name}}
	b.healthy.Store(true)
	base := metrics.Labels{"service": serviceName, "backend": cfg.Name, "src": srcLabel}
	ok := base.With("classification", mesh.ClassSuccess)
	fail := base.With("classification", mesh.ClassFailure)
	b.okTotal = reg.Counter(mesh.MetricResponseTotal, ok)
	b.failTotal = reg.Counter(mesh.MetricResponseTotal, fail)
	b.okLatency = reg.Histogram(mesh.MetricResponseLatency, ok, histogram.LinkerdLatencyBounds)
	b.failLatency = reg.Histogram(mesh.MetricResponseLatency, fail, histogram.LinkerdLatencyBounds)
	b.inflight = reg.Gauge(mesh.MetricInflight, base)
	return b, nil
}

// target maps an inbound URL onto the backend into u: its scheme and host,
// its path prefix joined by exactly one slash, its query ahead of the
// request's.
func (b *Backend) target(u, in *url.URL) {
	*u = *in
	u.Scheme, u.Host = b.URL.Scheme, b.URL.Host
	if prefix := b.URL.Path; prefix != "" && prefix != "/" {
		if b.URL.RawPath != "" || in.RawPath != "" {
			u.RawPath = joinSlash(b.URL.EscapedPath(), in.EscapedPath())
		}
		u.Path = joinSlash(prefix, in.Path)
	}
	if q := b.URL.RawQuery; q != "" {
		if u.RawQuery != "" {
			q += "&" + u.RawQuery
		}
		u.RawQuery = q
	}
}

func joinSlash(a, b string) string {
	return strings.TrimSuffix(a, "/") + "/" + strings.TrimPrefix(b, "/")
}

// Available reports whether the data plane may route to the backend now:
// health-checker verdict plus breaker state.
func (b *Backend) Available(now time.Duration) bool {
	return b.healthy.Load() && now >= time.Duration(b.openUntil.Load())
}

// Record books one response outcome: its metrics, then the resilience
// core's response path (breaker and hedge learner). Allocation-free and safe
// from any goroutine.
func (b *Backend) Record(now, latency time.Duration, ok bool) {
	if ok {
		b.okTotal.Inc()
		b.okLatency.Observe(latency.Seconds())
	} else {
		b.failTotal.Inc()
		b.failLatency.Observe(latency.Seconds())
	}
	if b.res != nil {
		b.res.response(b, now, latency, ok)
	}
}

// Healthy reports the health bit (control-plane view; tests).
func (b *Backend) Healthy() bool { return b.healthy.Load() }

// SetHealthy is the control plane's push of the checker's verdict.
func (b *Backend) SetHealthy(v bool) { b.healthy.Store(v) }

// Router is the serve-mode adapter over balancer.Table, the pick the sim's
// balancer.WeightedSplit makes too: the control plane publishes a route on
// every split write with one atomic store, and Pick asks its table with
// each backend's Available as the predicate, allocating nothing.
type Router struct {
	route atomic.Pointer[route]
}

// route is one published split: the fleet backends it names, in fleet
// order, and their weights. One it names at weight 0 is picked only when
// every available one weighs 0; one it does not name is never picked.
type route struct {
	backends []*Backend
	table    balancer.Table
}

// wallRand is the wall clock's balancer.Rand, safe from any goroutine.
type wallRand struct{}

func (wallRand) IntN(n int) int   { return rand.IntN(n) }
func (wallRand) Float64() float64 { return rand.Float64() }

// NewRouter returns a router over the backends with uniform weights — the
// state before (or without) a controller, and the rr algorithm's permanent
// state.
func NewRouter(backends []*Backend) *Router {
	uniform := &smi.TrafficSplit{}
	for _, b := range backends {
		uniform.Backends = append(uniform.Backends, smi.Backend{Service: b.Name, Weight: 1})
	}
	r := &Router{}
	r.publish(backends, uniform)
	return r
}

func (r *Router) publish(backends []*Backend, split *smi.TrafficSplit) {
	rt := &route{}
	for _, b := range backends {
		if slices.ContainsFunc(split.Backends, func(tb smi.Backend) bool { return tb.Service == b.Name }) {
			rt.backends = append(rt.backends, b)
		}
	}
	rt.table.Resolve(split, len(rt.backends), func(i int) string { return rt.backends[i].Name })
	r.route.Store(rt)
}

// Pick selects a backend by balancer.Table's rule over the available
// (healthy, circuit closed) ones, failing open to all of them when none
// is. Returns nil only for an empty table.
func (r *Router) Pick(now time.Duration) *Backend {
	return r.route.Load().pick(now, -1)
}

// PickAvoiding is Pick for retries: avoid is passed over unless it is the
// only choice left.
func (r *Router) PickAvoiding(now time.Duration, avoid *Backend) *Backend {
	rt := r.route.Load()
	return rt.pick(now, slices.Index(rt.backends, avoid))
}

func (rt *route) pick(now time.Duration, avoid int) *Backend {
	i := rt.table.Pick(wallRand{}, func(i int) bool { return rt.backends[i].Available(now) }, avoid)
	if i < 0 {
		return nil
	}
	return rt.backends[i]
}

// Weights returns the published table as name → weight (control-plane
// introspection and tests; allocates, not for the hot path).
func (r *Router) Weights() map[string]uint64 {
	rt := r.route.Load()
	out := make(map[string]uint64, len(rt.backends))
	for i, b := range rt.backends {
		out[b.Name] = uint64(rt.table.Weight(i))
	}
	return out
}
