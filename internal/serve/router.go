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
	"strings"
	"sync/atomic"
	"time"

	"l3/internal/histogram"
	"l3/internal/mesh"
	"l3/internal/metrics"
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

// target maps an inbound URL onto the backend: its scheme and host, its path
// prefix joined by exactly one slash, its query ahead of the request's.
func (b *Backend) target(in *url.URL) *url.URL {
	u := *in
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
	return &u
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

// Router picks backends proportionally to an atomically swapped weight
// table — the serve-mode analogue of balancer.WeightedSplit. The sim
// picker reads the SMI store on every pick (Get clones, which allocates);
// the serve hot path instead reads a prebuilt cumulative-weight snapshot
// that the control plane republishes on every split write, keeping Pick at
// zero allocations.
type Router struct {
	table atomic.Pointer[weightTable]
}

type weightTable struct {
	entries []weightEntry
	total   uint64
}

type weightEntry struct {
	b *Backend
	// cum is the cumulative weight at and below this entry; a uniform
	// draw from [0, total) lands in exactly one entry's slice.
	cum uint64
}

// NewRouter returns a router over the backends with uniform weights — the
// state before (or without) a controller, and the rr algorithm's permanent
// state.
func NewRouter(backends []*Backend) *Router {
	r := &Router{}
	uniform := make(map[string]int64, len(backends))
	for _, b := range backends {
		uniform[b.Name] = 1
	}
	r.rebuild(backends, uniform)
	return r
}

// rebuild publishes a new weight table. Backends absent from weights (or
// at weight 0) leave the rotation.
func (r *Router) rebuild(backends []*Backend, weights map[string]int64) {
	t := &weightTable{entries: make([]weightEntry, 0, len(backends))}
	for _, b := range backends {
		w := weights[b.Name]
		if w <= 0 {
			continue
		}
		t.total += uint64(w)
		t.entries = append(t.entries, weightEntry{b: b, cum: t.total})
	}
	r.table.Store(t)
}

// Pick selects a backend proportionally to the current weights, skipping
// unavailable backends (unhealthy or open-circuit). If every backend is
// unavailable it fails open to the pure weighted choice — sending somewhere
// beats sending nowhere, same as health.FailoverPicker. Returns nil only
// for an empty table. Zero allocations.
func (r *Router) Pick(now time.Duration) *Backend {
	t := r.table.Load()
	if t == nil || len(t.entries) == 0 || t.total == 0 {
		return nil
	}
	x := rand.Uint64N(t.total)
	// Find the entry whose cumulative slice contains x. Tables are a
	// handful of backends, so a linear scan beats binary search's branch
	// misses.
	i := 0
	for t.entries[i].cum <= x {
		i++
	}
	if b := t.entries[i].b; b.Available(now) {
		return b
	}
	// Weighted choice is unavailable: take the next available entry in
	// ring order, preserving rough weight proportions among survivors.
	for j := 1; j < len(t.entries); j++ {
		if b := t.entries[(i+j)%len(t.entries)].b; b.Available(now) {
			return b
		}
	}
	return t.entries[i].b
}

// PickAvoiding is Pick for retries: it prefers any available backend other
// than avoid, falling back to Pick's own fail-open result when avoid is the
// only choice.
func (r *Router) PickAvoiding(now time.Duration, avoid *Backend) *Backend {
	t := r.table.Load()
	if t == nil || len(t.entries) == 0 {
		return nil
	}
	b := r.Pick(now)
	if b != avoid {
		return b
	}
	for j := 0; j < len(t.entries); j++ {
		if c := t.entries[j].b; c != avoid && c.Available(now) {
			return c
		}
	}
	return b
}

// Weights returns the published table as name → weight (control-plane
// introspection and tests; allocates, not for the hot path).
func (r *Router) Weights() map[string]uint64 {
	t := r.table.Load()
	out := make(map[string]uint64)
	if t == nil {
		return out
	}
	prev := uint64(0)
	for _, e := range t.entries {
		out[e.b.Name] = e.cum - prev
		prev = e.cum
	}
	return out
}
