package resilience

import (
	"time"

	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/sim"
)

// Breaker is a per-backend circuit breaker / outlier ejector in the style
// of Envoy's outlier detection: a backend that fails ConsecutiveFailures
// responses in a row is ejected from load balancing for an exponentially
// growing window, subject to a max-ejection-percent guard so a correlated
// fault (a WAN partition failing every cross-cluster response at once) can
// never eject all backends of a service.
//
// Compared with internal/health's active probing, the breaker reacts on
// the data path itself: ejection latency is a handful of in-flight
// requests rather than FailureThreshold probe intervals. The two compose —
// the breaker filters whatever picker is installed, including a health
// FailoverPicker — which figure R3 quantifies.
//
// Restores are lazy: an expired window is noticed the next time the
// backend is consulted (in the sim every pick filters over all backends, so
// in practice the next request after expiry; on the wall plane, whose picks
// read the published window end instead, the backend's next response). Like
// the rest of a Core, a Breaker takes the caller's now and is not safe for
// concurrent use.
type Breaker struct {
	cfg     BreakerConfig
	states  map[string]*breakerState
	names   []string // registration order, for deterministic inspection
	ejected int
	mDenied *metrics.Counter
}

type breakerState struct {
	name        string
	consecFails int
	ejections   int // lifetime count; sizes the exponential window
	ejected     bool
	until       time.Duration
	mEject      *metrics.Counter
	mRestore    *metrics.Counter
}

// NewBreaker builds a breaker over a fixed backend set. cfg must already
// have defaults applied (Policy.withDefaults); reg may be nil for tests.
func NewBreaker(cfg BreakerConfig, service string, backends []string, reg *metrics.Registry) *Breaker {
	b := &Breaker{
		cfg:    cfg,
		states: make(map[string]*breakerState, len(backends)),
		names:  append([]string(nil), backends...),
	}
	if reg != nil {
		b.mDenied = reg.Counter(MetricBreakerDeniedTotal, metrics.Labels{"service": service})
	}
	for _, name := range backends {
		st := &breakerState{name: name}
		if reg != nil {
			st.mEject = reg.Counter(MetricBreakerEjectionsTotal, metrics.Labels{"service": service, "backend": name})
			st.mRestore = reg.Counter(MetricBreakerRestoresTotal, metrics.Labels{"service": service, "backend": name})
		}
		b.states[name] = st
	}
	return b
}

// Record feeds one response outcome into the breaker and returns the end of
// the ejection window it opened, or 0 when it opened none. Failures of a
// backend already ejected — stragglers that were in flight when it was —
// neither extend its window nor count another ejection. Unknown backends
// (probe synthetics, backends added after Apply) are ignored.
func (b *Breaker) Record(now time.Duration, backend string, success bool) time.Duration {
	st, ok := b.states[backend]
	if !ok {
		return 0
	}
	b.maybeRestore(st, now)
	if success {
		st.consecFails = 0
		return 0
	}
	st.consecFails++
	if st.ejected || st.consecFails < b.cfg.ConsecutiveFailures {
		return 0
	}
	if !b.canEject() {
		// At the max-ejection-percent cap: suppress, and restart the
		// consecutive count so the backend must earn ejection afresh
		// once capacity frees up.
		st.consecFails = 0
		if b.mDenied != nil {
			b.mDenied.Inc()
		}
		return 0
	}
	st.ejected = true
	st.until = now + b.window(st.ejections)
	st.ejections++
	st.consecFails = 0
	b.ejected++
	if st.mEject != nil {
		st.mEject.Inc()
	}
	return st.until
}

// canEject applies the max-ejection-percent guard: one more ejection is
// allowed while the ejected fraction stays within the cap, and the first
// ejection is always allowed (Envoy's "at least one host" rule).
func (b *Breaker) canEject() bool {
	if b.ejected == 0 {
		return true
	}
	return float64(b.ejected+1) <= b.cfg.MaxEjectionPercent*float64(len(b.states))
}

// window is the ejection duration for a backend's nth ejection:
// BaseEjection·2ⁿ capped at MaxEjection.
func (b *Breaker) window(nth int) time.Duration {
	w := b.cfg.BaseEjection
	for i := 0; i < nth; i++ {
		w *= 2
		if w >= b.cfg.MaxEjection {
			return b.cfg.MaxEjection
		}
	}
	if w > b.cfg.MaxEjection {
		w = b.cfg.MaxEjection
	}
	return w
}

func (b *Breaker) maybeRestore(st *breakerState, now time.Duration) {
	if st.ejected && now >= st.until {
		st.ejected = false
		st.consecFails = 0
		b.ejected--
		if st.mRestore != nil {
			st.mRestore.Inc()
		}
	}
}

// Allowed reports whether a backend is currently in rotation, restoring it
// first if its ejection window has expired. Unknown backends are allowed.
func (b *Breaker) Allowed(now time.Duration, backend string) bool {
	st, ok := b.states[backend]
	if !ok {
		return true
	}
	b.maybeRestore(st, now)
	return !st.ejected
}

// EjectedCount returns how many backends are currently ejected, after
// lazily restoring any whose window has expired.
func (b *Breaker) EjectedCount(now time.Duration) int {
	for _, name := range b.names {
		b.maybeRestore(b.states[name], now)
	}
	return b.ejected
}

// breakerPicker filters the ejected backends out of every pick and
// delegates to the strategy that was installed when the policy was
// applied, forwarding per-response feedback to it. The filter fails open:
// if every backend is ejected (possible only transiently, since the
// ejection-percent guard blocks ejecting the last ones) the unfiltered
// set is used. The allowed slice is a reusable scratch buffer, so
// filtering allocates nothing in the steady state.
type breakerPicker struct {
	breaker *Breaker
	inner   mesh.Picker // nil means the mesh's uniform-random fallback
	rng     *sim.Rand
	scratch []*mesh.Backend
}

func (p *breakerPicker) Pick(now time.Duration, src, service string, backends []*mesh.Backend) *mesh.Backend {
	allowed := p.scratch[:0]
	for _, b := range backends {
		if p.breaker.Allowed(now, b.Name) {
			allowed = append(allowed, b)
		}
	}
	p.scratch = allowed
	if len(allowed) == 0 {
		allowed = backends
	}
	if p.inner == nil {
		return allowed[p.rng.IntN(len(allowed))]
	}
	return p.inner.Pick(now, src, service, allowed)
}

// Observe forwards response feedback to the wrapped strategy, preserving
// per-request balancers (P2C, PeakEWMA) under the filter.
func (p *breakerPicker) Observe(now time.Duration, src, backendName string, latency time.Duration, success bool) {
	if obs, ok := p.inner.(mesh.Observer); ok {
		obs.Observe(now, src, backendName, latency, success)
	}
}
