package serve

import (
	"net/http"

	"l3/internal/metrics"
	"l3/internal/overload"
)

// HeaderCriticality carries a request's criticality tier ("critical",
// "default", "sheddable"; overload.ParseTier's grammar). Unmarked requests
// run at TierDefault. Under overload the tier gate clamps sheddable traffic
// first, then default, and a CoDel drop falls on the most sheddable queued
// request; critical is only ever rejected by queue overflow or the MaxWait
// staleness ceiling, never by the gate or by the drop law.
const HeaderCriticality = "X-L3-Criticality"

// Serve-side admission gauges, beside the counters and limit gauge that
// overload.Metrics mirrors on both clocks. The admitter counts under its own
// mutex; each scrape folds a snapshot into these series, so /metrics shows
// them without the request path touching the registry.
const (
	// MetricAdmissionQueueDepth gauges requests parked in the admission
	// queue right now.
	MetricAdmissionQueueDepth = "overload_queue_depth"
	// MetricAdmitMaxTier gauges the highest tier currently admitted
	// (NumTiers-1 = everything, 0 = critical only).
	MetricAdmitMaxTier = "overload_admit_max_tier"
	// MetricMaxSojournSeconds gauges the longest queue wait any admitted
	// request has experienced — the bounded-delay witness.
	MetricMaxSojournSeconds = "overload_queue_max_sojourn_seconds"
)

// admissionMetrics are the /metrics handles for the admission layer: the
// shared mirror plus the three gauges only the wall plane exports.
type admissionMetrics struct {
	*overload.Metrics
	gQueue, gAdmitMax, gMaxSojourn *metrics.Gauge
}

func newAdmissionMetrics(reg *metrics.Registry, service string) *admissionMetrics {
	labels := metrics.Labels{"service": service}
	return &admissionMetrics{
		Metrics:     overload.NewMetrics(reg, service),
		gQueue:      reg.Gauge(MetricAdmissionQueueDepth, labels),
		gAdmitMax:   reg.Gauge(MetricAdmitMaxTier, labels),
		gMaxSojourn: reg.Gauge(MetricMaxSojournSeconds, labels),
	}
}

// sync folds an admitter snapshot into the registry.
func (m *admissionMetrics) sync(st overload.Stats) {
	m.Sync(st)
	m.gQueue.Set(float64(st.QueueLen))
	m.gAdmitMax.Set(float64(st.AdmitMax))
	m.gMaxSojourn.Set(st.MaxSojourn.Seconds())
}

// newUpstreamTransport builds the one transport every upstream attempt
// goes through, with the connection pool sized from config:
// net/http's default of 2 idle conns per host forces reconnect churn
// exactly when a recovering backend faces its backlog.
func newUpstreamTransport(cfg Config) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = cfg.MaxIdleConnsPerHost
	if t.MaxIdleConns < cfg.MaxIdleConnsPerHost {
		t.MaxIdleConns = cfg.MaxIdleConnsPerHost * 4
	}
	t.IdleConnTimeout = cfg.IdleConnTimeout
	return t
}

// shedResponse answers a rejected request: tier-gated sheds are the
// client's fault class (429 — slow down, or mark the request critical),
// every other shed is the proxy declining work (503). Both carry
// Retry-After so well-behaved clients back off, and both happen before any
// backend was picked or any retry-budget token moved.
func shedResponse(w http.ResponseWriter, v overload.Verdict) {
	w.Header().Set("Retry-After", "1")
	code := http.StatusServiceUnavailable
	if v == overload.ShedTier {
		code = http.StatusTooManyRequests
	}
	http.Error(w, "overloaded: "+v.String(), code)
}
