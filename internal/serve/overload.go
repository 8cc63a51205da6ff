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

// Serve-side admission metric families, alongside the overload package's
// own counter names (which the sim client registers per service). The
// admitter keeps its counters under its own mutex for the hot path;
// serveMetrics folds a snapshot into these handles at scrape time, so
// /metrics shows them without the request path touching the registry.
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

// admissionMetrics are the /metrics handles for the admission layer. The
// counters mirror the admitter's internal stats; sync advances each by the
// snapshot delta (the stats are monotonic), gauges are set outright.
type admissionMetrics struct {
	admitted, codelDrop, overflow, lifoFlips, readmits *metrics.Counter
	shed                                               [overload.NumTiers]*metrics.Counter
	gLimit, gQueue, gAdmitMax, gMaxSojourn             *metrics.Gauge
}

func newAdmissionMetrics(reg *metrics.Registry, service string) *admissionMetrics {
	labels := metrics.Labels{"service": service}
	m := &admissionMetrics{
		admitted:    reg.Counter(overload.MetricAdmittedTotal, labels),
		codelDrop:   reg.Counter(overload.MetricCodelDroppedTotal, labels),
		overflow:    reg.Counter(overload.MetricQueueOverflowTotal, labels),
		lifoFlips:   reg.Counter(overload.MetricLifoFlipsTotal, labels),
		readmits:    reg.Counter(overload.MetricReadmitsTotal, labels),
		gLimit:      reg.Gauge(overload.MetricConcurrencyLimit, labels),
		gQueue:      reg.Gauge(MetricAdmissionQueueDepth, labels),
		gAdmitMax:   reg.Gauge(MetricAdmitMaxTier, labels),
		gMaxSojourn: reg.Gauge(MetricMaxSojournSeconds, labels),
	}
	for tier := 0; tier < overload.NumTiers; tier++ {
		m.shed[tier] = reg.Counter(overload.MetricShedTotal, labels.With("tier", overload.TierName(tier)))
	}
	return m
}

// sync folds an admitter snapshot into the registry. Only sync writes these
// counters, so each handle's current value is the last synced snapshot and
// the delta is exact.
func (m *admissionMetrics) sync(st overload.WallAdmitterStats) {
	catchUp := func(c *metrics.Counter, v int64) {
		if d := float64(v) - c.Value(); d > 0 {
			c.Add(d)
		}
	}
	catchUp(m.admitted, st.Admitted)
	catchUp(m.codelDrop, st.CodelDropped)
	catchUp(m.overflow, st.QueueOverflow)
	catchUp(m.lifoFlips, st.LifoFlips)
	catchUp(m.readmits, st.Readmits)
	for tier := 0; tier < overload.NumTiers; tier++ {
		catchUp(m.shed[tier], st.Shed[tier])
	}
	m.gLimit.Set(float64(st.TotalLimit))
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
