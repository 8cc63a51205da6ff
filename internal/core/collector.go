// Package core implements L3: the latency-aware multi-cluster load
// balancer of the paper. It contains the three components of §3 — the
// metrics collector, the weight assigner (Algorithm 1) and the rate
// controller (Algorithm 2) — plus the Kubernetes-operator shell of §4: a
// control loop that watches TrafficSplits, periodically folds fresh
// data-plane metrics into per-backend EWMAs, recomputes weights and writes
// them back through the SMI store, gated on lease-based leader election.
package core

import (
	"slices"
	"time"

	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/timeseries"
)

// BackendMetrics is one backend's aggregated data-plane view over the
// collector's query window — the exact inputs Algorithm 1 consumes.
type BackendMetrics struct {
	// RPS is the measured requests/second (all classifications).
	RPS float64
	// SuccessRate is successful/total responses in [0, 1].
	SuccessRate float64
	// P99 is the configured percentile of successful-response latency in
	// seconds; valid only when P99Valid (a backend can have traffic but no
	// successful responses in the window).
	P99      float64
	P99Valid bool
	// MeanLatency is the mean successful-response latency in seconds
	// (used by the C3 adaptation, which scores on means); valid with
	// MeanValid.
	MeanLatency float64
	MeanValid   bool
	// FailureMeanLatency is the mean latency of FAILED responses in
	// seconds — the client-perceived round-trip of a failure, the
	// continuous feedback the paper's future-work section wants to derive
	// the penalty factor P from. Valid with FailureMeanValid.
	FailureMeanLatency float64
	FailureMeanValid   bool
	// Inflight is the average number of outstanding requests.
	Inflight float64
	// HasTraffic is false when the window held no rate-computable samples
	// (≥10 s without traffic, per §4); the weighter then relaxes its
	// filters toward their defaults instead of observing.
	HasTraffic bool
	// LastSample is the scrape timestamp of the backend's newest stored
	// response sample (0 = none ever) — the freshness clock internal/guard
	// classifies fresh/stale/blind from.
	LastSample time.Duration
	// Starved distinguishes a data gap from genuine idleness: true when the
	// backend has stored samples but the window could not compute a rate
	// (fewer than two in-window points — dropped scrapes, rejected garbage,
	// skew-reordered stamps). A truly idle backend has fresh samples and a
	// zero rate instead.
	Starved bool
	// ResetSeen is true when the hygiene layer spliced a counter reset for
	// this backend inside the query window; the increments lost to the
	// restart make the window's rates untrustworthy for one round.
	ResetSeen bool
}

// Collector turns the time-series database into BackendMetrics snapshots.
// It issues the same four queries the paper's implementation sends to
// Prometheus every 5 s: RPS, success rate, latency percentile and in-flight
// requests, each over a trailing window wide enough to hold two scrapes.
type Collector struct {
	// DB is the scraped metrics store.
	DB *timeseries.DB
	// Window is the trailing query window (default 10 s — twice the 5 s
	// scrape interval, as §4 explains).
	Window time.Duration
	// Percentile selects the latency quantile for P99 (default 0.99; §3.1
	// notes L3 can be configured for e.g. the 98th or 99.9th).
	Percentile float64
	// Match restricts every query to series carrying these labels. A
	// per-cluster L3 instance sets Match to its own source cluster
	// ({"src": "cluster-2"}) so it only sees latency as measured from its
	// cluster's proxies.
	Match metrics.Labels
	// Resets reports counter-reset splices when a hygiene layer is
	// installed (nil = raw ingestion, no reset awareness).
	Resets ResetSource

	// selectors caches each (service, backend)'s label sets and the standing
	// selectors over them, so a round builds no label maps and, once the
	// database has seen every series, matches none. selectorMatch and
	// selectorDB are the Match and DB they were built from; a change in
	// either drops them all, and forget drops one backend's.
	selectors     map[selectorKey]*selectors
	selectorMatch metrics.Labels
	selectorDB    *timeseries.DB
	// out is what Collect returns, refilled by every call.
	out map[string]BackendMetrics
}

type selectorKey struct{ service, backend string }

// selectors are one backend's query targets. The label sets — every response
// series, and those classified success or failure — are what the standing
// selectors match on (shared, not copied) and what Resets is asked about.
type selectors struct {
	base, succ, fail metrics.Labels

	total, succTotal   timeseries.Selector // response_total: base, succ
	latency            timeseries.Selector // latency buckets: succ
	succSum, succCount timeseries.Selector // latency _sum/_count: succ
	failSum, failCount timeseries.Selector // latency _sum/_count: fail
	inflight           timeseries.Selector // in-flight gauge: base
}

func (c *Collector) selectorsFor(service, backend string) *selectors {
	key := selectorKey{service, backend}
	if sel, ok := c.selectors[key]; ok {
		return sel
	}
	base := metrics.Labels{"backend": backend}
	if service != "" {
		base["service"] = service
	}
	for k, v := range c.Match {
		base[k] = v
	}
	succ := base.With("classification", mesh.ClassSuccess)
	fail := base.With("classification", mesh.ClassFailure)
	const (
		buckets = mesh.MetricResponseLatency + "_bucket"
		sum     = mesh.MetricResponseLatency + "_sum"
		count   = mesh.MetricResponseLatency + "_count"
	)
	sel := &selectors{
		base: base, succ: succ, fail: fail,
		total:     timeseries.NewSelector(c.DB, mesh.MetricResponseTotal, base),
		succTotal: timeseries.NewSelector(c.DB, mesh.MetricResponseTotal, succ),
		latency:   timeseries.NewSelector(c.DB, buckets, succ),
		succSum:   timeseries.NewSelector(c.DB, sum, succ),
		succCount: timeseries.NewSelector(c.DB, count, succ),
		failSum:   timeseries.NewSelector(c.DB, sum, fail),
		failCount: timeseries.NewSelector(c.DB, count, fail),
		inflight:  timeseries.NewSelector(c.DB, mesh.MetricInflight, base),
	}
	c.selectors[key] = sel
	return sel
}

// forget drops a backend's cached selectors; the controller calls it when the
// backend leaves a split, so the cache holds the backends being collected and
// not every backend there has ever been.
func (c *Collector) forget(service, backend string) {
	delete(c.selectors, selectorKey{service, backend})
}

// ResetSource reports the most recent counter-reset splice among series
// matching a label set. Implemented by internal/guard's hygiene layer; the
// interface lives here so core does not import its guards.
type ResetSource interface {
	LastReset(match metrics.Labels) (time.Duration, bool)
}

func (c *Collector) window() time.Duration {
	if c.Window <= 0 {
		return 10 * time.Second
	}
	return c.Window
}

func (c *Collector) percentile() float64 {
	if c.Percentile <= 0 || c.Percentile >= 1 {
		return 0.99
	}
	return c.Percentile
}

// Collect gathers metrics for every named backend at virtual time at.
// service scopes the queries when non-empty (multiple services can share a
// backend name otherwise). The map it returns is the collector's: the next
// Collect clears and refills it.
func (c *Collector) Collect(at time.Duration, service string, backends []string) map[string]BackendMetrics {
	return c.collect(at, service, backends, 0)
}

// collect is Collect at latency quantile q (0 = Percentile): one split's
// policy asks for its own quantile from the selectors every split shares.
func (c *Collector) collect(at time.Duration, service string, backends []string, q float64) map[string]BackendMetrics {
	if q == 0 {
		q = c.percentile()
	}
	if c.out == nil {
		c.out = make(map[string]BackendMetrics, len(backends))
	}
	out := c.out
	clear(out)
	w := c.window()
	if c.selectors == nil || c.selectorDB != c.DB || !c.selectorMatch.Equal(c.Match) {
		c.selectors = make(map[selectorKey]*selectors)
		c.selectorMatch, c.selectorDB = c.Match.Clone(), c.DB
	}
	for _, b := range backends {
		sel := c.selectorsFor(service, b)
		var m BackendMetrics

		if last, ok := sel.total.NewestSample(); ok {
			m.LastSample = last
		}
		if c.Resets != nil {
			if rt, ok := c.Resets.LastReset(sel.base); ok && rt > at-w {
				m.ResetSeen = true
			}
		}

		totalRate, ok := sel.total.Rate(at, w)
		if !ok || totalRate <= 0 {
			// Distinguish a data gap (samples exist, but fewer than two in
			// the window) from a backend that is genuinely idle or unknown.
			m.Starved = !ok && m.LastSample > 0
			out[b] = m // HasTraffic stays false
			continue
		}
		m.HasTraffic = true
		m.RPS = totalRate

		succRate, ok := sel.succTotal.Rate(at, w)
		if !ok {
			succRate = 0
		}
		m.SuccessRate = succRate / totalRate
		if m.SuccessRate > 1 {
			m.SuccessRate = 1
		}

		if v, ok := sel.latency.HistogramQuantile(q, at, w); ok {
			m.P99 = v
			m.P99Valid = true
		}
		sumRate, okSum := sel.succSum.Rate(at, w)
		cntRate, okCnt := sel.succCount.Rate(at, w)
		if okSum && okCnt && cntRate > 0 {
			m.MeanLatency = sumRate / cntRate
			m.MeanValid = true
		}

		fSumRate, okFSum := sel.failSum.Rate(at, w)
		fCntRate, okFCnt := sel.failCount.Rate(at, w)
		if okFSum && okFCnt && fCntRate > 0 {
			m.FailureMeanLatency = fSumRate / fCntRate
			m.FailureMeanValid = true
		}

		if v, ok := sel.inflight.GaugeAvg(at, w); ok {
			m.Inflight = v
		}
		out[b] = m
	}
	return out
}

// TotalRPS sums the measured RPS of backends with traffic — the
// "RPS_last" sample Algorithm 2 compares against its EWMA. names lists m's
// keys in the order they are added (sorted, by every caller), so one input is
// one bit pattern whatever the map's order.
func TotalRPS(m map[string]BackendMetrics, names []string) float64 {
	var sum float64
	for _, b := range names {
		if bm := m[b]; bm.HasTraffic {
			sum += bm.RPS
		}
	}
	return sum
}

// sortedKeys refills dst with m's keys, sorted.
func sortedKeys[V any](dst []string, m map[string]V) []string {
	dst = dst[:0]
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}
