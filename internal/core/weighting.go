package core

import (
	"math"
	"time"

	"l3/internal/ewma"
)

// WeightingConfig parameterises Algorithm 1 and the filters feeding it.
// The defaults are the paper's (§3.1, §4, §5.2.1).
type WeightingConfig struct {
	// Penalty is P, the latency cost of one failed request from the
	// client's perspective (default 600 ms per §5.2.1).
	Penalty time.Duration
	// DynamicPenalty derives P per backend from the measured round-trip
	// of its failed requests instead of the static constant — the paper's
	// future work ("determine the penalty factor P individually and
	// dynamically for each workload [from] continuous feedback about the
	// response time of unsuccessful requests", §7). The static Penalty
	// remains the filter's default until failures are observed.
	DynamicPenalty bool
	// FilterKind selects EWMA or PeakEWMA for the latency filter
	// (default EWMA, which §5.2.2 found slightly better).
	FilterKind ewma.Kind
	// InflightExponent is the power applied to (Rᵢ+1) in Equation 4
	// (default 2; exposed for the ablation the paper motivates when it
	// says squaring is a deliberate trade-off).
	InflightExponent float64

	// Filter half-lives (§4): latency and in-flight 5 s; success rate and
	// RPS 10 s.
	LatencyHalfLife  time.Duration
	InflightHalfLife time.Duration
	SuccessHalfLife  time.Duration
	RPSHalfLife      time.Duration
}

// The paper fixes these against its 5 s reconcile period (§4).
const (
	// The filters' defaults (λ per filter): 5 s latency, 100 % success,
	// 0 RPS; in-flight starts at 0 too.
	defaultLatency = 5 * time.Second
	defaultSuccess = 1
	defaultRPS     = 0

	// relaxFraction is the per-update step toward the default when a
	// backend has no traffic (§4's "small increments").
	relaxFraction = 0.1

	// minWeight floors Equation 4's output, and Algorithm 2's, so weights
	// stay positive and finite. Algorithms 1 and 2 floor at one weight
	// unit of the *integer* TrafficSplit weight — the controller's scaling
	// already clamps every backend to at least 1 of ~1000 units — so the
	// natural-unit floor here is only a numerical guard: flooring at 1 in
	// 1/seconds units would pin a quarter of a healthy backend's share onto
	// a backend that answers nothing, and override Algorithm 1's verdict on
	// degraded backends, whose healthy weights are the same order of
	// magnitude.
	minWeight = 0.001
)

// withDefaults fills zero fields with the paper's values.
func (c WeightingConfig) withDefaults() WeightingConfig {
	if c.Penalty <= 0 {
		c.Penalty = 600 * time.Millisecond
	}
	if c.FilterKind == 0 {
		c.FilterKind = ewma.KindEWMA
	}
	if c.InflightExponent <= 0 {
		c.InflightExponent = 2
	}
	if c.LatencyHalfLife <= 0 {
		c.LatencyHalfLife = 5 * time.Second
	}
	if c.InflightHalfLife <= 0 {
		c.InflightHalfLife = 5 * time.Second
	}
	if c.SuccessHalfLife <= 0 {
		c.SuccessHalfLife = 10 * time.Second
	}
	if c.RPSHalfLife <= 0 {
		c.RPSHalfLife = 10 * time.Second
	}
	return c
}

// backendFilters is the per-backend EWMA state of §3.1.
type backendFilters struct {
	latency  ewma.Filter // of the P99 of successful requests, seconds
	success  ewma.Filter // of the success rate
	rps      ewma.Filter // of requests/second
	inflight ewma.Filter // of in-flight requests
	failRTT  ewma.Filter // of failed-request latency (dynamic penalty)
}

// BackendView exposes a backend's current filtered state for
// instrumentation and tests.
type BackendView struct {
	Latency  float64
	Success  float64
	RPS      float64
	Inflight float64
	Weight   float64
}

// Weighter implements Algorithm 1: it folds fresh BackendMetrics into the
// per-backend filters and converts the filtered state into weights via
// Equations 3 and 4. Not safe for concurrent use.
type Weighter struct {
	cfg     WeightingConfig
	filters map[string]*backendFilters
	last    map[string]float64 // most recent weights, for instrumentation
	// names (m's keys, sorted) and out are the last Update's, reused by the
	// next.
	names []string
	out   map[string]float64
}

// NewWeighter returns a Weighter with cfg (zero fields take the paper's
// defaults).
func NewWeighter(cfg WeightingConfig) *Weighter {
	return &Weighter{
		cfg:     cfg.withDefaults(),
		filters: make(map[string]*backendFilters),
		last:    make(map[string]float64),
		out:     make(map[string]float64),
	}
}

// Config returns the effective (defaulted) configuration.
func (w *Weighter) Config() WeightingConfig { return w.cfg }

func (w *Weighter) filtersFor(b string) *backendFilters {
	f, ok := w.filters[b]
	if !ok {
		c := w.cfg
		f = &backendFilters{
			latency:  ewma.NewFilter(c.FilterKind, c.LatencyHalfLife, defaultLatency.Seconds()),
			success:  ewma.NewFilter(ewma.KindEWMA, c.SuccessHalfLife, defaultSuccess),
			rps:      ewma.NewFilter(ewma.KindEWMA, c.RPSHalfLife, defaultRPS),
			inflight: ewma.NewFilter(ewma.KindEWMA, c.InflightHalfLife, 0),
			failRTT:  ewma.NewFilter(ewma.KindEWMA, c.SuccessHalfLife, c.Penalty.Seconds()),
		}
		w.filters[b] = f
	}
	return f
}

// Update folds the collected metrics in and returns the weight of every
// backend present in m, per Algorithm 1. Backends without traffic relax
// toward their filter defaults (§4). Weights are in Equation 4's natural
// unit (1/seconds); callers scale them to integers for TrafficSplits. The
// returned map is the weighter's: the next Update clears and refills it.
func (w *Weighter) Update(now time.Duration, m map[string]BackendMetrics) map[string]float64 {
	w.names = sortedKeys(w.names, m)
	out := w.out
	clear(out)
	for _, b := range w.names {
		bm := m[b]
		f := w.filtersFor(b)
		if bm.HasTraffic {
			if bm.P99Valid {
				f.latency.Observe(now, bm.P99)
			}
			f.success.Observe(now, bm.SuccessRate)
			f.rps.Observe(now, bm.RPS)
			f.inflight.Observe(now, bm.Inflight)
			if w.cfg.DynamicPenalty && bm.FailureMeanValid {
				f.failRTT.Observe(now, bm.FailureMeanLatency)
			}
		} else {
			f.latency.Relax(now, relaxFraction)
			f.success.Relax(now, relaxFraction)
			f.rps.Relax(now, relaxFraction)
			f.inflight.Relax(now, relaxFraction)
			if w.cfg.DynamicPenalty {
				f.failRTT.Relax(now, relaxFraction)
			}
		}
		out[b] = w.weightOf(f)
		w.last[b] = out[b]
	}
	return out
}

// weightOf is Algorithm 1 lines 3-18 for one backend.
func (w *Weighter) weightOf(f *backendFilters) float64 {
	ls := f.latency.Value() // Lₛ, seconds
	rs := f.success.Value() // Rₛ
	rps := f.rps.Value()    // R_rps
	ri := 0.0               // Rᵢ, normalised in-flight
	if rps != 0 {
		ri = f.inflight.Value() / rps
	}
	if ri < 0 {
		ri = 0
	}

	// Equation 3: Lest = Lₛ + P·(1/Rₛ − 1); 1/Rₛ is the expected number of
	// tries until a success (geometric distribution). With DynamicPenalty,
	// P is the backend's measured failure round-trip instead of the
	// static constant.
	penalty := w.cfg.Penalty.Seconds()
	if w.cfg.DynamicPenalty {
		penalty = f.failRTT.Value()
	}
	lest := ls
	if rs > 0 {
		lest = ls + penalty*(1/rs-1)
	}
	if lest <= 0 {
		lest = 1e-6 // guard: weights stay finite
	}

	// Equation 4 with the configurable exponent (paper default 2).
	wb := 1 / (math.Pow(ri+1, w.cfg.InflightExponent) * lest)
	if wb < minWeight {
		wb = minWeight
	}
	return wb
}

// View returns the backend's current filtered state, for metrics export
// and tests. ok is false for a backend the weighter has never seen.
func (w *Weighter) View(b string) (BackendView, bool) {
	f, ok := w.filters[b]
	if !ok {
		return BackendView{}, false
	}
	return BackendView{
		Latency:  f.latency.Value(),
		Success:  f.success.Value(),
		RPS:      f.rps.Value(),
		Inflight: f.inflight.Value(),
		Weight:   w.last[b],
	}, true
}

// Forget drops all filter state of a backend (used when a TrafficSplit
// backend is removed).
func (w *Weighter) Forget(b string) {
	delete(w.filters, b)
	delete(w.last, b)
}
