// Package guard is the control-plane hardening layer: it defends L3's
// reconcile loop against the telemetry failures chaos injects (and
// production produces) at the three points where bad data becomes bad
// traffic steering.
//
//   - Ingestion (Hygiene, a timeseries.Gate): NaN/Inf/negative samples are
//     rejected before they can poison EWMAs, counter resets are detected and
//     spliced onto a cumulative offset (Prometheus rate()-style), duplicate
//     and out-of-order scrape timestamps are tolerated, and per-series
//     freshness is tracked.
//   - Reweighting (Assigner, wrapping a core.Assigner): each backend is
//     classified fresh / stale / blind from its sample freshness. Stale
//     backends hold their last-good weight instead of relaxing toward
//     defaults; blind backends decay toward uniform; and when fewer than a
//     quorum fraction of backends report, reweighting freezes entirely
//     rather than amplify the survivors.
//   - Writes (WriteGate, a core.WriteGuard, plus Watchdog): weight vectors
//     are validated (finite, non-negative, share-preserving under integer
//     scaling), per-round share movement is clamped beyond Algorithm 2's
//     damping, no-op churn is suppressed, and a watchdog degrades managed
//     splits to uniform when the reconcile loop stalls (on simulated
//     time, where a leader kill can stall it).
//
// Everything here runs on the scrape/control path (once per scrape or
// reconcile interval); the request fast path never touches it.
package guard

import "time"

// Metric families the guard layer exports about its own interventions.
const (
	// MetricRejectedTotal counts samples hygiene rejected, labelled with
	// reason (nan, negative, outoforder, duplicate, anomaly).
	MetricRejectedTotal = "guard_samples_rejected_total"
	// MetricResetsTotal counts counter resets detected and spliced.
	MetricResetsTotal = "guard_counter_resets_total"
	// MetricHoldsTotal counts backend-rounds where a stale backend held its
	// last-good weight.
	MetricHoldsTotal = "guard_stale_holds_total"
	// MetricDecaysTotal counts backend-rounds where a blind backend decayed
	// toward uniform.
	MetricDecaysTotal = "guard_blind_decays_total"
	// MetricFrozenTotal counts reconcile rounds frozen by the
	// partial-visibility quorum.
	MetricFrozenTotal = "guard_quorum_frozen_rounds_total"
	// MetricWriteSuppressedTotal counts no-op writes suppressed by the gate.
	MetricWriteSuppressedTotal = "guard_writes_suppressed_total"
	// MetricWriteClampedTotal counts rounds where the gate clamped per-round
	// share movement.
	MetricWriteClampedTotal = "guard_writes_clamped_total"
	// MetricWriteRejectedTotal counts weight vectors the gate rejected
	// outright (non-finite, negative or mass-less).
	MetricWriteRejectedTotal = "guard_writes_rejected_total"
	// MetricWatchdogDegradesTotal counts watchdog firings that degraded
	// splits to uniform.
	MetricWatchdogDegradesTotal = "guard_watchdog_degrades_total"
)

// Config parameterises the guard layer: every time threshold in it is a
// multiple of the scrape interval, the control plane's one period (§4: a 5 s
// scrape, a 10 s rate() window, a 5 s reconcile).
type Config struct {
	// Interval is the scrape interval. Zero means 5 s, the paper's.
	Interval time.Duration
}

// The ratios the guard layer applies, whatever the interval.
const (
	// resetFraction classifies a counter decrease: a new value at or below
	// this fraction of the previous one is a genuine reset (spliced); a
	// shallower decrease is a corrupt sample (rejected).
	resetFraction = 0.5
	// decayStep is the share of its distance to uniform that Decay moves.
	decayStep = 0.2
	// quorum is the fraction of backends that must report fresh data for
	// reweighting to proceed; below it the round freezes.
	quorum = 0.5
	// maxShareDelta clamps how far one backend's traffic share may move in
	// a single write, beyond Algorithm 2's damping.
	maxShareDelta = 0.25
)

func (c Config) interval() time.Duration {
	if c.Interval <= 0 {
		return 5 * time.Second
	}
	return c.Interval
}

// StaleAfter is the sample age beyond which a backend is stale and holds its
// last-good weight: three scrape intervals.
func (c Config) StaleAfter() time.Duration { return 3 * c.interval() }

// blindAfter is the sample age beyond which a stale backend is blind and
// decays toward uniform, and how long the reconcile loop may stall before
// the watchdog degrades managed splits to uniform: six scrape intervals.
func (c Config) blindAfter() time.Duration { return 6 * c.interval() }

// Decay moves cur one step toward base: a fifth of the distance, the step a
// blind backend's weight and a fail-static routing table take each round.
func Decay(cur, base float64) float64 { return cur + decayStep*(base-cur) }
