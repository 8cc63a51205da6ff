package guard

import (
	"slices"
	"time"

	"l3/internal/core"
	"l3/internal/metrics"
)

// backendClass is the degraded-mode state of one backend for one round.
type backendClass int

const (
	classFresh backendClass = iota
	classStale              // data gap or in-window reset: hold last-good weight
	classBlind              // past the blind TTL: decay toward the baseline
)

// Assigner wraps a core.Assigner with the staleness-aware degraded modes:
// only backends with fresh data reach the inner algorithm, stale backends
// hold their last-good weight (instead of letting the inner filters relax
// toward defaults and drift the split), blind backends decay toward a
// uniform-or-locality baseline, and a failed visibility quorum freezes the
// whole round.
//
// Holding works because the inner assigner never observes a held backend's
// round: its EWMAs stay at the last trustworthy state and resume seamlessly
// when data returns — "hold last-good" falls out of not feeding the filters,
// not from copying weights around.
type Assigner struct {
	inner core.Assigner
	cfg   Config
	held  map[string]float64

	holds, decays, frozen *metrics.Counter

	// Assign's scratch, kept from call to call: the round's backend names
	// sorted and each one's class, the fresh backends' metrics handed to
	// inner, and the weights Assign returns.
	names   []string
	classes []backendClass
	fresh   map[string]core.BackendMetrics
	out     map[string]float64
}

// NewAssigner wraps inner with degraded-mode handling. reg receives the
// guard's own counters when non-nil.
func NewAssigner(inner core.Assigner, cfg Config, reg *metrics.Registry) *Assigner {
	a := &Assigner{
		inner: inner, cfg: cfg.withDefaults(), held: make(map[string]float64),
		fresh: make(map[string]core.BackendMetrics), out: make(map[string]float64),
	}
	if reg == nil {
		a.holds, a.decays, a.frozen = &metrics.Counter{}, &metrics.Counter{}, &metrics.Counter{}
	} else {
		a.holds = reg.Counter(MetricHoldsTotal, nil)
		a.decays = reg.Counter(MetricDecaysTotal, nil)
		a.frozen = reg.Counter(MetricFrozenTotal, nil)
	}
	return a
}

// classify maps one backend's collected metrics to a degraded-mode class.
func (a *Assigner) classify(now time.Duration, bm core.BackendMetrics) backendClass {
	if bm.LastSample == 0 {
		// Never scraped: nothing to hold, nothing to trust — hand it to the
		// inner assigner, which treats it as traffic-less (the cold-start
		// path, identical to unguarded behaviour).
		return classFresh
	}
	age := now - bm.LastSample
	if age > a.cfg.BlindAfter {
		return classBlind
	}
	if age > a.cfg.StaleAfter {
		return classStale
	}
	if bm.Starved {
		// Samples exist but the window cannot compute a rate: a data gap
		// (dropped scrapes, rejected garbage, skew), not idleness. Genuine
		// idleness has fresh samples and a zero rate, and passes through.
		return classStale
	}
	if bm.ResetSeen {
		// A spliced counter reset lost the increments accumulated before
		// the restart; this window's rates read artificially low. Hold one
		// round rather than feed the dip into the EWMAs.
		return classStale
	}
	return classFresh
}

// Assign implements core.Assigner. The map it returns is the assigner's:
// the next Assign clears and refills it.
func (a *Assigner) Assign(now time.Duration, m map[string]core.BackendMetrics) map[string]float64 {
	names := a.names[:0]
	for b := range m {
		names = append(names, b)
	}
	slices.Sort(names)
	classes := a.classes[:0]
	fresh := 0
	for _, b := range names {
		c := a.classify(now, m[b])
		classes = append(classes, c)
		if c == classFresh {
			fresh++
		}
	}
	a.names, a.classes = names, classes
	out := a.out
	clear(out)

	// Partial-visibility quorum: reweighting from a sliver of the fleet
	// amplifies the survivors, so freeze instead. Only meaningful once
	// weights have been held at least once (cold start passes through).
	if len(names) > 0 && len(a.held) > 0 &&
		float64(fresh) < a.cfg.Quorum*float64(len(names)) {
		a.frozen.Inc()
		anchor := a.anchor(names)
		for _, b := range names {
			out[b] = a.heldOr(b, anchor)
		}
		return out
	}

	mFresh := a.fresh
	clear(mFresh)
	for i, b := range names {
		if classes[i] == classFresh {
			mFresh[b] = m[b]
		}
	}
	inner := a.inner.Assign(now, mFresh)

	anchor := a.anchor(names)
	for i, b := range names {
		switch classes[i] {
		case classFresh:
			w := inner[b]
			out[b] = w
			a.held[b] = w
		case classStale:
			a.holds.Inc()
			w := a.heldOr(b, anchor)
			out[b] = w
			a.held[b] = w
		case classBlind:
			a.decays.Inc()
			cur := a.heldOr(b, anchor)
			w := cur + a.cfg.DecayFraction*(a.baseline(b, names, anchor)-cur)
			out[b] = w
			a.held[b] = w
		}
	}
	return out
}

// anchor is the mean held weight across the round's backends — the scale
// that "uniform" means at, since weights are only meaningful as ratios.
func (a *Assigner) anchor(names []string) float64 {
	sum, n := 0.0, 0
	for _, b := range names {
		if w, ok := a.held[b]; ok {
			sum += w
			n++
		}
	}
	if n == 0 || sum <= 0 {
		return 1
	}
	return sum / float64(n)
}

func (a *Assigner) heldOr(b string, fallback float64) float64 {
	if w, ok := a.held[b]; ok {
		return w
	}
	return fallback
}

// baseline is the degraded-mode target weight for one blind backend:
// uniform (the anchor) by default, or the configured locality split
// renormalised to the anchor's scale.
func (a *Assigner) baseline(b string, names []string, anchor float64) float64 {
	if len(a.cfg.BaselineWeights) == 0 {
		return anchor
	}
	sum := 0.0
	for _, n := range names {
		sum += a.cfg.BaselineWeights[n]
	}
	if sum <= 0 {
		return anchor
	}
	return a.cfg.BaselineWeights[b] / sum * float64(len(names)) * anchor
}

// Forget implements core.Assigner.
func (a *Assigner) Forget(backend string) {
	delete(a.held, backend)
	a.inner.Forget(backend)
}

// Inner exposes the wrapped assigner for instrumentation and tests.
func (a *Assigner) Inner() core.Assigner { return a.inner }

// FrozenRounds returns how many rounds the quorum froze.
func (a *Assigner) FrozenRounds() float64 { return a.frozen.Value() }
