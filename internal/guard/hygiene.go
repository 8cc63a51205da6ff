package guard

import (
	"math"
	"sync"
	"time"

	"l3/internal/metrics"
)

// Hygiene is the ingestion gate: install it on a timeseries.DB with SetGate
// and every scraped sample is screened before storage. It implements
// timeseries.Gate and core.ResetSource.
//
// Admission rules, per series:
//
//   - NaN, ±Inf and negative values are rejected (one poisoned sample would
//     otherwise NaN the EWMAs permanently — EWMA(NaN) never recovers).
//   - A duplicate scrape timestamp is rejected; the first write wins.
//   - An out-of-order timestamp is rejected (Prometheus semantics: the
//     series frontier only moves forward), but the rejection is counted so
//     skew is observable rather than silent.
//   - A counter falling to at most half of its previous value is a
//     genuine restart: the previous raw value is added to a cumulative
//     offset and the series continues spliced, so windowed increases never
//     misread the restart as negative growth. The splice time is recorded
//     for the collector's ResetSeen flag.
//   - A shallower counter decrease is not a plausible restart (restarted
//     counters re-expose from ~0) and is rejected as an anomaly — this is
//     what stops raw increase()'s "any decrease is a reset" heuristic from
//     double-counting corrupt samples.
type Hygiene struct {
	mu    sync.Mutex
	index metrics.Index[seriesState]
	// reset lists the series that have ever spliced a reset, all LastReset
	// has to look at.
	reset []*metrics.Entry[seriesState]

	rejNaN, rejNegative, rejOutOfOrder, rejDuplicate, rejAnomaly *metrics.Counter
	resets                                                       *metrics.Counter
}

// seriesState is what the gate keeps of one series: 32 bytes, so that with
// the index's fields a state is one 64-byte slot of a chunk.
type seriesState struct {
	lastT     time.Duration
	lastRaw   float64
	offset    float64
	lastReset time.Duration // never until the series splices a reset
}

// never is lastReset before a series' first splice.
const never = time.Duration(math.MinInt64)

// NewHygiene returns a hygiene gate. reg receives the gate's own counters
// (created eagerly so registration order is stable); nil keeps them private.
// The gate's rules are ratios and orderings, not ages, so it reads nothing
// from the Config.
func NewHygiene(_ Config, reg *metrics.Registry) *Hygiene {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	h := &Hygiene{}
	counter := func(reason string) *metrics.Counter {
		return reg.Counter(MetricRejectedTotal, metrics.Labels{"reason": reason})
	}
	h.rejNaN = counter("nan")
	h.rejNegative = counter("negative")
	h.rejOutOfOrder = counter("outoforder")
	h.rejDuplicate = counter("duplicate")
	h.rejAnomaly = counter("anomaly")
	h.resets = reg.Counter(MetricResetsTotal, nil)
	return h
}

// Admit implements timeseries.Gate. The labels map is never modified
// afterwards: the gate keeps it as the state's labels, and finds the state of
// a map it has resolved twice in a row under one name by the map object
// alone (see metrics.Index).
func (h *Hygiene) Admit(name string, labels metrics.Labels, kind metrics.Kind, t time.Duration, v float64) (float64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.rejNaN.Inc()
		return 0, false
	}
	if v < 0 {
		// Every series in this system is non-negative by construction
		// (counters by contract, the gauges count in-flight requests and
		// leadership), so a negative value is corruption, not data.
		h.rejNegative.Inc()
		return 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	e, created := h.index.Resolve(name, labels)
	st := &e.Value
	if created {
		st.lastT, st.lastRaw, st.lastReset = t, v, never
		return v, true
	}
	if t == st.lastT {
		h.rejDuplicate.Inc()
		return 0, false
	}
	if t < st.lastT {
		h.rejOutOfOrder.Inc()
		return 0, false
	}
	if kind == metrics.KindCounter && v < st.lastRaw {
		if v <= st.lastRaw*resetFraction {
			// Genuine restart: splice onto the cumulative offset.
			st.offset += st.lastRaw
			if st.lastReset == never {
				h.reset = append(h.reset, e)
			}
			st.lastReset = t
			h.resets.Inc()
		} else {
			h.rejAnomaly.Inc()
			return 0, false
		}
	}
	st.lastT = t
	st.lastRaw = v
	if kind == metrics.KindCounter {
		v += st.offset
	}
	return v, true
}

// LastReset implements core.ResetSource: the most recent splice time among
// series matching the label set (subset match).
func (h *Hygiene) LastReset(match metrics.Labels) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var best time.Duration
	any := false
	for _, e := range h.reset {
		if e.Labels().Matches(match) {
			if !any || e.Value.lastReset > best {
				best = e.Value.lastReset
			}
			any = true
		}
	}
	return best, any
}

// RejectedTotal returns how many samples have been rejected, all reasons
// combined (for tests and reports).
func (h *Hygiene) RejectedTotal() float64 {
	return h.rejNaN.Value() + h.rejNegative.Value() + h.rejOutOfOrder.Value() +
		h.rejDuplicate.Value() + h.rejAnomaly.Value()
}

// ResetsTotal returns how many counter resets have been spliced.
func (h *Hygiene) ResetsTotal() float64 { return h.resets.Value() }
