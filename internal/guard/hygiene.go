package guard

import (
	"math"
	"sync"
	"time"
	"unsafe"

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
//   - A counter falling to at most ResetFraction of its previous value is a
//     genuine restart: the previous raw value is added to a cumulative
//     offset and the series continues spliced, so windowed increases never
//     misread the restart as negative growth. The splice time is recorded
//     for the collector's ResetSeen flag.
//   - A shallower counter decrease is not a plausible restart (restarted
//     counters re-expose from ~0) and is rejected as an anomaly — this is
//     what stops raw increase()'s "any decrease is a reset" heuristic from
//     double-counting corrupt samples.
type Hygiene struct {
	mu  sync.Mutex
	cfg Config
	// series finds a series' state by metric name, then by label-map identity
	// or else by label hash — no key string is built per sample.
	series map[string]*states
	// names lists the metric names in first-sight order; a state names its
	// metric by an index here.
	names []string
	// last is the state the previous resolution landed on: its succ is the
	// next resolution's guess.
	last *seriesState
	// reset lists the series that have ever spliced a reset, all LastReset
	// has to look at.
	reset []*seriesState
	// mapped and hashed count states resolved through the name map and by
	// the hash path, for the tests.
	mapped, hashed uint64
	// spare is the rest of the chunk new states are handed out of.
	spare []seriesState

	rejNaN, rejNegative, rejOutOfOrder, rejDuplicate, rejAnomaly *metrics.Counter
	resets                                                       *metrics.Counter
}

// states is one metric name's series states: by the label maps the index
// has recognised, and by label hash with colliding label sets chained.
type states struct {
	ordinal uint32 // the index of its name in Hygiene.names
	byMap   metrics.MapIndex[seriesState]
	byHash  map[uint64]*seriesState
}

// hashLabels is the hash path's label hash; the collision tests force it.
var hashLabels = metrics.Labels.Hash

type seriesState struct {
	// labels is the map the state was created with, or the last other equal
	// map the hash path resolved it under; indexed says the name's byMap holds
	// it for the state.
	labels            metrics.Labels
	next              *seriesState // next state of the family with the same label hash
	succ              *seriesState // what the resolution after this state's landed on last time
	lastT             time.Duration
	lastRaw           float64
	offset            float64
	lastReset         time.Duration
	hasReset, indexed bool
	name              uint32 // the metric name's index in Hygiene.names: a number, not a pointer, keeps a state at 64 bytes
}

// NewHygiene returns a hygiene gate. reg receives the gate's own counters
// when non-nil (they are created eagerly so registration order is stable).
func NewHygiene(cfg Config, reg *metrics.Registry) *Hygiene {
	h := &Hygiene{cfg: cfg.withDefaults(), series: make(map[string]*states)}
	counter := func(reason string) *metrics.Counter {
		if reg == nil {
			return &metrics.Counter{}
		}
		return reg.Counter(MetricRejectedTotal, metrics.Labels{"reason": reason})
	}
	h.rejNaN = counter("nan")
	h.rejNegative = counter("negative")
	h.rejOutOfOrder = counter("outoforder")
	h.rejDuplicate = counter("duplicate")
	h.rejAnomaly = counter("anomaly")
	if reg == nil {
		h.resets = &metrics.Counter{}
	} else {
		h.resets = reg.Counter(MetricResetsTotal, nil)
	}
	return h
}

// Admit implements timeseries.Gate. The labels map is never modified
// afterwards: the gate keeps it as the state's labels, and finds the state of
// a map it has resolved twice in a row under one name by the map object
// alone (see metrics.MapIndex).
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
	st, created := h.state(name, labels)
	if created {
		st.lastT = t
		st.lastRaw = v
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
		if v <= st.lastRaw*h.cfg.ResetFraction {
			// Genuine restart: splice onto the cumulative offset.
			st.offset += st.lastRaw
			st.lastReset = t
			if !st.hasReset {
				st.hasReset = true
				h.reset = append(h.reset, st)
			}
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

// state returns the series' state, creating it on first sight. Like
// timeseries.DB's resolve, it first guesses the state that followed the
// previous resolution's last time, and takes it when the name's index holds
// the labels' map for it and it is of this name: exactly when the name map
// and the index would find it. Otherwise the name's states find it by the
// labels' map object when indexed, else by hash, where distinct label sets
// that collide share a chain; it becomes the previous state's successor.
func (h *Hygiene) state(name string, labels metrics.Labels) (st *seriesState, created bool) {
	prev := h.last
	if prev != nil {
		if st = prev.succ; st != nil && st.indexed && metrics.SameMap(st.labels, labels) && h.names[st.name] == name {
			h.last = st
			return st, false
		}
	}
	h.mapped++
	named, ok := h.series[name]
	if !ok {
		named = &states{ordinal: uint32(len(h.names)), byHash: make(map[uint64]*seriesState)}
		h.series[name] = named
		h.names = append(h.names, name)
	}
	if st = named.byMap.Lookup(labels); st == nil {
		h.hashed++
		hash := hashLabels(labels)
		st = named.byHash[hash]
		for st != nil && !st.labels.Equal(labels) {
			st = st.next
		}
		if st == nil {
			st = h.newState()
			st.labels, st.next, st.name = labels, named.byHash[hash], named.ordinal
			named.byHash[hash] = st
			created = true
		} else {
			named.byMap.Resolved(labels, st, &st.labels, &st.indexed)
		}
	}
	if prev != nil {
		prev.succ = st
	}
	h.last = st
	return st, created
}

// stateChunk is how many states one allocation makes: as many as fill the
// 16 KiB size class beside the 8-byte header of a pointer-holding object.
const stateChunk = int((16<<10 - 8) / unsafe.Sizeof(seriesState{}))

// newState hands out the next zeroed state of the current chunk, making a
// chunk when none is left; called under mu.
func (h *Hygiene) newState() *seriesState {
	if len(h.spare) == 0 {
		h.spare = make([]seriesState, stateChunk)
	}
	st := &h.spare[0]
	h.spare = h.spare[1:]
	return st
}

// LastReset implements core.ResetSource: the most recent splice time among
// series matching the label set (subset match).
func (h *Hygiene) LastReset(match metrics.Labels) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var best time.Duration
	any := false
	for _, st := range h.reset {
		if st.labels.Matches(match) {
			if !any || st.lastReset > best {
				best = st.lastReset
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
