package guard

import (
	"math"
	"slices"
	"sync"
	"time"

	"l3/internal/metrics"
	"l3/internal/smi"
)

// WriteGate implements core.WriteGuard: the last line of defense between a
// computed weight vector and the TrafficSplit store. It rejects non-finite,
// negative or mass-less vectors, clamps per-round traffic-share movement
// (beyond Algorithm 2's damping, which bounds global rate change but not a
// single backend's share velocity), scales shares to integers through
// smi.ScaleWeights (preserving the sum invariant), and suppresses writes
// that would not change the stored split.
//
// Observe and LastRound are safe from any goroutine; Guard calls must be
// serialized, as the controllers that share a gate run on one clock.
type WriteGate struct {
	mu        sync.Mutex
	cfg       Config
	lastRound time.Duration
	haveRound bool

	suppressed, clamped, rejected *metrics.Counter

	// Guard's scratch, kept from call to call: the weights' names sorted,
	// the split's current weights, the proposed and clamped shares, and the
	// integer weights it returns.
	names          []string
	current        map[string]int64
	proposed, next map[string]float64
	ints           map[string]int64
}

// NewWriteGate returns a write gate. reg receives the gate's own counters
// when non-nil.
func NewWriteGate(cfg Config, reg *metrics.Registry) *WriteGate {
	g := &WriteGate{
		cfg:     cfg.withDefaults(),
		current: make(map[string]int64), ints: make(map[string]int64),
		proposed: make(map[string]float64), next: make(map[string]float64),
	}
	if reg == nil {
		g.suppressed, g.clamped, g.rejected = &metrics.Counter{}, &metrics.Counter{}, &metrics.Counter{}
	} else {
		g.suppressed = reg.Counter(MetricWriteSuppressedTotal, nil)
		g.clamped = reg.Counter(MetricWriteClampedTotal, nil)
		g.rejected = reg.Counter(MetricWriteRejectedTotal, nil)
	}
	return g
}

// Observe implements core.WriteGuard: it marks a live reconcile round, the
// heartbeat the watchdog listens for.
func (g *WriteGate) Observe(now time.Duration) {
	g.mu.Lock()
	g.lastRound = now
	g.haveRound = true
	g.mu.Unlock()
}

// LastRound returns the time of the last observed reconcile round.
func (g *WriteGate) LastRound() (time.Duration, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lastRound, g.haveRound
}

// Guard implements core.WriteGuard. ok=false means the round's write is
// suppressed (invalid vector or no-op churn); the caller must not write the
// split. The map it returns is the gate's: the next Guard refills it.
func (g *WriteGate) Guard(now time.Duration, ts *smi.TrafficSplit, weights map[string]float64) (map[string]int64, bool) {
	g.Observe(now)

	names := g.names[:0]
	for b, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			g.rejected.Inc()
			return nil, false
		}
		names = append(names, b)
	}
	slices.Sort(names)
	g.names = names
	sum := 0.0 // in name order, so one input is one bit pattern
	for _, b := range names {
		sum += weights[b]
	}
	if len(names) == 0 || sum <= 0 {
		g.rejected.Inc()
		return nil, false
	}

	// Proposed and current traffic shares.
	proposed, current := g.proposed, g.current
	clear(proposed)
	clear(current)
	for _, b := range names {
		proposed[b] = weights[b] / sum
	}
	var curTotal int64
	for _, be := range ts.Backends {
		current[be.Service] = be.Weight
		curTotal += be.Weight
	}

	// Per-round delta clamp: no backend's share moves more than
	// MaxShareDelta in one write. Only applicable once the split carries
	// weight (an inert all-zero split takes the proposal as-is).
	shares := proposed
	if curTotal > 0 {
		clamped := false
		next := g.next
		clear(next)
		total := 0.0
		for _, b := range names {
			cur := float64(current[b]) / float64(curTotal)
			d := proposed[b] - cur
			if d > g.cfg.MaxShareDelta {
				d = g.cfg.MaxShareDelta
				clamped = true
			} else if d < -g.cfg.MaxShareDelta {
				d = -g.cfg.MaxShareDelta
				clamped = true
			}
			v := cur + d
			if v < 0 {
				v = 0
			}
			next[b] = v
			total += v
		}
		if clamped && total > 0 {
			for _, b := range names {
				next[b] /= total
			}
			shares = next
			g.clamped.Inc()
		}
	}

	ints := g.ints
	if err := smi.ScaleWeights(ints, names, shares, g.cfg.WeightScale); err != nil {
		g.rejected.Inc()
		return nil, false
	}

	// No-op churn suppression: skip the write when every targeted backend
	// already carries exactly this weight.
	same := true
	for _, b := range names {
		if current[b] != ints[b] {
			same = false
			break
		}
	}
	if same {
		g.suppressed.Inc()
		return nil, false
	}
	return ints, true
}

// SuppressedTotal returns how many no-op writes were suppressed.
func (g *WriteGate) SuppressedTotal() float64 { return g.suppressed.Value() }

// ClampedTotal returns how many rounds had share movement clamped.
func (g *WriteGate) ClampedTotal() float64 { return g.clamped.Value() }

// RejectedTotal returns how many weight vectors were rejected outright.
func (g *WriteGate) RejectedTotal() float64 { return g.rejected.Value() }
