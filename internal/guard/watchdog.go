package guard

import (
	"time"

	"l3/internal/clock"
	"l3/internal/core"
	"l3/internal/metrics"
	"l3/internal/smi"
)

// Watchdog detects a stalled reconcile loop — no write gate has observed a
// round for six scrape intervals — and degrades the managed TrafficSplits to
// uniform, so a dead controller leaves behind a safe static split instead of
// whatever weights it last wrote. It re-arms automatically once rounds
// resume.
type Watchdog struct {
	clk    clock.Clock
	splits *smi.Store
	gates  []*WriteGate
	cfg    Config
	filter func(name string) bool

	start    time.Duration
	degraded bool
	degrades *metrics.Counter
}

// NewWatchdog builds a watchdog over the given write gates (at least one).
// filter restricts which splits are degraded on a stall (nil = all). reg
// receives the watchdog's counter; nil keeps it private. Single-threaded like
// the rest of the control plane: run it on the clock that drives the
// controller whose stalls it guards.
func NewWatchdog(clk clock.Clock, splits *smi.Store, cfg Config, reg *metrics.Registry, filter func(name string) bool, gates ...*WriteGate) *Watchdog {
	if clk == nil || splits == nil || len(gates) == 0 {
		panic("guard: NewWatchdog requires a clock, splits and at least one gate")
	}
	w := &Watchdog{clk: clk, splits: splits, gates: gates, cfg: cfg, filter: filter}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	w.degrades = reg.Counter(MetricWatchdogDegradesTotal, nil)
	return w
}

// Start arms the watchdog; the stall check runs at a third of the TTL
// (blindAfter).
func (w *Watchdog) Start() {
	w.start = w.clk.Now()
	interval := w.cfg.blindAfter() / 3
	if interval < time.Second {
		interval = time.Second
	}
	w.clk.Every(interval, w.tick)
}

func (w *Watchdog) tick() {
	now := w.clk.Now()
	var last time.Duration
	have := false
	for _, g := range w.gates {
		if t, ok := g.LastRound(); ok && (!have || t > last) {
			last = t
			have = true
		}
	}
	if !have {
		last = w.start // grace period from arming until the first round
	}
	if now-last <= w.cfg.blindAfter() {
		w.degraded = false
		return
	}
	if w.degraded {
		return // already degraded for this stall; write uniform once
	}
	w.degraded = true
	w.degrades.Inc()
	for _, ts := range w.splits.List() {
		if w.filter != nil && !w.filter(ts.Name) {
			continue
		}
		w.degradeSplit(ts)
	}
}

// degradeSplit writes uniform shares, scaled to core.WeightScale.
func (w *Watchdog) degradeSplit(ts *smi.TrafficSplit) {
	if len(ts.Backends) == 0 {
		return
	}
	names := ts.BackendNames()
	uniform := make(map[string]float64, len(names))
	for _, b := range names {
		uniform[b] = 1
	}
	ints := make(map[string]int64, len(names))
	if err := smi.ScaleWeights(ints, names, uniform, core.WeightScale); err != nil {
		return
	}
	next, err := ts.WithWeights(ints)
	if err != nil {
		return
	}
	_ = w.splits.Update(next)
}

// Degraded reports whether the watchdog currently holds splits degraded.
func (w *Watchdog) Degraded() bool { return w.degraded }

// DegradesTotal returns how many stalls triggered a uniform write.
func (w *Watchdog) DegradesTotal() float64 { return w.degrades.Value() }
