package guard

import (
	"time"

	"l3/internal/clock"
	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/smi"
)

// Watchdog detects a stalled reconcile loop — no write gate has observed a
// round for WatchdogTTL — and degrades the managed TrafficSplits to the
// baseline split (uniform, or Config.BaselineWeights), so a dead controller
// leaves behind a safe static split instead of whatever weights it last
// wrote. It re-arms automatically once rounds resume.
type Watchdog struct {
	clk    clock.Clock
	splits *smi.Store
	gates  []*WriteGate
	cfg    Config
	filter func(name string) bool

	timer    clock.Timer
	start    time.Duration
	degraded bool
	degrades *metrics.Counter
}

// NewWatchdog builds a watchdog over the given write gates (at least one),
// on the simulation engine's virtual clock. filter restricts which splits
// are degraded on a stall (nil = all). reg receives the watchdog's counter
// when non-nil.
func NewWatchdog(engine *sim.Engine, splits *smi.Store, cfg Config, reg *metrics.Registry, filter func(name string) bool, gates ...*WriteGate) *Watchdog {
	if engine == nil {
		panic("guard: NewWatchdog requires engine, splits and at least one gate")
	}
	return NewWatchdogClock(clock.Sim(engine), splits, cfg, reg, filter, gates...)
}

// NewWatchdogClock builds a watchdog on an arbitrary clock. Single-threaded
// like the rest of the control plane: run it on the clock that drives the
// controller whose stalls it guards.
func NewWatchdogClock(clk clock.Clock, splits *smi.Store, cfg Config, reg *metrics.Registry, filter func(name string) bool, gates ...*WriteGate) *Watchdog {
	if clk == nil || splits == nil || len(gates) == 0 {
		panic("guard: NewWatchdog requires a clock, splits and at least one gate")
	}
	w := &Watchdog{clk: clk, splits: splits, gates: gates, cfg: cfg.withDefaults(), filter: filter}
	if reg == nil {
		w.degrades = &metrics.Counter{}
	} else {
		w.degrades = reg.Counter(MetricWatchdogDegradesTotal, nil)
	}
	return w
}

// Start arms the watchdog; the stall check runs at a third of the TTL.
func (w *Watchdog) Start() {
	w.start = w.clk.Now()
	interval := w.cfg.WatchdogTTL / 3
	if interval < time.Second {
		interval = time.Second
	}
	w.timer = w.clk.Every(interval, w.tick)
}

// Stop disarms the watchdog.
func (w *Watchdog) Stop() {
	if w.timer != nil {
		w.timer.Cancel()
		w.timer = nil
	}
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
	if now-last <= w.cfg.WatchdogTTL {
		w.degraded = false
		return
	}
	if w.degraded {
		return // already degraded for this stall; write the baseline once
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

// degradeSplit writes the baseline split: uniform shares, or the configured
// locality baseline, scaled to WeightScale.
func (w *Watchdog) degradeSplit(ts *smi.TrafficSplit) {
	if len(ts.Backends) == 0 {
		return
	}
	names := ts.BackendNames()
	baseline := make(map[string]float64, len(names))
	for _, b := range names {
		bw := 1.0
		if len(w.cfg.BaselineWeights) > 0 {
			bw = w.cfg.BaselineWeights[b]
		}
		baseline[b] = bw
	}
	ints := make(map[string]int64, len(names))
	if err := smi.ScaleWeights(ints, names, baseline, w.cfg.WeightScale); err != nil {
		// A degenerate baseline (all zero) falls back to uniform.
		for b := range baseline {
			baseline[b] = 1
		}
		if err := smi.ScaleWeights(ints, names, baseline, w.cfg.WeightScale); err != nil {
			return
		}
	}
	next, err := ts.WithWeights(ints)
	if err != nil {
		return
	}
	_ = w.splits.Update(next)
}

// Degraded reports whether the watchdog currently holds splits degraded.
func (w *Watchdog) Degraded() bool { return w.degraded }

// DegradesTotal returns how many stalls triggered a baseline write.
func (w *Watchdog) DegradesTotal() float64 { return w.degrades.Value() }
