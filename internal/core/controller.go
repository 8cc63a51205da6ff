package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"l3/internal/clock"
	"l3/internal/cluster"
	"l3/internal/metrics"
	"l3/internal/smi"
	"l3/internal/timeseries"
)

// Assigner converts one round of collected backend metrics into weights.
// L3's implementation chains Algorithm 1 and Algorithm 2; the C3 adaptation
// in internal/c3 plugs in here as well, so both run under the identical
// operator shell — matching how the paper evaluates C3 inside L3's
// infrastructure.
type Assigner interface {
	// Assign returns a weight per backend present in m. Weights are
	// positive floats; the controller scales them to TrafficSplit
	// integers. Assign reads m only during the call (it is the collector's,
	// refilled by the next Collect), and the map it returns is the
	// assigner's until its next Assign: a caller reads it, or adjusts it in
	// place as Algorithm 2 does, before then, and keeps no reference.
	Assign(now time.Duration, m map[string]BackendMetrics) map[string]float64
	// Forget drops any per-backend state (backend removed from the
	// split).
	Forget(backend string)
}

// L3Assigner is the paper's algorithm: weight assignment (Algorithm 1)
// followed, optionally, by rate control (Algorithm 2).
type L3Assigner struct {
	weighter *Weighter
	rate     *RateController
}

// NewL3Assigner builds the L3 pipeline. Pass a nil rate config pointer
// semantics via enableRate=false for the rate-control ablation.
func NewL3Assigner(wcfg WeightingConfig, rcfg RateControlConfig, enableRate bool) *L3Assigner {
	a := &L3Assigner{weighter: NewWeighter(wcfg)}
	if enableRate {
		a.rate = NewRateController(rcfg)
	}
	return a
}

// Assign implements Assigner.
func (a *L3Assigner) Assign(now time.Duration, m map[string]BackendMetrics) map[string]float64 {
	weights := a.weighter.Update(now, m)
	if a.rate != nil {
		weights = a.rate.Apply(now, weights, TotalRPS(m, a.weighter.names))
	}
	return weights
}

// Forget implements Assigner.
func (a *L3Assigner) Forget(backend string) { a.weighter.Forget(backend) }

// Weighter exposes the inner weighter for instrumentation and tests.
func (a *L3Assigner) Weighter() *Weighter { return a.weighter }

// RateController exposes the inner rate controller (nil when disabled).
func (a *L3Assigner) RateController() *RateController { return a.rate }

// TextSource is a scrape target that serves exposition text, as /metrics
// does. It fetches and parses off the clock's loop and calls done once, on
// the loop (the shape of health.Prober) or synchronously from inside itself.
type TextSource func(done func([]metrics.Sample, error))

// Scraper periodically snapshots a metrics registry into the time-series
// database — the stand-in for the Prometheus instance of Figure 5, with the
// same 5 s default scrape interval and therefore the same data-freshness
// limits.
type Scraper struct {
	clk        clock.Clock
	db         *timeseries.DB
	registries []*metrics.Registry
	interval   time.Duration
	timer      clock.Timer
	dropping   bool
	dropped    uint64
	// source, when set, replaces the registries; pending marks a pass whose
	// samples have not come back yet. lastIngest is when the last pass was
	// stored (Start's time before the first).
	source     TextSource
	pending    bool
	lastIngest time.Duration
	ingests    atomic.Int64
	// buf is the recycled snapshot buffer: every scrape pass refills it via
	// SnapshotAppend, so the steady-state scrape allocates nothing.
	buf []metrics.Sample
	// refs[r][i] is the stored series behind position i of registry r's
	// snapshot, resolved by the first pass that sees the position: a
	// registry's snapshot only ever grows at its end (see SnapshotAppend), so
	// a position names one series for good. len(refs[r]) is the number of
	// samples registry r gave the current pass.
	refs [][]timeseries.Ref

	// Fault-injection state (internal/chaos drives these): garbage maps a
	// backend name ("" = every series) to a value-corruption mode, skew
	// back-dates alternating scrape passes, slowFactor lets only every n-th
	// scheduled scrape run.
	garbage    map[string]string
	skew       time.Duration
	slowFactor int
	ticks      uint64
}

// NewScraperClock returns a scraper driven by an arbitrary clock — a
// simulation engine, or the wall clock under cmd/l3serve,
// where the scrape pass is the moral equivalent of Prometheus pulling
// /metrics. A round reads regs in order; every caller passes one registry,
// and the slice stays only because the benchmark harness (benchmark/) passes
// one. Call Start to begin scraping. Like every sim-era component it is single-threaded: its methods
// must run serialized with the clock's callbacks.
func NewScraperClock(clk clock.Clock, db *timeseries.DB, regs []*metrics.Registry, interval time.Duration) *Scraper {
	if clk == nil {
		panic("core: NewScraperClock requires a clock")
	}
	if interval <= 0 {
		interval = 5 * time.Second
	}
	return &Scraper{clk: clk, db: db, registries: regs, interval: interval, refs: make([][]timeseries.Ref, len(regs))}
}

// SetSource makes the scraper read a text target instead of its registries.
// Call it before Start.
func (s *Scraper) SetSource(src TextSource) { s.source = src }

// Start begins periodic scraping (first scrape one interval from now).
func (s *Scraper) Start() {
	s.lastIngest = s.clk.Now()
	s.timer = s.clk.Every(s.interval, s.tick)
}

func (s *Scraper) tick() {
	s.ticks++
	if s.dropping || s.pending {
		s.dropped++
		return
	}
	if s.slowFactor > 1 && s.ticks%uint64(s.slowFactor) != 0 {
		s.dropped++
		return
	}
	t := s.clk.Now()
	if s.skew != 0 && s.ticks%2 == 1 {
		// Alternating passes carry a back-dated timestamp, as a scraper with
		// a wandering clock would stamp them. With skew beyond the scrape
		// interval this reorders ingestion.
		t -= s.skew
	}
	if s.source != nil {
		s.pending = true
		s.source(func(samples []metrics.Sample, err error) { s.ingest(t, samples, err) })
		return
	}
	// Every registry is read before any sample is stored: a gate may count
	// what it rejects in a registry this pass scrapes.
	s.buf = s.buf[:0]
	for r, reg := range s.registries {
		before := len(s.buf)
		s.buf = reg.SnapshotAppend(s.buf)
		n := len(s.buf) - before
		if have := len(s.refs[r]); n > have {
			s.refs[r] = append(s.refs[r], make([]timeseries.Ref, n-have)...)
		}
	}
	// i runs across the whole round, so "mixed" garbage corrupts the same
	// sample positions however the round's samples split across registries.
	i := 0
	for _, refs := range s.refs {
		for j := range refs {
			sample := &s.buf[i]
			v := sample.Value
			if len(s.garbage) > 0 {
				if mode, ok := s.garbageMode(sample.Labels); ok {
					v = corruptValue(mode, i, v)
				}
			}
			s.db.AppendSampleRef(&refs[j], sample.Name, sample.Labels, sample.Kind, t, v)
			i++
		}
	}
	s.ingested()
}

// ingest stores a text pass stamped t. It appends by labels, not by a
// position ref: the exposition is sorted, so a series registered later lands
// mid-text and shifts every position after it. A failed pass counts as
// dropped and stores nothing.
func (s *Scraper) ingest(t time.Duration, samples []metrics.Sample, err error) {
	s.pending = false
	if err != nil {
		s.dropped++
		return
	}
	for i := range samples {
		sample := &samples[i]
		v := sample.Value
		if len(s.garbage) > 0 {
			if mode, ok := s.garbageMode(sample.Labels); ok {
				v = corruptValue(mode, i, v)
			}
		}
		s.db.AppendSample(sample.Name, sample.Labels, sample.Kind, t, v)
	}
	s.ingested()
}

func (s *Scraper) ingested() {
	s.lastIngest = s.clk.Now()
	s.ingests.Add(1)
}

// LastIngest returns when the last pass was stored, or when Start ran if none
// has been yet.
func (s *Scraper) LastIngest() time.Duration { return s.lastIngest }

// Ingests counts the passes stored so far. Unlike the other methods it is
// safe from any goroutine.
func (s *Scraper) Ingests() int64 { return s.ingests.Load() }

// Stop halts scraping.
func (s *Scraper) Stop() {
	if s.timer != nil {
		s.timer.Cancel()
	}
}

// SetDropping toggles scrape loss: while dropping, scheduled scrapes are
// skipped and the TSDB goes stale, starving the collector of fresh samples —
// the metric-scrape-loss fault of internal/chaos. It implements the
// scrape-gate hook of internal/chaos.
func (s *Scraper) SetDropping(drop bool) { s.dropping = drop }

// Dropped returns how many scheduled scrapes were dropped or skipped.
func (s *Scraper) Dropped() uint64 { return s.dropped }

// SetGarbage toggles garbage injection for one backend's series ("" targets
// every series). While on, matching samples arrive corrupted according to
// mode: "nan" poisons every value, "negative" negates counters, and "mixed"
// (the default) alternates by sample index — the garbage fault of
// internal/chaos.
func (s *Scraper) SetGarbage(backend, mode string, on bool) {
	if !on {
		delete(s.garbage, backend)
		return
	}
	if s.garbage == nil {
		s.garbage = make(map[string]string)
	}
	if mode == "" {
		mode = "mixed"
	}
	s.garbage[backend] = mode
}

// SetSkew sets the clock-skew fault: alternating scrape passes are stamped
// d in the past (0 disables).
func (s *Scraper) SetSkew(d time.Duration) { s.skew = d }

// SetSlowFactor sets the slow-scrape fault: only every n-th scheduled scrape
// executes, stretching the effective interval n-fold (values < 2 disable).
func (s *Scraper) SetSlowFactor(n int) { s.slowFactor = n }

func (s *Scraper) garbageMode(l metrics.Labels) (string, bool) {
	if m, ok := s.garbage[""]; ok {
		return m, true
	}
	m, ok := s.garbage[l["backend"]]
	return m, ok
}

func corruptValue(mode string, i int, v float64) float64 {
	switch mode {
	case "nan":
		return math.NaN()
	case "negative":
		return -v - 1
	default: // mixed
		if i%2 == 0 {
			return math.NaN()
		}
		return -v - 1
	}
}

// Self-metric families the controller exports about its own state, so
// operators (and the benches) can inspect L3's internals — the paper
// exposes the same through Prometheus/OpenTelemetry.
const (
	MetricWeight         = "l3_backend_weight"
	MetricFilteredP99    = "l3_filtered_p99_seconds"
	MetricFilteredRPS    = "l3_filtered_rps"
	MetricRelativeChange = "l3_rps_relative_change"
	MetricUpdatesTotal   = "l3_weight_updates_total"
	MetricLeader         = "l3_is_leader"
)

// WeightScale converts float weights to TrafficSplit integers: a written
// split's weights add up to about this (ratios are what matters). The guard
// layer's write gate and watchdog scale by it too.
const WeightScale = 1000

// ControllerConfig parameterises the operator.
type ControllerConfig struct {
	// Interval is the reconcile period (default 5 s, §4).
	Interval time.Duration
	// NewAssigner builds one assigner per TrafficSplit. Required.
	NewAssigner func() Assigner
	// SplitFilter restricts the controller to TrafficSplits it returns
	// true for (nil = manage every split). Per-cluster L3 instances
	// sharing one store each manage their own cluster's splits.
	SplitFilter func(name string) bool
	// Elector gates writes when set: only the leader mutates splits.
	Elector *cluster.Elector
	// SelfRegistry receives the controller's own metrics when set.
	SelfRegistry *metrics.Registry
	// WriteGuard vets every weight vector before it reaches the SMI store
	// (nil = write unconditionally, the historical behaviour). Implemented
	// by internal/guard's write gate; the interface lives here so core does
	// not import its guards.
	WriteGuard WriteGuard
}

// WriteGuard gates controller writes: Observe marks a live reconcile round
// (feeding stall watchdogs) on every update, leader or not; Guard validates
// and integer-scales a weight vector, returning ok=false to suppress the
// round's write entirely. Guard reads ts (a stored version, which it must not
// change) and weights only during the call, and the map it returns is the
// guard's until its next Guard: the controller builds the split's next
// version from it at once.
type WriteGuard interface {
	Observe(now time.Duration)
	Guard(now time.Duration, ts *smi.TrafficSplit, weights map[string]float64) (map[string]int64, bool)
}

// Controller is the L3 operator: one control loop tracks TrafficSplit
// lifecycle (via the store watch), another periodically re-weights every
// tracked split from fresh metrics.
type Controller struct {
	clk       clock.Clock
	splits    *smi.Store
	collector *Collector
	cfg       ControllerConfig

	tracked map[string]*trackedSplit
	// order is tracked's names sorted, rebuilt when the watch adds or removes
	// a split: a reconcile round writes splits and registers self-metrics in
	// this order, not in map order.
	order       []string
	cancelWatch func()
	ticker      clock.Timer
	updates     uint64
	// ints is an unguarded round's integer weights, refilled by every write.
	ints map[string]int64
}

type trackedSplit struct {
	assigner Assigner
	// service and names are the split's root service and backend names, in
	// split order, as the watch last saw them: what a round collects, and the
	// keys of what the assigner, the self-metrics and the collector's selector
	// cache hold for this split. A weight write leaves them as they are.
	service string
	names   []string
	// Self-metric series, each registered the first time a round has a value
	// for it — the moment and order a lookup per round registered it — and
	// kept until the watch sees its backend leave the split.
	gauges         map[string]*backendGauges
	relativeChange *metrics.Gauge
	updates        *metrics.Counter
}

type backendGauges struct{ weight, p99, rps *metrics.Gauge }

// retire forgets a departed backend's series and zeroes them: the registry
// keeps a series for good, and a last live value in it would read as a
// backend still carrying that weight.
func (t *trackedSplit) retire(backend string) {
	g := t.gauges[backend]
	if g == nil {
		return
	}
	delete(t.gauges, backend)
	g.weight.Set(0)
	if g.p99 != nil {
		g.p99.Set(0)
		g.rps.Set(0)
	}
}

// NewControllerClock wires the operator on an arbitrary clock. The
// controller is single-threaded: its loops run as clock callbacks, and any
// outside caller (tests, a drain path) must serialize with them.
func NewControllerClock(clk clock.Clock, splits *smi.Store, collector *Collector, cfg ControllerConfig) *Controller {
	if clk == nil {
		panic("core: NewControllerClock requires a clock")
	}
	if splits == nil || collector == nil || cfg.NewAssigner == nil {
		panic("core: NewControllerClock requires splits, collector and NewAssigner")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	return &Controller{
		clk:       clk,
		splits:    splits,
		collector: collector,
		cfg:       cfg,
		tracked:   make(map[string]*trackedSplit),
	}
}

// Start begins both control loops: the split watcher (with replay of
// existing splits) and the periodic weight updater.
func (c *Controller) Start() {
	c.cancelWatch = c.splits.Watch(true, c.onSplitEvent)
	c.ticker = c.clk.Every(c.cfg.Interval, c.updateAll)
	if c.cfg.Elector != nil {
		c.cfg.Elector.Run()
	}
}

// Stop halts both loops and resigns leadership gracefully. A stopped
// controller can be started again with Start.
func (c *Controller) Stop() {
	c.halt()
	if c.cfg.Elector != nil {
		c.cfg.Elector.Stop()
	}
}

// Crash halts the controller the way a killed process would: loops stop and
// the elector abandons campaigning WITHOUT releasing the lease, so a standby
// acquires only after the lease TTL runs out — the leader-failover fault of
// internal/chaos. Revive with Start.
func (c *Controller) Crash() {
	c.halt()
	if c.cfg.Elector != nil {
		c.cfg.Elector.Crash()
	}
}

func (c *Controller) halt() {
	if c.cancelWatch != nil {
		c.cancelWatch()
		c.cancelWatch = nil
	}
	if c.ticker != nil {
		c.ticker.Cancel()
		c.ticker = nil
	}
}

// Updates returns how many weight-update rounds have been applied.
func (c *Controller) Updates() uint64 { return c.updates }

// Tracked returns the names of TrafficSplits under management.
func (c *Controller) Tracked() []string {
	return append([]string(nil), c.order...)
}

// Assigner returns the assigner managing a tracked split, for tests and
// instrumentation.
func (c *Controller) Assigner(split string) (Assigner, bool) {
	t, ok := c.tracked[split]
	if !ok {
		return nil, false
	}
	return t.assigner, true
}

func (c *Controller) onSplitEvent(e cluster.Event[*smi.TrafficSplit]) {
	name := e.Object.Name
	if c.cfg.SplitFilter != nil && !c.cfg.SplitFilter(name) {
		return
	}
	switch e.Type {
	case cluster.Added, cluster.Updated:
		t, ok := c.tracked[name]
		if !ok {
			c.track(e.Object)
			return
		}
		ts := e.Object
		if ts.RootService == t.service && slices.EqualFunc(t.names, ts.Backends, func(n string, b smi.Backend) bool { return n == b.Service }) {
			return // a weight write
		}
		// Forget state of backends that left the split.
		for _, b := range t.names {
			gone := !slices.ContainsFunc(ts.Backends, func(x smi.Backend) bool { return x.Service == b })
			if gone {
				t.assigner.Forget(b)
				t.retire(b)
			}
			if gone || ts.RootService != t.service {
				c.collector.forget(t.service, b)
			}
		}
		t.service, t.names = ts.RootService, ts.BackendNames()
	case cluster.Deleted:
		c.untrack(name)
	}
}

// track starts managing ts with an assigner from NewAssigner.
func (c *Controller) track(ts *smi.TrafficSplit) {
	c.tracked[ts.Name] = &trackedSplit{assigner: c.cfg.NewAssigner(), service: ts.RootService, names: ts.BackendNames()}
	c.reorder()
}

// untrack stops managing a deleted split: its self-metrics are zeroed and
// the collector forgets its backends.
func (c *Controller) untrack(name string) {
	if t, ok := c.tracked[name]; ok {
		for b := range t.gauges {
			t.retire(b)
		}
		for _, b := range t.names {
			c.collector.forget(t.service, b)
		}
		if t.relativeChange != nil {
			t.relativeChange.Set(0)
		}
	}
	delete(c.tracked, name)
	c.reorder()
}

// reorder builds a fresh slice: a watch event can arrive from inside
// updateAll's walk over the old one.
func (c *Controller) reorder() {
	order := make([]string, 0, len(c.tracked))
	for name := range c.tracked {
		order = append(order, name)
	}
	sort.Strings(order)
	c.order = order
}

// IsLeader reports whether the controller may write: it leads its lease, or
// runs without one.
func (c *Controller) IsLeader() bool {
	if c.cfg.Elector == nil {
		return true
	}
	return c.cfg.Elector.IsLeader()
}

func (c *Controller) updateAll() {
	now := c.clk.Now()
	leader := c.IsLeader()
	if reg := c.cfg.SelfRegistry; reg != nil {
		v := 0.0
		if leader {
			v = 1
		}
		reg.Gauge(MetricLeader, nil).Set(v)
	}
	for _, name := range c.order {
		if t, ok := c.tracked[name]; ok { // not deleted by an earlier write's watch
			c.updateOne(now, name, t, leader)
		}
	}
}

func (c *Controller) updateOne(now time.Duration, name string, t *trackedSplit, leader bool) {
	ts, ok := c.splits.Get(name)
	if !ok {
		return
	}
	m := c.collector.Collect(now, ts.RootService, t.names)
	weights := t.assigner.Assign(now, m)

	if reg := c.cfg.SelfRegistry; reg != nil {
		c.exportSelfMetrics(reg, name, t, weights)
	}
	if g := c.cfg.WriteGuard; g != nil {
		g.Observe(now)
	}
	if !leader {
		return
	}
	var ints map[string]int64
	if g := c.cfg.WriteGuard; g != nil {
		if ints, ok = g.Guard(now, ts, weights); !ok {
			return // gate suppressed or rejected this round's write
		}
	} else {
		c.ints = scaledWeights(c.ints, ts, weights, WeightScale)
		ints = c.ints
	}
	next, err := ts.WithWeights(ints)
	if err != nil {
		return // backend left between Get and Guard; watch will catch up
	}
	if err := c.splits.Update(next); err != nil {
		// The split vanished between Get and Update; the watch event will
		// untrack it. Nothing else to do in an operator but move on.
		return
	}
	c.updates++
	if reg := c.cfg.SelfRegistry; reg != nil {
		if t.updates == nil {
			t.updates = reg.Counter(MetricUpdatesTotal, metrics.Labels{"split": name})
		}
		t.updates.Inc()
	}
}

// exportSelfMetrics walks the split's backends in split order, so the
// series a first round registers are registered in the same order every run.
// An L3 assigner's filter and rate gauges are read through a wrapper that
// hands out its inner assigner, as internal/guard's does.
func (c *Controller) exportSelfMetrics(reg *metrics.Registry, split string, t *trackedSplit, weights map[string]float64) {
	for _, b := range t.names {
		if w, ok := weights[b]; ok {
			g := t.gauges[b]
			if g == nil {
				if t.gauges == nil {
					t.gauges = make(map[string]*backendGauges)
				}
				g = &backendGauges{weight: reg.Gauge(MetricWeight, metrics.Labels{"split": split, "backend": b})}
				t.gauges[b] = g
			}
			g.weight.Set(w)
		}
	}
	a := t.assigner
	if w, ok := a.(interface{ Inner() Assigner }); ok {
		a = w.Inner()
	}
	if l3, ok := a.(*L3Assigner); ok {
		for _, b := range t.names {
			if _, ok := weights[b]; !ok {
				continue
			}
			if view, ok := l3.Weighter().View(b); ok {
				g := t.gauges[b]
				if g.p99 == nil {
					g.p99 = reg.Gauge(MetricFilteredP99, metrics.Labels{"split": split, "backend": b})
					g.rps = reg.Gauge(MetricFilteredRPS, metrics.Labels{"split": split, "backend": b})
				}
				g.p99.Set(view.Latency)
				g.rps.Set(view.RPS)
			}
		}
		if rc := l3.RateController(); rc != nil {
			if t.relativeChange == nil {
				t.relativeChange = reg.Gauge(MetricRelativeChange, metrics.Labels{"split": split})
			}
			t.relativeChange.Set(rc.LastRelativeChange())
		}
	}
}

// scaledWeights refills dst (made on first use) with weights as TrafficSplit
// integers for ts's backends. A backend whose weight is NaN, infinite or
// missing is left out, so the write holds its previous value; a name ts does
// not carry (a backend that left the split) is skipped.
func scaledWeights(dst map[string]int64, ts *smi.TrafficSplit, weights map[string]float64, scale float64) map[string]int64 {
	if dst == nil {
		dst = make(map[string]int64, len(ts.Backends))
	}
	clear(dst)
	for _, b := range ts.Backends {
		if w, ok := weights[b.Service]; ok {
			if v, ok := scaleWeight(w, scale); ok {
				dst[b.Service] = v
			}
		}
	}
	return dst
}

// scaleWeight converts a float weight to a TrafficSplit integer, keeping
// ratios and guaranteeing at least 1 so backends stay measurable. ok is
// false for NaN/Inf weights: int64(NaN) is platform-defined, so a poisoned
// weight must deterministically hold the previous value instead of being
// written.
func scaleWeight(w, scale float64) (int64, bool) {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return 0, false
	}
	v := math.Round(w * scale)
	if v < 1 {
		v = 1
	}
	if v > math.MaxInt64/2 {
		v = math.MaxInt64 / 2
	}
	return int64(v), true
}

// String identifies the controller in logs.
func (c *Controller) String() string {
	return fmt.Sprintf("l3-controller{splits=%d interval=%v}", len(c.tracked), c.cfg.Interval)
}
