// Package plane assembles L3's control plane (§4, Fig. 5) once, for both
// clocks: a scraper fills the TSDB, and each controller collects the four
// window queries, computes weights and writes its TrafficSplits. With the
// guard on, hygiene gates the TSDB and reports resets to the collectors, a
// write gate vets every write and each assigner is wrapped. It sits above
// core because guard imports core.
package plane

import (
	"time"

	"l3/internal/c3"
	"l3/internal/clock"
	"l3/internal/cluster"
	"l3/internal/core"
	"l3/internal/guard"
	"l3/internal/metrics"
	"l3/internal/smi"
	"l3/internal/timeseries"
)

// Spec describes one controller: which metric series it may read and which
// TrafficSplits it manages.
type Spec struct {
	// Match restricts its collector's queries to series carrying these
	// labels; a per-cluster instance reads its own cluster's proxies.
	Match metrics.Labels
	// Filter restricts it to the splits it returns true for (nil = all).
	Filter func(name string) bool
	// Elector gates its writes on a lease when set.
	Elector *cluster.Elector
}

// Config holds what the sim and the wall choose apart.
type Config struct {
	// Interval is the scrape and reconcile period, from which every window
	// derives. Both callers default it to the paper's 5 s.
	Interval time.Duration
	// Percentile is the collectors' latency quantile (zero means 0.99).
	Percentile float64
	// Guard installs guard's hygiene, write gate and assigner wrapper.
	Guard bool
	// Registry receives the guard's counters, and the scraper reads it
	// unless Source is set.
	Registry *metrics.Registry
	// Source, when set, is the scrape target in Registry's place: exposition
	// text, as a real Prometheus reads it.
	Source core.TextSource
	// SelfRegistry receives the controllers' own metrics when set.
	SelfRegistry *metrics.Registry
	// NewAssigner builds one unguarded assigner per split. Nil runs C3,
	// its filters scaled to Interval.
	NewAssigner func() core.Assigner
	// Specs lists the controllers in start order; none only scrapes.
	Specs []Spec
}

// Plane is one assembled control plane. Nothing runs until Start.
type Plane struct {
	DB          *timeseries.DB
	Scraper     *core.Scraper
	Controllers []*core.Controller // in Specs order
	// Gate is the write gate every controller writes through, nil with the
	// guard off; a watchdog takes it to see the rounds.
	Gate *guard.WriteGate
}

// New builds the plane on clk over splits.
func New(clk clock.Clock, splits *smi.Store, cfg Config) *Plane {
	// The query window holds two scrapes (§4), but never under 2 s, so a fast
	// scrape still leaves rate() a few points; the TSDB keeps two windows.
	window := max(2*cfg.Interval, 2*time.Second)
	p := &Plane{DB: timeseries.NewDB(2 * window)}
	ccfg := core.ControllerConfig{
		Interval:     cfg.Interval,
		NewAssigner:  cfg.NewAssigner,
		SelfRegistry: cfg.SelfRegistry,
	}
	if ccfg.NewAssigner == nil {
		ccfg.NewAssigner = func() core.Assigner { return c3.New(c3.Config{Interval: cfg.Interval}) }
	}
	var resets core.ResetSource
	if cfg.Guard {
		gcfg := guard.Config{Interval: cfg.Interval}
		hyg := guard.NewHygiene(gcfg, cfg.Registry)
		p.DB.SetGate(hyg)
		resets = hyg
		p.Gate = guard.NewWriteGate(gcfg, cfg.Registry)
		ccfg.WriteGuard = p.Gate
		unguarded := ccfg.NewAssigner
		ccfg.NewAssigner = func() core.Assigner { return guard.NewAssigner(unguarded(), gcfg, cfg.Registry) }
	}
	p.Scraper = core.NewScraperClock(clk, p.DB, []*metrics.Registry{cfg.Registry}, cfg.Interval)
	p.Scraper.SetSource(cfg.Source)
	for _, s := range cfg.Specs {
		collector := &core.Collector{DB: p.DB, Window: window, Percentile: cfg.Percentile, Match: s.Match, Resets: resets}
		ccfg.SplitFilter, ccfg.Elector = s.Filter, s.Elector
		p.Controllers = append(p.Controllers, core.NewControllerClock(clk, splits, collector, ccfg))
	}
	return p
}

// Start starts the scraper, then each controller in Specs order.
func (p *Plane) Start() {
	p.Scraper.Start()
	for _, c := range p.Controllers {
		c.Start()
	}
}

// Stop halts the scraper and every controller.
func (p *Plane) Stop() {
	p.Scraper.Stop()
	for _, c := range p.Controllers {
		c.Stop()
	}
}
