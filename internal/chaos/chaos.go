package chaos

import (
	"fmt"
	"sort"
	"time"

	"l3/internal/sim"
)

// LinkInjector is the WAN-layer hook (implemented by wan.Model): install and
// remove structural faults on directed links.
type LinkInjector interface {
	InjectLinkFault(from, to string, extra time.Duration, partitioned bool, flap time.Duration)
	HealLinkFault(from, to string)
}

// BackendInjector is the data-plane hook (implemented by backend.Replica):
// crash/restart a deployment and resize its worker pool.
type BackendInjector interface {
	Crash()
	Restart(slowStart time.Duration)
	Concurrency() int
	SetConcurrency(n int)
}

// ScrapeGate is the control-plane metrics hook (implemented by
// core.Scraper): drop scrapes while a fault is active.
type ScrapeGate interface {
	SetDropping(drop bool)
}

// ScrapeCorrupter is the garbage-injection capability of a scrape gate
// (implemented by core.Scraper): corrupt scraped values for one backend's
// series ("" = all) with the given mode while on.
type ScrapeCorrupter interface {
	SetGarbage(backend, mode string, on bool)
}

// ScrapeSkewer is the clock-skew capability of a scrape gate (implemented
// by core.Scraper): back-date alternating scrape passes by d (0 disables).
type ScrapeSkewer interface {
	SetSkew(d time.Duration)
}

// ScrapeSlower is the slow-scrape capability of a scrape gate (implemented
// by core.Scraper): run only every n-th scheduled scrape (< 2 disables).
type ScrapeSlower interface {
	SetSlowFactor(n int)
}

// MetricResetter zeroes a backend's cumulative metric series, as a pod
// restart would (adapted over metrics.Registry by the harness).
type MetricResetter interface {
	ResetBackendCounters(backend string)
}

// Leader is one killable controller instance (a core.Controller plus its
// elector, adapted by the harness): Kill crashes it without releasing the
// leadership lease, Revive restarts it, IsLeader reports whether it
// currently leads.
type Leader interface {
	Kill()
	Revive()
	IsLeader() bool
}

// Targets binds a schedule's events to the substrates of one simulation
// run. Only the layers a schedule actually touches need to be set; Start
// fails fast when an event has no target.
type Targets struct {
	// Clusters lists every cluster name, for expanding "*" link events.
	Clusters []string
	// Links injects WAN faults.
	Links LinkInjector
	// Backends maps backend name to its injector.
	Backends map[string]BackendInjector
	// Scrapers are the control plane's scrape gates. Gates additionally
	// implementing ScrapeCorrupter/ScrapeSkewer/ScrapeSlower receive the
	// garbage, clockskew and slowscrape faults.
	Scrapers []ScrapeGate
	// Leaders maps controller instance id to its kill handle.
	Leaders map[string]Leader
	// Metrics receives counterreset events.
	Metrics MetricResetter
}

// Injector schedules a fault schedule onto a simulation engine. One
// injector serves one run; the schedule itself is reusable across runs.
type Injector struct {
	engine  *sim.Engine
	sched   Schedule
	targets Targets
	shift   time.Duration
	applied int
	healed  int
	// killed remembers, per event index, which instance a LeaderKill hit,
	// so the heal revives that one even though it no longer leads.
	killed map[int]Leader
}

// New returns an injector for one run. shift displaces every event time
// (schedules are written relative to measurement start; harnesses pass
// their warm-up so faults land in measured time).
func New(engine *sim.Engine, sched Schedule, targets Targets, shift time.Duration) *Injector {
	return &Injector{engine: engine, sched: sched, targets: targets, shift: shift, killed: make(map[int]Leader)}
}

// Start validates the schedule against the targets and schedules every
// inject/heal pair on the engine.
func (in *Injector) Start() error {
	if err := in.sched.Validate(); err != nil {
		return err
	}
	for _, ev := range in.sched.Events {
		if err := in.check(ev); err != nil {
			return err
		}
	}
	for i, ev := range in.sched.Events {
		i, ev := i, ev
		in.engine.At(in.shift+ev.At, func() {
			in.apply(i, ev)
			in.applied++
		})
		if ev.Duration > 0 {
			in.engine.At(in.shift+ev.At+ev.Duration, func() {
				in.heal(i, ev)
				in.healed++
			})
		}
	}
	return nil
}

// Applied returns how many events have been injected so far.
func (in *Injector) Applied() int { return in.applied }

// Healed returns how many events have been healed so far.
func (in *Injector) Healed() int { return in.healed }

// check verifies the run exposes the target an event needs.
func (in *Injector) check(ev Event) error {
	switch ev.Kind {
	case Partition, DelaySpike, LinkFlap:
		if in.targets.Links == nil {
			return fmt.Errorf("chaos: %s event but no link injector", ev.Kind)
		}
		if ev.To == "*" && len(in.targets.Clusters) == 0 {
			return fmt.Errorf("chaos: %s event with wildcard link but no cluster list", ev.Kind)
		}
	case BackendCrash, Saturate:
		if _, ok := in.targets.Backends[ev.Backend]; !ok {
			return fmt.Errorf("chaos: %s event targets unknown backend %q", ev.Kind, ev.Backend)
		}
	case ScrapeDrop, Garbage, ClockSkew, SlowScrape:
		return checkScrape(in.targets.Scrapers, ev)
	case LeaderKill:
		if len(in.targets.Leaders) == 0 {
			return fmt.Errorf("chaos: leaderkill event but no leader handles")
		}
		if ev.Target != "" {
			if _, ok := in.targets.Leaders[ev.Target]; !ok {
				return fmt.Errorf("chaos: leaderkill targets unknown instance %q", ev.Target)
			}
		}
	case CounterReset:
		if in.targets.Metrics == nil {
			return fmt.Errorf("chaos: counterreset event but no metric resetter")
		}
	}
	return nil
}

// scrapeFault resolves a control-plane scrape event against one scraper: the
// call that injects (on) or heals it, or nil when the scraper lacks the
// capability. It is the one table of the scrape faults Injector injects.
func scrapeFault(s ScrapeGate, ev Event, on bool) func() {
	if !on {
		ev.Skew, ev.SlowFactor = 0, 0
	}
	switch ev.Kind {
	case ScrapeDrop:
		return func() { s.SetDropping(on) }
	case Garbage:
		if c, ok := s.(ScrapeCorrupter); ok {
			return func() { c.SetGarbage(ev.Backend, ev.Mode, on) }
		}
	case ClockSkew:
		if k, ok := s.(ScrapeSkewer); ok {
			return func() { k.SetSkew(ev.Skew) }
		}
	case SlowScrape:
		if k, ok := s.(ScrapeSlower); ok {
			return func() { k.SetSlowFactor(ev.SlowFactor) }
		}
	}
	return nil
}

// checkScrape fails unless some scraper takes the scrape event ev.
func checkScrape(ss []ScrapeGate, ev Event) error {
	for _, s := range ss {
		if scrapeFault(s, ev, true) != nil {
			return nil
		}
	}
	return fmt.Errorf("chaos: %s event but no scraper takes it", ev.Kind)
}

// setScrape injects (on) or heals the scrape event ev on every scraper that
// takes it.
func setScrape(ss []ScrapeGate, ev Event, on bool) {
	for _, s := range ss {
		if set := scrapeFault(s, ev, on); set != nil {
			set()
		}
	}
}

// links expands an event's From/To into the directed links it covers.
func (in *Injector) links(ev Event) [][2]string {
	others := func(c string) []string {
		var out []string
		for _, o := range in.targets.Clusters {
			if o != c {
				out = append(out, o)
			}
		}
		return out
	}
	var out [][2]string
	tos := []string{ev.To}
	if ev.To == "*" {
		tos = others(ev.From)
	}
	for _, to := range tos {
		out = append(out, [2]string{ev.From, to})
		if ev.Kind == Partition {
			// Partitions cut the pair in both directions; delay spikes and
			// flaps stay directed (asymmetric by design).
			out = append(out, [2]string{to, ev.From})
		}
	}
	return out
}

func (in *Injector) apply(idx int, ev Event) {
	switch ev.Kind {
	case Partition:
		for _, l := range in.links(ev) {
			in.targets.Links.InjectLinkFault(l[0], l[1], 0, true, 0)
		}
	case DelaySpike:
		for _, l := range in.links(ev) {
			in.targets.Links.InjectLinkFault(l[0], l[1], ev.Extra, false, 0)
		}
	case LinkFlap:
		for _, l := range in.links(ev) {
			in.targets.Links.InjectLinkFault(l[0], l[1], ev.Extra, false, ev.Flap)
		}
	case BackendCrash:
		in.targets.Backends[ev.Backend].Crash()
	case Saturate:
		b := in.targets.Backends[ev.Backend]
		kept := int(float64(b.Concurrency()) * ev.Factor)
		if kept < 1 {
			kept = 1
		}
		b.SetConcurrency(kept)
	case ScrapeDrop, Garbage, ClockSkew, SlowScrape:
		setScrape(in.targets.Scrapers, ev, true)
	case LeaderKill:
		l := in.leader(ev)
		in.killed[idx] = l
		l.Kill()
	case CounterReset:
		in.targets.Metrics.ResetBackendCounters(ev.Backend)
	}
}

func (in *Injector) heal(idx int, ev Event) {
	switch ev.Kind {
	case Partition, DelaySpike, LinkFlap:
		for _, l := range in.links(ev) {
			in.targets.Links.HealLinkFault(l[0], l[1])
		}
	case BackendCrash:
		in.targets.Backends[ev.Backend].Restart(ev.SlowStart)
	case Saturate:
		b := in.targets.Backends[ev.Backend]
		restored := int(float64(b.Concurrency()) / ev.Factor)
		if restored < 1 {
			restored = 1
		}
		b.SetConcurrency(restored)
	case ScrapeDrop, Garbage, ClockSkew, SlowScrape:
		setScrape(in.targets.Scrapers, ev, false)
	case LeaderKill:
		if l, ok := in.killed[idx]; ok {
			l.Revive()
		}
	}
}

// leader resolves an event's target instance: the named one, or — for an
// empty target — the instance currently leading (falling back to the first
// by name, so the choice is deterministic even when no one leads).
func (in *Injector) leader(ev Event) Leader {
	if ev.Target != "" {
		return in.targets.Leaders[ev.Target]
	}
	ids := make([]string, 0, len(in.targets.Leaders))
	for id := range in.targets.Leaders {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if in.targets.Leaders[id].IsLeader() {
			return in.targets.Leaders[id]
		}
	}
	return in.targets.Leaders[ids[0]]
}
