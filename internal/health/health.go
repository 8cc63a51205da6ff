// Package health implements periodic health checking with failover — the
// availability mechanism the paper's related work section describes as the
// state of practice (Istio locality failover, linkerd-failover, Traffic
// Director, AppMesh): probe each backend on an interval, take it out of
// the load-balancing rotation after consecutive probe failures, and
// return it after consecutive successes. §3.1 of the paper also assigns
// this layer the job of ejecting backends too degraded to serve L3's
// metric-floor traffic.
//
// L3's pitch against this mechanism (§6): health checks react to binary
// failure after the fact, while L3 steers on symptoms — rising latency,
// falling success rate — before the checker trips. The failover ablation
// in internal/bench quantifies that difference on the failure scenarios.
package health

import (
	"fmt"
	"time"

	"l3/internal/backend"
	"l3/internal/clock"
	"l3/internal/mesh"
	"l3/internal/metrics"
)

// Metric families the checker exports when given a registry, so failover
// activity (ejections, restores) can be plotted next to L3's weight moves in
// the chaos recovery figures.
const (
	// MetricEjectionsTotal counts healthy→unhealthy transitions per backend.
	MetricEjectionsTotal = "health_ejections_total"
	// MetricRestoresTotal counts unhealthy→healthy transitions per backend.
	MetricRestoresTotal = "health_restores_total"
)

// Prober carries one probe to a backend and reports the outcome. The
// default prober calls the backend's server directly (a kubelet probing the
// pod from the same node); a mesh-level prober (mesh.Probe) adds WAN
// transit, so partitions and delay spikes become visible to the checker. A
// prober that never calls done (e.g. a blackholed link) counts as a failure
// once the probe timeout trips.
type Prober func(b *mesh.Backend, done func(success bool))

// Config parameterises a Checker, with Kubernetes-liveness-probe-flavoured
// defaults.
type Config struct {
	// Interval between probes per backend (default 10 s).
	Interval time.Duration
	// Timeout after which an unanswered probe counts as failed
	// (default 1 s).
	Timeout time.Duration
	// UnhealthyThreshold is the consecutive failures that eject a backend
	// (default 3).
	UnhealthyThreshold int
	// HealthyThreshold is the consecutive successes that restore it
	// (default 2).
	HealthyThreshold int
	// Probe overrides how probes reach backends (default: direct serve).
	Probe Prober
	// Registry receives ejection/restore counters when set.
	Registry *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = time.Second
	}
	if c.UnhealthyThreshold <= 0 {
		c.UnhealthyThreshold = 3
	}
	if c.HealthyThreshold <= 0 {
		c.HealthyThreshold = 2
	}
	return c
}

type probeState struct {
	name        string
	healthy     bool
	consecFail  int
	consecOK    int
	transitions int
}

// Checker probes backends on a clock (virtual or wall) and tracks their
// health.
type Checker struct {
	clk     clock.Clock
	cfg     Config
	states  map[string]*probeState
	timers  []clock.Timer
	stopped bool
}

// NewChecker returns a checker driven by a clock — clock.Sim(engine) for
// virtual time, a clock.Wall for real time; register backends with Watch.
// The checker is single-threaded: all its methods must run serialized with
// the clock's callbacks (automatic on a sim engine; via clock.Wall.Do — or by
// only touching it from clock callbacks — on a wall clock).
func NewChecker(clk clock.Clock, cfg Config) *Checker {
	if clk == nil {
		panic("health: NewChecker requires a clock")
	}
	return &Checker{
		clk:    clk,
		cfg:    cfg.withDefaults(),
		states: make(map[string]*probeState),
	}
}

// Watch starts periodic probing of a backend. Backends start healthy.
// Watching after Stop is a no-op: a stopped checker stays stopped.
func (c *Checker) Watch(b *mesh.Backend) {
	if c.stopped {
		return
	}
	if _, ok := c.states[b.Name]; ok {
		return
	}
	st := &probeState{healthy: true, name: b.Name}
	c.states[b.Name] = st
	c.timers = append(c.timers, c.clk.Every(c.cfg.Interval, func() {
		c.probe(b, st)
	}))
}

// WatchAll starts probing every backend of the slice.
func (c *Checker) WatchAll(backends []*mesh.Backend) {
	for _, b := range backends {
		c.Watch(b)
	}
}

// Stop halts all probing and freezes health state. Cancelling the probe
// tickers is not enough on its own: a probe already in flight at Stop time
// still holds a pending timeout timer, which would otherwise fire later
// and record a failure — ejecting a backend from a checker the caller
// believes dead. The stopped flag silences those stragglers too. Stop is
// terminal and idempotent.
func (c *Checker) Stop() {
	c.stopped = true
	for _, t := range c.timers {
		t.Cancel()
	}
	c.timers = nil
}

// Healthy reports whether the named backend is in rotation. Unknown
// backends are healthy (fail open, like a mesh without checks configured).
func (c *Checker) Healthy(name string) bool {
	st, ok := c.states[name]
	return !ok || st.healthy
}

// Transitions returns how often the named backend changed health state.
func (c *Checker) Transitions(name string) int {
	if st, ok := c.states[name]; ok {
		return st.transitions
	}
	return 0
}

// probe issues one synthetic request through the configured prober (by
// default directly to the backend's server, bypassing load balancing like a
// kubelet probe hitting the pod) and applies the thresholds.
func (c *Checker) probe(b *mesh.Backend, st *probeState) {
	answered := false
	timedOut := false
	timeout := c.clk.After(c.cfg.Timeout, func() {
		if answered {
			return
		}
		timedOut = true
		c.record(st, false)
	})
	deliver := func(ok bool) {
		if timedOut {
			return // too late; already counted as failure
		}
		answered = true
		timeout.Cancel()
		c.record(st, ok)
	}
	if c.cfg.Probe != nil {
		c.cfg.Probe(b, deliver)
		return
	}
	b.Server.Serve(func(res backend.Result) {
		deliver(res.Success && !res.Rejected)
	})
}

func (c *Checker) record(st *probeState, ok bool) {
	if c.stopped {
		return // late delivery from a probe in flight at Stop time
	}
	if ok {
		st.consecOK++
		st.consecFail = 0
		if !st.healthy && st.consecOK >= c.cfg.HealthyThreshold {
			st.healthy = true
			st.transitions++
			if c.cfg.Registry != nil {
				c.cfg.Registry.Counter(MetricRestoresTotal, metrics.Labels{"backend": st.name}).Inc()
			}
		}
		return
	}
	st.consecFail++
	st.consecOK = 0
	if st.healthy && st.consecFail >= c.cfg.UnhealthyThreshold {
		st.healthy = false
		st.transitions++
		if c.cfg.Registry != nil {
			c.cfg.Registry.Counter(MetricEjectionsTotal, metrics.Labels{"backend": st.name}).Inc()
		}
	}
}

// String describes the checker.
func (c *Checker) String() string {
	return fmt.Sprintf("health{every=%v timeout=%v thresholds=%d/%d}",
		c.cfg.Interval, c.cfg.Timeout, c.cfg.UnhealthyThreshold, c.cfg.HealthyThreshold)
}

// FailoverPicker filters unhealthy backends out of the rotation before
// delegating to the inner strategy — round-robin plus failover, the
// baseline configuration of Istio/Linkerd multi-cluster deployments. If
// every backend is unhealthy it fails open and delegates unfiltered
// (sending somewhere beats sending nowhere).
type FailoverPicker struct {
	Checker *Checker
	Inner   mesh.Picker
}

var _ mesh.Picker = (*FailoverPicker)(nil)

// Pick implements mesh.Picker.
func (p *FailoverPicker) Pick(now time.Duration, src, service string, backends []*mesh.Backend) *mesh.Backend {
	healthy := make([]*mesh.Backend, 0, len(backends))
	for _, b := range backends {
		if p.Checker.Healthy(b.Name) {
			healthy = append(healthy, b)
		}
	}
	if len(healthy) == 0 {
		healthy = backends
	}
	return p.Inner.Pick(now, src, service, healthy)
}

// Observe forwards feedback to the inner picker when it wants it.
func (p *FailoverPicker) Observe(now time.Duration, src, backendName string, latency time.Duration, success bool) {
	if obs, ok := p.Inner.(mesh.Observer); ok {
		obs.Observe(now, src, backendName, latency, success)
	}
}
