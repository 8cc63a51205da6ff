package serve

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"l3/internal/clock"
	"l3/internal/cluster"
	"l3/internal/core"
	"l3/internal/guard"
	"l3/internal/health"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/plane"
	"l3/internal/smi"
)

// control is the serve-mode control plane: the plane the simulated benches
// build (internal/plane: scraper → TSDB, guard-gated → collector → assigner →
// controller → SMI store → data plane), running single-threaded on a
// clock.Wall instead of a sim.Engine.
//
// What differs from the sim's plane, and why:
//
//   - The scrape source is text: a real HTTP GET of the server's own
//     /metrics, parsed from exposition (metrics.ParseExposition). The
//     controller steers from what a real Prometheus would see —
//     serialization quirks included — not from registry pointers.
//   - The controller exports its self-metrics into the control registry,
//     which /metrics serves; the sim's runs keep none.
//   - L3's filter half-lives scale with the interval (see newControl); the
//     sim keeps the paper's fixed 5 s and 10 s.
//   - There is no guard watchdog. Fail-static (staleCheck) covers a stalled
//     feed instead, and split updates additionally publish a new Router
//     weight table, the atomic handoff from the single-threaded control
//     world to the concurrent data plane.
type control struct {
	cfg      Config
	wall     *clock.Wall
	router   *Router
	backends []*Backend

	splits  *smi.Store
	plane   *plane.Plane
	checker *health.Checker

	// client and metricsURL are the plane's text source: its scraper GETs
	// the server's own /metrics.
	client     *http.Client
	metricsURL string

	pushTimer  clock.Timer
	staleTimer clock.Timer

	// failStatic is engaged and released by staleCheck, from the scraper's
	// last-ingest time: when the control plane has stored no scrape for
	// staleAfter (guard's stale threshold, three scrape intervals), the data
	// plane stops trusting new split writes and decays the routing table
	// toward uniform.
	staleAfter      time.Duration
	failStatic      atomic.Bool
	engagements     atomic.Int64
	failStaticGauge *metrics.Gauge

	cancelWatch func()
}

// newControl wires the control plane over an already-listening server.
// metricsURL is the server's own /metrics endpoint. Nothing runs until
// start.
func newControl(cfg Config, wall *clock.Wall, router *Router, backends []*Backend, ctrlReg *metrics.Registry, metricsURL string) *control {
	c := &control{
		cfg:      cfg,
		wall:     wall,
		router:   router,
		backends: backends,
		splits:   smi.NewStore(),
		// A scrape may take half the interval, body read included, so a
		// stalled /metrics endpoint can never push the next round late.
		client:     &http.Client{Timeout: cfg.ScrapeInterval / 2},
		metricsURL: metricsURL,
		staleAfter: guard.Config{Interval: cfg.ScrapeInterval}.StaleAfter(),
	}
	c.failStaticGauge = ctrlReg.Gauge("serve_failstatic_active", metrics.Labels{"service": cfg.Service})

	// The TrafficSplit under management: one split, the configured
	// service, uniform initial weights — the state a fresh deployment
	// declares before any controller has observed traffic.
	ts := &smi.TrafficSplit{Name: cfg.Service, RootService: cfg.Service}
	for _, b := range backends {
		ts.Backends = append(ts.Backends, smi.Backend{Service: b.Name, Weight: 1})
	}
	if err := c.splits.Create(ts); err != nil {
		panic(fmt.Sprintf("serve: creating own split: %v", err))
	}

	pcfg := plane.Config{
		Interval:     cfg.ScrapeInterval,
		Percentile:   cfg.Percentile,
		Guard:        cfg.Guard,
		Registry:     ctrlReg,
		Source:       c.scrapeSelf,
		SelfRegistry: ctrlReg,
	}
	if cfg.Algo == AlgoL3 || cfg.Algo == AlgoC3 {
		pcfg.Specs = []plane.Spec{{}}
	}
	if cfg.Algo == AlgoL3 {
		// The paper's filter half-lives (5 s latency/in-flight, 10 s
		// success/RPS) assume its 5 s reconcile interval. Serve configs may
		// reconcile faster (the tests run at 250 ms); scaling the half-lives
		// with the interval keeps the paper's convergence behaviour — N
		// rounds to settle — instead of its absolute seconds. C3, which the
		// plane builds, scales its own.
		iv := cfg.ScrapeInterval
		wcfg := core.WeightingConfig{
			LatencyHalfLife:  iv,
			InflightHalfLife: iv,
			SuccessHalfLife:  2 * iv,
			RPSHalfLife:      2 * iv,
		}
		rcfg := core.RateControlConfig{RPSHalfLife: 2 * iv}
		pcfg.NewAssigner = func() core.Assigner { return core.NewL3Assigner(wcfg, rcfg, true) }
	}
	c.plane = plane.New(wall, c.splits, pcfg)

	if cfg.Algo != AlgoRR {
		hcfg := health.Config{
			Interval: cfg.HealthInterval,
			Timeout:  cfg.HealthTimeout,
			Registry: ctrlReg,
			Probe:    c.httpProber(),
		}
		c.checker = health.NewChecker(wall, hcfg)
	}

	return c
}

// start arms every loop. Must be called before traffic; it touches
// single-threaded state from the caller's goroutine, so the wall clock must
// not be delivering callbacks yet (Server.Start guarantees the ordering).
func (c *control) start(router *Router) {
	// Rebuild the router on every split write (the watch fires
	// synchronously inside store mutations, which happen only on the wall
	// clock's single thread), and via replay once now for the initial
	// uniform table. The data plane sees each rebuild as one atomic
	// pointer swap.
	c.cancelWatch = c.splits.Watch(true, func(e cluster.Event[*smi.TrafficSplit]) {
		ts := e.Object
		if ts.Name != c.cfg.Service || e.Type == cluster.Deleted {
			return
		}
		// While fail-static, split writes come from a controller steering on
		// stale data; the frozen (decaying) table outranks them.
		if c.failStatic.Load() {
			return
		}
		router.publish(c.backends, ts)
	})

	c.plane.Start()
	c.staleTimer = c.wall.Every(c.cfg.ScrapeInterval, c.staleCheck)
	if c.checker != nil {
		for _, b := range c.backends {
			// The checker keys on Name; the shell backend never serves.
			c.checker.Watch(&mesh.Backend{Name: b.Name})
		}
		// Push the checker's verdicts into the data plane's atomic bits.
		interval := c.cfg.HealthInterval / 2
		if interval < 100*time.Millisecond {
			interval = 100 * time.Millisecond
		}
		c.pushTimer = c.wall.Every(interval, func() {
			for _, b := range c.backends {
				b.SetHealthy(c.checker.Healthy(b.Name))
			}
		})
	}
}

// stop halts every loop (the wall clock itself is stopped by the server).
func (c *control) stop() {
	if c.cancelWatch != nil {
		c.cancelWatch()
	}
	c.plane.Stop()
	c.staleTimer.Cancel()
	if c.pushTimer != nil {
		c.pushTimer.Cancel()
	}
	if c.checker != nil {
		c.checker.Stop()
	}
}

// scrapeSelf is the scraper's text source, the control plane's Prometheus
// stand-in: GET the server's own /metrics and parse the exposition. The GET
// and the parse run on their own goroutine (a wall callback must never block
// on a socket — the lesson of a /metrics stall taking the whole control loop
// down with it), bounded by the client's timeout; the samples re-enter the
// single-threaded world via wall.Do, the same shape as httpProber.
func (c *control) scrapeSelf(done func([]metrics.Sample, error)) {
	go func() {
		samples, err := c.fetchMetrics()
		c.wall.Do(func() { done(samples, err) })
	}()
}

func (c *control) fetchMetrics() ([]metrics.Sample, error) {
	resp, err := c.client.Get(c.metricsURL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: scrape answered %s", resp.Status)
	}
	return metrics.ParseExposition(resp.Body)
}

// staleCheck runs every scrape interval: when the scraper has stored nothing
// for guard's stale threshold (three intervals), engage fail-static (freeze
// the table against stale-control writes) and decay the frozen weights
// toward uniform — the graceful-degradation half of the guard story,
// covering a controller that keeps writing splits computed from data that
// stopped arriving. Once scrapes are stored again it releases the mode, and
// the controller's next reconcile republishes real weights.
func (c *control) staleCheck() {
	if c.wall.Now()-c.plane.Scraper.LastIngest() <= c.staleAfter {
		if c.failStatic.CompareAndSwap(true, false) {
			c.failStaticGauge.Set(0)
		}
		return
	}
	if c.failStatic.CompareAndSwap(false, true) {
		c.engagements.Add(1)
		c.failStaticGauge.Set(1)
	}
	c.decayWeights()
}

// decayWeights pulls the published table toward uniform by guard's decay
// step, the one a blind backend takes: weight' = weight + 0.2·(u − weight)
// over every configured backend, so backends the stale controller had
// ejected also return as the signal is forgotten.
func (c *control) decayWeights() {
	if len(c.backends) == 0 {
		return
	}
	w := c.router.Weights()
	var total float64
	for _, b := range c.backends {
		total += float64(w[b.Name])
	}
	if total <= 0 {
		return
	}
	u := total / float64(len(c.backends))
	nw := &smi.TrafficSplit{Backends: make([]smi.Backend, len(c.backends))}
	changed := false
	for i, b := range c.backends {
		cur := float64(w[b.Name])
		decayed := int64(guard.Decay(cur, u) + 0.5)
		if decayed < 1 {
			decayed = 1
		}
		nw.Backends[i] = smi.Backend{Service: b.Name, Weight: decayed}
		if decayed != int64(cur) {
			changed = true
		}
	}
	if changed {
		c.router.publish(c.backends, nw)
	}
}

// SetDropping makes the scraper drop (or stop dropping) every scrape. It
// forwards on the control clock, since tests call it from their goroutine.
func (c *control) SetDropping(on bool) { c.wall.Do(func() { c.plane.Scraper.SetDropping(on) }) }

// FailStaticActive reports whether the data plane is in fail-static
// degraded mode (safe from any goroutine).
func (c *control) FailStaticActive() bool { return c.failStatic.Load() }

// FailStaticEngagements counts distinct fail-static engagements.
func (c *control) FailStaticEngagements() int64 { return c.engagements.Load() }

// httpProber probes a backend's health endpoint over real HTTP. The fetch
// runs on its own goroutine (a wall callback must not block on a remote
// server); the verdict re-enters the single-threaded world via wall.Do.
func (c *control) httpProber() health.Prober {
	client := &http.Client{Timeout: c.cfg.HealthTimeout}
	byName := make(map[string]*Backend, len(c.backends))
	for _, b := range c.backends {
		byName[b.Name] = b
	}
	return func(mb *mesh.Backend, done func(success bool)) {
		b := byName[mb.Name]
		if b == nil {
			done(false)
			return
		}
		probeURL := b.URL.JoinPath(c.cfg.HealthPath).String()
		go func() {
			ok := false
			if resp, err := client.Get(probeURL); err == nil {
				ok = resp.StatusCode >= 200 && resp.StatusCode < 400
				resp.Body.Close()
			}
			c.wall.Do(func() { done(ok) })
		}()
	}
}

// Scrapes counts the self-scrapes stored so far (safe from any goroutine).
func (c *control) Scrapes() int64 { return c.plane.Scraper.Ingests() }
