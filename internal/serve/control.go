package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"l3/internal/c3"
	"l3/internal/clock"
	"l3/internal/cluster"
	"l3/internal/core"
	"l3/internal/guard"
	"l3/internal/health"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/smi"
	"l3/internal/timeseries"
)

// control is the serve-mode control plane: the same component graph the
// simulated benches wire — scraper → TSDB (guard-gated) → collector →
// assigner → controller → SMI store → data plane — running single-threaded
// on a clock.Wall instead of a sim.Engine.
//
// Two deliberate differences from the in-process sim wiring:
//
//   - The scrape is a real HTTP GET of the server's own /metrics endpoint,
//     parsed from exposition text (metrics.ParseExposition). The controller
//     steers from what a real Prometheus would see — serialization quirks
//     included — not from registry pointers.
//   - Split updates additionally publish a new Router weight table, the
//     atomic handoff from the single-threaded control world to the
//     concurrent data plane.
type control struct {
	cfg      Config
	wall     *clock.Wall
	router   *Router
	backends []*Backend

	splits     *smi.Store
	db         *timeseries.DB
	collector  *core.Collector
	controller *core.Controller
	checker    *health.Checker
	watchdog   *guard.Watchdog
	gate       *guard.WriteGate

	// scraper is the one scrape loop both clocks share; here its text
	// source GETs the server's own /metrics.
	scraper    *core.Scraper
	client     *http.Client
	metricsURL string

	pushTimer  clock.Timer
	staleTimer clock.Timer

	// failStatic is engaged and released by staleCheck, from the scraper's
	// last-ingest time: when the control plane has stored no scrape for
	// StaleAfter, the data plane stops trusting new split writes and decays
	// the routing table toward uniform.
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
		db:       timeseries.NewDB(2 * cfg.Window),
		// The client timeout backstops the per-scrape context: both are
		// capped well under the interval so a stalled /metrics endpoint
		// can never push the next control round late.
		client:     &http.Client{Timeout: cfg.ScrapeTimeout},
		metricsURL: metricsURL,
	}
	c.failStaticGauge = ctrlReg.Gauge("serve_failstatic_active", metrics.Labels{"service": cfg.Service})
	c.scraper = core.NewScraperClock(wall, c.db, nil, cfg.ScrapeInterval)
	c.scraper.SetSource(c.scrapeSelf)

	var hyg *guard.Hygiene
	if cfg.Guard {
		hyg = guard.NewHygiene(guard.Config{}, ctrlReg)
		c.db.SetGate(hyg)
		c.gate = guard.NewWriteGate(guard.Config{}, ctrlReg)
	}

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

	c.collector = &core.Collector{DB: c.db, Window: cfg.Window, Percentile: cfg.Percentile}
	if hyg != nil {
		c.collector.Resets = hyg
	}

	if cfg.Algo == AlgoL3 || cfg.Algo == AlgoC3 {
		// The paper's filter half-lives (5 s latency/in-flight, 10 s
		// success/RPS) assume its 5 s reconcile interval. Serve configs may
		// reconcile faster (the tests run at 250 ms); scaling the
		// half-lives with the interval keeps the paper's convergence
		// behaviour — N rounds to settle — instead of its absolute seconds.
		wcfg := core.WeightingConfig{
			LatencyHalfLife:  cfg.ReconcileInterval,
			InflightHalfLife: cfg.ReconcileInterval,
			SuccessHalfLife:  2 * cfg.ReconcileInterval,
			RPSHalfLife:      2 * cfg.ReconcileInterval,
		}
		rcfg := core.RateControlConfig{RPSHalfLife: 2 * cfg.ReconcileInterval}
		newAssigner := func() core.Assigner {
			var a core.Assigner
			if cfg.Algo == AlgoC3 {
				a = c3.New(c3.Config{})
			} else {
				a = core.NewL3Assigner(wcfg, rcfg, true)
			}
			if cfg.Guard {
				a = guard.NewAssigner(a, guard.Config{}, ctrlReg)
			}
			return a
		}
		ctrlCfg := core.ControllerConfig{
			Interval:     cfg.ReconcileInterval,
			NewAssigner:  newAssigner,
			SelfRegistry: ctrlReg,
		}
		if c.gate != nil {
			ctrlCfg.WriteGuard = c.gate
		}
		c.controller = core.NewControllerClock(wall, c.splits, c.collector, ctrlCfg)
		if c.gate != nil {
			c.watchdog = guard.NewWatchdogClock(wall, c.splits, guard.Config{}, ctrlReg, nil, c.gate)
		}
	}

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
		weights := make(map[string]int64, len(ts.Backends))
		for _, b := range ts.Backends {
			weights[b.Service] = b.Weight
		}
		router.rebuild(c.backends, weights)
	})

	c.scraper.Start()
	if c.cfg.StaleAfter > 0 {
		c.staleTimer = c.wall.Every(c.cfg.ReconcileInterval, c.staleCheck)
	}
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
	if c.controller != nil {
		c.controller.Start()
	}
	if c.watchdog != nil {
		c.watchdog.Start()
	}
}

// stop halts every loop (the wall clock itself is stopped by the server).
func (c *control) stop() {
	if c.cancelWatch != nil {
		c.cancelWatch()
	}
	c.scraper.Stop()
	if c.staleTimer != nil {
		c.staleTimer.Cancel()
	}
	if c.pushTimer != nil {
		c.pushTimer.Cancel()
	}
	if c.controller != nil {
		c.controller.Stop()
	}
	if c.watchdog != nil {
		c.watchdog.Stop()
	}
	if c.checker != nil {
		c.checker.Stop()
	}
}

// scrapeSelf is the scraper's text source, the control plane's Prometheus
// stand-in: GET the server's own /metrics and parse the exposition. The GET
// and the parse run on their own goroutine (a wall callback must never block
// on a socket — the lesson of a /metrics stall taking the whole control loop
// down with it), bounded by ScrapeTimeout; the samples re-enter the
// single-threaded world via wall.Do, the same shape as httpProber.
func (c *control) scrapeSelf(done func([]metrics.Sample, error)) {
	go func() {
		samples, err := c.fetchMetrics()
		c.wall.Do(func() { done(samples, err) })
	}()
}

func (c *control) fetchMetrics() ([]metrics.Sample, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ScrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.metricsURL, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: scrape answered %s", resp.Status)
	}
	return metrics.ParseExposition(resp.Body)
}

// staleCheck runs every reconcile tick: when the scraper has stored nothing
// for StaleAfter, engage fail-static (freeze the table against stale-control
// writes) and decay the frozen weights toward uniform — the
// graceful-degradation half of the guard story, covering the failure the
// in-loop watchdog cannot see: a controller that keeps writing splits
// computed from data that stopped arriving. Once scrapes are stored again it
// releases the mode, and the controller's next reconcile republishes real
// weights.
func (c *control) staleCheck() {
	if c.wall.Now()-c.scraper.LastIngest() <= c.cfg.StaleAfter {
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

// decayWeights pulls the published table toward uniform by DecayFactor:
// weight' = u + f·(weight − u) over every configured backend, so backends
// the stale controller had ejected also return as the signal is forgotten.
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
	nw := make(map[string]int64, len(c.backends))
	changed := false
	for _, b := range c.backends {
		cur := float64(w[b.Name])
		decayed := int64(u + c.cfg.DecayFactor*(cur-u) + 0.5)
		if decayed < 1 {
			decayed = 1
		}
		nw[b.Name] = decayed
		if decayed != int64(cur) {
			changed = true
		}
	}
	if changed {
		c.router.rebuild(c.backends, nw)
	}
}

// SetDropping makes the scraper drop (or stop dropping) every scrape. It
// forwards on the control clock, since tests call it from their goroutine.
func (c *control) SetDropping(on bool) { c.wall.Do(func() { c.scraper.SetDropping(on) }) }

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
func (c *control) Scrapes() int64 { return c.scraper.Ingests() }
