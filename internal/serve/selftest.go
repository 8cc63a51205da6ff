package serve

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"l3/internal/clock"
	"l3/internal/loadgen"
	"l3/internal/metrics"
	"l3/internal/resilience"
)

// Selftest is the serve-mode benchmark harness: spin up skewed stub
// backends (two fast, one slow), run the proxy once per algorithm under the
// open-loop wall-clock load generator, and report achieved RPS, latency
// percentiles and the converged weight table. It is the wall-clock analogue
// of the simulator's figure benches — same skew shape, same open-loop
// discipline, real sockets.

// SelftestOptions parameterise one selftest run.
type SelftestOptions struct {
	Rate        float64       // offered load per algorithm pass (default 250 rps)
	Duration    time.Duration // measured length of each pass (default 8s)
	WarmUp      time.Duration // discarded head of each pass (default 3s)
	FastLatency time.Duration // latency of the two fast stubs (default 5ms)
	SlowLatency time.Duration // latency of the slow stub (default 60ms)
	Algos       []string      // passes to run (default rr, l3)
}

func (o SelftestOptions) withDefaults() SelftestOptions {
	if o.Rate <= 0 {
		o.Rate = 250
	}
	if o.Duration <= 0 {
		o.Duration = 6 * time.Second
	}
	if o.WarmUp <= 0 {
		// WarmUp caps the convergence wait: a controller pass starts its
		// measured window as soon as the weight table has actually shifted
		// off the slow backend (or this deadline passes), so the selftest
		// is robust to -race and one-core slowdowns instead of guessing a
		// fixed settle time.
		o.WarmUp = 12 * time.Second
	}
	if o.FastLatency <= 0 {
		o.FastLatency = 5 * time.Millisecond
	}
	if o.SlowLatency <= 0 {
		// Deep skew on purpose: L3's converged share for the slow backend
		// is roughly fast/slow of a fast backend's share (amplified by the
		// squared in-flight term), and the p99 comparison against
		// round-robin only reads statistically clean when that share sinks
		// well below 1% of traffic. 5 ms vs 1 s converges to ~0.3%, so a
		// measured window of a few hundred samples holds a couple of slow
		// responses against a p99 rank margin of several.
		o.SlowLatency = time.Second
	}
	if len(o.Algos) == 0 {
		o.Algos = []string{AlgoRR, AlgoL3}
	}
	return o
}

// AlgoResult is one algorithm's pass.
type AlgoResult struct {
	Algo        string            `json:"algo"`
	Issued      uint64            `json:"issued"`
	Errors      uint64            `json:"errors"`
	Converged   time.Duration     `json:"converged_after_ns"`
	AchievedRPS float64           `json:"achieved_rps"`
	P50         time.Duration     `json:"p50_ns"`
	P99         time.Duration     `json:"p99_ns"`
	P999        time.Duration     `json:"p999_ns"`
	SuccessRate float64           `json:"success_rate"`
	Weights     map[string]uint64 `json:"weights"`
	Scrapes     int64             `json:"scrapes"`
	Retries     int64             `json:"retries"`
	Dropped     int64             `json:"dropped"`
}

// SelftestReport is the full selftest outcome.
type SelftestReport struct {
	Results []AlgoResult `json:"results"`
	Cores   int          `json:"gomaxprocs"`
}

// RunSelftest runs the passes and streams a human-readable report to out.
func RunSelftest(opts SelftestOptions, out io.Writer) (*SelftestReport, error) {
	opts = opts.withDefaults()
	report := &SelftestReport{Cores: runtime.GOMAXPROCS(0)}

	stubs, err := startSkewedStubs(opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, s := range stubs {
			s.Close()
		}
	}()
	fmt.Fprintf(out, "selftest: %d stub backends (fast=%v slow=%v), %v rps for %v per algorithm (warm-up %v), GOMAXPROCS=%d\n",
		len(stubs), opts.FastLatency, opts.SlowLatency, opts.Rate, opts.Duration, opts.WarmUp, report.Cores)

	for _, algo := range opts.Algos {
		res, err := runAlgoPass(algo, opts, stubs)
		if err != nil {
			return nil, fmt.Errorf("selftest %s pass: %w", algo, err)
		}
		report.Results = append(report.Results, *res)
		fmt.Fprintf(out, "  %-8s rps=%.1f p50=%v p99=%v p999=%v ok=%.4f converged=%v weights=%v scrapes=%d retries=%d dropped=%d\n",
			algo, res.AchievedRPS, res.P50, res.P99, res.P999, res.SuccessRate, res.Converged, res.Weights, res.Scrapes, res.Retries, res.Dropped)
	}

	if rr, l3 := report.result(AlgoRR), report.result(AlgoL3); rr != nil && l3 != nil {
		fmt.Fprintf(out, "  p99 %s=%v vs %s=%v (%.1fx)\n", AlgoRR, rr.P99, AlgoL3, l3.P99, float64(rr.P99)/float64(l3.P99))
	}
	return report, nil
}

// slowShare returns the slow stub's fraction of the published weight table.
func slowShare(weights map[string]uint64) float64 {
	var total uint64
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return 1
	}
	return float64(weights[selftestSlowName]) / float64(total)
}

func (r *SelftestReport) result(algo string) *AlgoResult {
	for i := range r.Results {
		if r.Results[i].Algo == algo {
			return &r.Results[i]
		}
	}
	return nil
}

// selftestSlowName is the slow stub's backend name; the convergence gate
// watches its weight.
const selftestSlowName = "slow-c"

// startSkewedStubs starts the canonical selftest backend set: two fast, one
// slow — the skew shape of the paper's heterogeneous-cluster experiments.
func startSkewedStubs(opts SelftestOptions) ([]*StubBackend, error) {
	var stubs []*StubBackend
	for _, spec := range []struct {
		name    string
		latency time.Duration
	}{
		{"fast-a", opts.FastLatency},
		{"fast-b", opts.FastLatency},
		{selftestSlowName, opts.SlowLatency},
	} {
		s, err := NewStubBackend(spec.name, spec.latency)
		if err != nil {
			for _, prev := range stubs {
				prev.Close()
			}
			return nil, err
		}
		stubs = append(stubs, s)
	}
	return stubs, nil
}

// runAlgoPass boots a server with algo, offers open-loop load through the
// wall-clock load generator, drains, and summarises.
func runAlgoPass(algo string, opts SelftestOptions, stubs []*StubBackend) (*AlgoResult, error) {
	cfg := DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.Algo = algo
	cfg.ScrapeInterval = 500 * time.Millisecond
	cfg.ReconcileInterval = 500 * time.Millisecond
	cfg.Window = 2 * time.Second
	cfg.HealthInterval = 500 * time.Millisecond
	cfg.HealthTimeout = 250 * time.Millisecond
	cfg.DrainTimeout = 5 * time.Second
	for _, s := range stubs {
		cfg.Backends = append(cfg.Backends, s.BackendConfigOf())
	}
	srv, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}

	client := &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 128},
	}
	target := srv.URL() + "/"

	const bucketWidth = 250 * time.Millisecond
	loadWall := clock.NewWall()
	gen := loadgen.NewClock(loadWall, loadgen.Config{
		Rate:        loadgen.ConstantRate(opts.Rate),
		BucketWidth: bucketWidth,
		CatchUp:     true,
	}, func(done func(latency time.Duration, success bool)) error {
		go func() {
			start := time.Now()
			ok := false
			if resp, err := client.Get(target); err == nil {
				ok = resp.StatusCode < http.StatusInternalServerError
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			latency := time.Since(start)
			// The Recorder is single-threaded; re-enter through the load
			// generator's wall to serialize completions with arrivals.
			loadWall.Do(func() { done(latency, ok) })
		}()
		return nil
	})

	loadWall.Do(gen.Start)
	res := &AlgoResult{Algo: algo}
	passStart := time.Now()

	// Convergence gate: a controller pass starts measuring once the weight
	// table has actually pushed the slow backend below 1% of traffic (the
	// share where it leaves the p99 population), bounded by WarmUp. Fixed
	// settle times guess wrong under -race or one-core slowdowns; the gate
	// watches the thing the measurement depends on. Uncontrolled passes
	// (rr, failover) keep uniform weights forever, so they settle briefly
	// and measure.
	if algo == AlgoL3 || algo == AlgoC3 {
		deadline := passStart.Add(opts.WarmUp)
		for time.Now().Before(deadline) {
			if slowShare(srv.Router().Weights()) < 0.008 {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		res.Converged = time.Since(passStart).Round(time.Millisecond)
	}
	time.Sleep(time.Second)

	// Measure over whole recorder buckets: samples are bucketed by request
	// start time, so the window holds exactly the picks made after m0.
	m0 := (loadWall.Now()/bucketWidth + 1) * bucketWidth
	time.Sleep(opts.Duration)
	stopAt := loadWall.Now()
	loadWall.Do(gen.Stop)
	// In-flight requests must record before the stats read: the slowest
	// possible straggler is one that picked the slow backend at stop time.
	time.Sleep(opts.SlowLatency + 500*time.Millisecond)

	res.Weights = srv.Router().Weights()
	loadWall.Do(func() {
		rec := gen.Recorder()
		res.Issued = gen.Issued()
		res.Errors = gen.IssueErrors()
		res.P50 = rec.WindowQuantile(0.50, m0, stopAt)
		res.P99 = rec.WindowQuantile(0.99, m0, stopAt)
		res.P999 = rec.WindowQuantile(0.999, m0, stopAt)
		res.SuccessRate = rec.SuccessRate()
		lo, hi := int(m0/bucketWidth), int(stopAt/bucketWidth)
		series := rec.RPSSeries()
		var sum float64
		for i := lo; i < hi && i < len(series); i++ {
			sum += series[i]
		}
		if hi > lo {
			res.AchievedRPS = sum / float64(hi-lo)
		}
	})
	res.Scrapes = srv.Control().Scrapes()
	res.Retries = srv.Handler().Retries()

	dropped, err := srv.ShutdownTimeout()
	loadWall.Stop()
	if err != nil {
		return nil, err
	}
	res.Dropped = dropped
	return res, nil
}

// MeasureProxyLayerAllocs measures the serve package's own per-request hot
// path — deadline, the resilience core's request-start and response calls,
// weighted pick and outcome recording — isolated from forwarding itself
// (what a whole proxied request allocates is pinned by
// TestProxiedRequestBytes and itemized in DESIGN.md). The acceptance bar is 0
// allocs/op, pinned by TestMeasureProxyLayerAllocsAgrees and
// TestProxyHotPathZeroAllocs; the repository benchmark reports it as
// serve.layer_allocs_per_op.
func MeasureProxyLayerAllocs() float64 {
	return allocsPerRun(10000, proxyLayer(true))
}

// proxyLayer returns one request through the per-request path over three
// backends under DefaultResilience, ending in a success (ok) or in a failure
// and its retry decision.
func proxyLayer(ok bool) func() {
	reg := metrics.NewRegistry()
	backends := make([]*Backend, 0, 3)
	for _, name := range []string{"a", "b", "c"} {
		b, err := newBackend(BackendConfig{Name: name, URL: "http://127.0.0.1:1"}, "api", reg)
		if err != nil {
			panic(err)
		}
		backends = append(backends, b)
	}
	router := NewRouter(backends)
	pol, err := resilience.ParsePolicy(DefaultResilience)
	if err != nil {
		panic(err)
	}
	res := newWallResilience(pol, "api", backends, reg)
	req, err := http.NewRequest(http.MethodGet, "http://127.0.0.1:1/", nil)
	if err != nil {
		panic(err)
	}
	req.Header.Set(HeaderDeadline, "250")
	return func() {
		now := 42 * time.Millisecond
		dl := res.deadline(now, headerBudget(req))
		res.start(now, dl)
		b := router.Pick(now)
		b.inflight.Inc()
		b.inflight.Dec()
		b.Record(now, 3*time.Millisecond, ok)
		if !ok {
			res.retry(now, 1, pol.Retry.Backoff, dl)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun without importing package testing
// into the l3serve binary: pin to one OS thread's worth of parallelism,
// warm up once, then average mallocs over runs.
func allocsPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
