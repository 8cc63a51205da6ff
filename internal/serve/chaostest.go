package serve

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"l3/internal/chaos"
	"l3/internal/clock"
	"l3/internal/loadgen"
	"l3/internal/metrics"
	"l3/internal/resilience"
)

// Chaostest is the serve-mode resilience harness: boot the proxy over
// chaos-capable stub backends, drive open-loop load, run a scripted fault
// schedule through chaos.WallRunner against the live process, and assert
// recovery — the breaker ejects a stalled backend within a bounded number of
// failures, windowed p99 re-converges after each fault, and a starved
// control plane engages (and later releases) fail-static. It is the
// wall-clock counterpart of the simulator's -chaos runs: same schedule
// grammar, real sockets.

// DefaultChaosSchedule is the canonical chaostest script: a stall (the
// hardest fault — accepted connections that never answer), a connection-reset
// burst, a control-plane scrape outage, a slow-loris drip, a latency ramp and
// an availability flap, in sequence with clean air between them so each
// fault's recovery is measured in isolation.
const DefaultChaosSchedule = "stall@3s+4s:chaos-a; reset@10s+3s:chaos-b; scrapedrop@16s+4s; " +
	"slowloris@23s+4s:chaos-c/50ms; ramp@30s+4s:chaos-a/400ms; bflap@37s+4s:chaos-b/500ms"

// QuickChaosSchedule compresses the same six faults for CI smoke runs.
const QuickChaosSchedule = "stall@2s+3s:chaos-a; reset@7s+2s:chaos-b; scrapedrop@11s+3s; " +
	"slowloris@16s+3s:chaos-c/20ms; ramp@21s+3s:chaos-a/300ms; bflap@26s+3s:chaos-b/400ms"

// ChaostestOptions parameterise one chaostest run.
type ChaostestOptions struct {
	Rate        float64       // offered load (default 150 rps)
	Schedule    string        // fault schedule (default DefaultChaosSchedule)
	Quick       bool          // default to the compressed schedule
	BaseLatency time.Duration // healthy stub latency (default 5ms)
	Tail        time.Duration // observation window after the last heal (default 3s)
}

func (o ChaostestOptions) withDefaults() ChaostestOptions {
	if o.Rate <= 0 {
		o.Rate = 150
	}
	if o.Schedule == "" {
		if o.Quick {
			o.Schedule = QuickChaosSchedule
		} else {
			o.Schedule = DefaultChaosSchedule
		}
	}
	if o.BaseLatency <= 0 {
		o.BaseLatency = 5 * time.Millisecond
	}
	if o.Tail <= 0 {
		o.Tail = 3 * time.Second
	}
	return o
}

// FaultResult is one scheduled fault's observed recovery.
type FaultResult struct {
	Fault      string        `json:"fault"`
	Backend    string        `json:"backend,omitempty"`
	InjectedAt time.Duration `json:"injected_at_ns"`
	HealedAt   time.Duration `json:"healed_at_ns"`
	// Ejections counts breaker opens of the target backend across the fault
	// window; FailsToEject is the target's failure count between injection
	// and the first ejection — the "breaker ejects within N responses" bound.
	Ejections    int64 `json:"breaker_ejections"`
	FailsToEject int64 `json:"fails_to_eject,omitempty"`
	// FailStatic reports whether the control plane engaged fail-static
	// (scrapedrop faults only).
	FailStatic bool `json:"failstatic_engaged,omitempty"`
	// TTR is the time-to-recover: injection until the first full recovery
	// window ran at converged p99 (data-plane faults), or heal until
	// fail-static disengaged (scrapedrop).
	TTR       time.Duration `json:"ttr_ns"`
	Recovered bool          `json:"recovered"`
	// WindowP50/P99/P999 are the post-recovery window's latency quantiles.
	WindowP50  time.Duration `json:"window_p50_ns"`
	WindowP99  time.Duration `json:"window_p99_ns"`
	WindowP999 time.Duration `json:"window_p999_ns"`
}

// ChaosReport is the full chaostest outcome.
type ChaosReport struct {
	Schedule    string        `json:"schedule"`
	Results     []FaultResult `json:"results"`
	BaselineP99 time.Duration `json:"baseline_p99_ns"`
	Issued      uint64        `json:"issued"`
	AchievedRPS float64       `json:"achieved_rps"`
	SuccessRate float64       `json:"success_rate"`
	Retries     int64         `json:"retries"`
	Hedges      int64         `json:"hedges"`
	Panics      int64         `json:"panics"`
	Dropped     int64         `json:"dropped"`
	Cores       int           `json:"gomaxprocs"`
}

// chaosBackendNames is the chaostest stub fleet; schedules address these.
var chaosBackendNames = []string{"chaos-a", "chaos-b", "chaos-c"}

// RunChaostest runs the schedule against a live proxy and asserts recovery.
// The report is returned even when assertions fail, so callers can inspect
// what the run actually measured alongside the error.
func RunChaostest(opts ChaostestOptions, out io.Writer) (*ChaosReport, error) {
	opts = opts.withDefaults()
	sched, err := chaos.ParseSchedule(opts.Schedule)
	if err != nil {
		return nil, fmt.Errorf("chaostest: %w", err)
	}
	events := append([]chaos.Event(nil), sched.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	if len(events) == 0 {
		return nil, fmt.Errorf("chaostest: empty schedule")
	}
	lastHeal := time.Duration(0)
	for _, ev := range events {
		if end := ev.At + ev.Duration; end > lastHeal {
			lastHeal = end
		}
	}

	stubs := make([]*ChaosStub, 0, len(chaosBackendNames))
	defer func() {
		for _, s := range stubs {
			s.Close()
		}
	}()
	for _, name := range chaosBackendNames {
		s, err := NewChaosStub(name, opts.BaseLatency)
		if err != nil {
			return nil, err
		}
		stubs = append(stubs, s)
	}

	// Fast control loops so faults and recoveries fit a CI-sized run; a
	// tight per-try timeout so a stalled attempt fails over quickly; health
	// probing slowed down so the breaker — the component under test — is
	// what ejects, not the prober.
	cfg := DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.Algo = AlgoL3
	cfg.ScrapeInterval = 500 * time.Millisecond
	cfg.ReconcileInterval = 500 * time.Millisecond
	cfg.Window = 2 * time.Second
	cfg.HealthInterval = 2 * time.Second
	cfg.HealthTimeout = 500 * time.Millisecond
	cfg.Resilience = DefaultResilience + ",deadline=2s,pertry=250ms"
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
	cfg = srv.cfg // pick up derived fields (StaleAfter, ScrapeTimeout)
	pol := srv.res.policy
	srv.ScrapeWait(1, 5*time.Second)

	byName := make(map[string]*Backend, len(srv.backends))
	for _, b := range srv.backends {
		byName[b.Name] = b
	}
	// Ejections are read where an operator reads them: the core's counter on
	// the data registry, which /metrics exposes.
	ejections := func(b *Backend) int64 {
		labels := metrics.Labels{"service": cfg.Service, "backend": b.Name}
		return int64(srv.dataReg.Counter(resilience.MetricBreakerEjectionsTotal, labels).Value())
	}

	report := &ChaosReport{
		Schedule: opts.Schedule,
		Cores:    runtime.GOMAXPROCS(0),
	}
	fmt.Fprintf(out, "chaostest: %d chaos stubs at %v, %v rps, schedule %q, GOMAXPROCS=%d\n",
		len(stubs), opts.BaseLatency, opts.Rate, opts.Schedule, report.Cores)

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
			loadWall.Do(func() { done(latency, ok) })
		}()
		return nil
	})

	// The fault schedule and the load share one wall clock, so event times
	// and recorder buckets are on the same timeline.
	targets := chaos.WallTargets{
		Backends: make(map[string]chaos.WallBackend, len(stubs)),
		Scrapers: []chaos.ScrapeGate{srv.Control()},
	}
	for _, s := range stubs {
		targets.Backends[s.Name] = s
	}
	runner := chaos.NewWallRunner(loadWall, chaos.Schedule{Events: sched.Events}, targets, 0)
	loadWall.Do(gen.Start)
	if err := runner.Start(); err != nil {
		srv.ShutdownTimeout()
		loadWall.Stop()
		return nil, fmt.Errorf("chaostest: %w", err)
	}

	// Live observation: each fault window is watched for the signal only the
	// running process can show — breaker ejections (and the failure count it
	// took to trip), fail-static engagement and release.
	for _, ev := range events {
		fr := FaultResult{
			Fault:      chaosKindName(ev.Kind),
			Backend:    ev.Backend,
			InjectedAt: ev.At,
			HealedAt:   ev.At + ev.Duration,
		}
		switch ev.Kind {
		case chaos.ScrapeDrop:
			waitWall(loadWall, ev.At)
			fr.FailStatic = pollWall(loadWall, fr.HealedAt, srv.Control().FailStaticActive)
			waitWall(loadWall, fr.HealedAt)
			healAt := loadWall.Now()
			deadline := fr.HealedAt + 5*cfg.ScrapeInterval + 2*time.Second
			if pollWall(loadWall, deadline, func() bool { return !srv.Control().FailStaticActive() }) && fr.FailStatic {
				fr.TTR = loadWall.Now() - healAt
				fr.Recovered = true
			}
		default:
			b := byName[ev.Backend]
			ejBefore := ejections(b)
			failBefore := int64(b.failTotal.Value())
			waitWall(loadWall, ev.At)
			if pollWall(loadWall, fr.HealedAt, func() bool { return ejections(b) > ejBefore }) {
				fr.FailsToEject = int64(b.failTotal.Value()) - failBefore
			}
			waitWall(loadWall, fr.HealedAt)
			fr.Ejections = ejections(b) - ejBefore
		}
		report.Results = append(report.Results, fr)
	}

	waitWall(loadWall, lastHeal+opts.Tail)
	stopAt := loadWall.Now()
	loadWall.Do(gen.Stop)
	// Stragglers: the slowest possible in-flight request rides the full
	// request deadline before it records.
	time.Sleep(pol.Deadline + 500*time.Millisecond)
	runner.Stop()

	// Post-hoc recovery scan over the recorder's time-bucketed quantiles:
	// for each data-plane fault, find the first full window after injection
	// that ran at converged p99. TTR counts from injection — the breaker
	// ejecting the bad backend DURING the fault is the recovery story, not
	// just the heal.
	const recoveryWindow = time.Second
	loadWall.Do(func() {
		rec := gen.Recorder()
		report.Issued = gen.Issued()
		report.SuccessRate = rec.SuccessRate()
		report.AchievedRPS = float64(rec.Count()) / stopAt.Seconds()
		report.BaselineP99 = rec.WindowQuantile(0.99, bucketWidth, events[0].At)
		thresh := 4 * report.BaselineP99
		if thresh < 50*time.Millisecond {
			thresh = 50 * time.Millisecond
		}
		for i := range report.Results {
			fr := &report.Results[i]
			bound := stopAt
			if i+1 < len(events) && events[i+1].At < bound {
				bound = events[i+1].At
			}
			if fr.Fault == "scrapedrop" {
				// Control-plane outage: the data plane keeps serving; report
				// the fault window's own quantiles as proof.
				fr.WindowP50 = rec.WindowQuantile(0.50, fr.InjectedAt, bound)
				fr.WindowP99 = rec.WindowQuantile(0.99, fr.InjectedAt, bound)
				fr.WindowP999 = rec.WindowQuantile(0.999, fr.InjectedAt, bound)
				continue
			}
			start := ((fr.InjectedAt + bucketWidth - 1) / bucketWidth) * bucketWidth
			for t := start; t+recoveryWindow <= bound; t += bucketWidth {
				p99 := rec.WindowQuantile(0.99, t, t+recoveryWindow)
				if p99 <= 0 || p99 >= thresh {
					continue
				}
				fr.Recovered = true
				fr.TTR = t + recoveryWindow - fr.InjectedAt
				fr.WindowP50 = rec.WindowQuantile(0.50, t, t+recoveryWindow)
				fr.WindowP99 = p99
				fr.WindowP999 = rec.WindowQuantile(0.999, t, t+recoveryWindow)
				break
			}
		}
	})
	report.Retries = srv.Handler().Retries()
	report.Hedges = srv.Handler().Hedges()
	report.Panics = srv.Handler().Panics()

	dropped, err := srv.ShutdownTimeout()
	loadWall.Stop()
	if err != nil {
		return report, err
	}
	report.Dropped = dropped

	for _, fr := range report.Results {
		fmt.Fprintf(out, "  %-10s %-8s inject=%v heal=%v ejections=%d fails-to-eject=%d failstatic=%v recovered=%v ttr=%v window-p99=%v\n",
			fr.Fault, fr.Backend, fr.InjectedAt, fr.HealedAt, fr.Ejections, fr.FailsToEject,
			fr.FailStatic, fr.Recovered, fr.TTR.Round(time.Millisecond), fr.WindowP99.Round(time.Millisecond))
	}
	fmt.Fprintf(out, "  overall: issued=%d rps=%.1f ok=%.4f baseline-p99=%v retries=%d hedges=%d panics=%d dropped=%d\n",
		report.Issued, report.AchievedRPS, report.SuccessRate, report.BaselineP99.Round(time.Millisecond),
		report.Retries, report.Hedges, report.Panics, report.Dropped)

	if fails := report.assertions(pol); len(fails) > 0 {
		return report, fmt.Errorf("chaostest: %s", strings.Join(fails, "; "))
	}
	fmt.Fprintln(out, "chaostest: all recovery assertions held")
	return report, nil
}

// assertions is the chaostest acceptance bar; every failed clause is
// reported, not just the first.
func (r *ChaosReport) assertions(pol resilience.Policy) []string {
	var fails []string
	// The breaker must eject within a bounded number of failed responses:
	// the threshold itself, times slack for requests already in flight when
	// the circuit opened and for the observation poll's granularity.
	ejectBound := int64(5 * pol.Breaker.ConsecutiveFailures)
	for _, fr := range r.Results {
		switch fr.Fault {
		case "stall", "reset", "bflap":
			if fr.Ejections == 0 {
				fails = append(fails, fmt.Sprintf("%s(%s): breaker never ejected", fr.Fault, fr.Backend))
			} else if fr.FailsToEject > ejectBound {
				fails = append(fails, fmt.Sprintf("%s(%s): %d failures before first ejection, bound %d",
					fr.Fault, fr.Backend, fr.FailsToEject, ejectBound))
			}
			if !fr.Recovered {
				fails = append(fails, fmt.Sprintf("%s(%s): p99 never re-converged", fr.Fault, fr.Backend))
			}
		case "scrapedrop":
			if !fr.FailStatic {
				fails = append(fails, "scrapedrop: fail-static never engaged")
			}
			if !fr.Recovered {
				fails = append(fails, "scrapedrop: fail-static never released after heal")
			}
		default:
			if !fr.Recovered {
				fails = append(fails, fmt.Sprintf("%s(%s): p99 never re-converged", fr.Fault, fr.Backend))
			}
		}
	}
	if r.SuccessRate < 0.95 {
		fails = append(fails, fmt.Sprintf("success rate %.4f under chaos, want >= 0.95", r.SuccessRate))
	}
	if r.Dropped > 0 {
		fails = append(fails, fmt.Sprintf("%d requests dropped at drain", r.Dropped))
	}
	return fails
}

// chaosKindName names a kind without reaching into the chaos package's
// unexported grammar table.
func chaosKindName(k chaos.Kind) string {
	switch k {
	case chaos.Stall:
		return "stall"
	case chaos.ConnReset:
		return "reset"
	case chaos.SlowLoris:
		return "slowloris"
	case chaos.ErrorBurst:
		return "errorburst"
	case chaos.LatencyRamp:
		return "ramp"
	case chaos.BackendFlap:
		return "bflap"
	case chaos.ScrapeDrop:
		return "scrapedrop"
	case chaos.Garbage:
		return "garbage"
	}
	return fmt.Sprintf("kind-%d", int(k))
}

// waitWall sleeps until the wall clock reaches t.
func waitWall(w *clock.Wall, t time.Duration) {
	for w.Now() < t {
		time.Sleep(5 * time.Millisecond)
	}
}

// pollWall polls cond until it holds or the wall clock reaches deadline.
func pollWall(w *clock.Wall, deadline time.Duration, cond func() bool) bool {
	for {
		if cond() {
			return true
		}
		if w.Now() >= deadline {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}
