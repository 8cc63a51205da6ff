package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"l3/internal/mesh"
	"l3/internal/overload"
)

// The overload scene is the wall-clock counterpart of figures O1/O2: boot
// the proxy with an admission policy over constant-latency stubs, drive a
// three-phase load square wave (warm, saturating burst, recovery) with the
// criticality tier cycling per request, and assert the overload-control
// contract on the live process — queue delay stays under the policy's
// MaxWait ceiling, shedding is tier-ordered (sheddable first, critical
// last), the per-backend in-flight gauges on /metrics never exceed the
// concurrency limit, and the tier gate re-admits everything after the
// burst. It runs as part of `l3serve -chaostest`.

// overloadScenePolicy is the scene's admission policy: per-backend Vegas
// limiter 8→12, 20ms CoDel target over a 100ms interval, a 128-deep queue
// with a 400ms hard sojourn ceiling, and tier gating with 500ms readmit
// hysteresis so the square wave's recovery fits a CI-sized run.
const overloadScenePolicy = "limit=8,min=4,max=12,target=20ms,interval=100ms,qcap=128,maxwait=400ms,tiers=on,readmit=500ms"

// OverloadOptions parameterise one overload scene run.
type OverloadOptions struct {
	Quick       bool
	BaseLatency time.Duration // stub service time (default 100ms, constant)
	WarmRate    float64       // healthy offered load (default 120 rps)
	BurstRate   float64       // saturating offered load (default 600 rps)
	Warm        time.Duration // default 2s (quick 1s)
	Burst       time.Duration // default 4s (quick 3s)
	Cool        time.Duration // default 3s (quick 2.5s)
}

func (o OverloadOptions) withDefaults() OverloadOptions {
	if o.BaseLatency <= 0 {
		o.BaseLatency = 100 * time.Millisecond
	}
	if o.WarmRate <= 0 {
		o.WarmRate = 120
	}
	if o.BurstRate <= 0 {
		o.BurstRate = 600
	}
	if o.Warm <= 0 {
		o.Warm = 2 * time.Second
		if o.Quick {
			o.Warm = time.Second
		}
	}
	if o.Burst <= 0 {
		o.Burst = 4 * time.Second
		if o.Quick {
			o.Burst = 3 * time.Second
		}
	}
	if o.Cool <= 0 {
		o.Cool = 3 * time.Second
		if o.Quick {
			o.Cool = 2500 * time.Millisecond
		}
	}
	return o
}

// TierOutcome is one criticality tier's client-observed traffic.
type TierOutcome struct {
	Sent    int64 `json:"sent"`
	OK      int64 `json:"ok"`
	Shed429 int64 `json:"shed_429"`
	Shed503 int64 `json:"shed_503"`
	Other   int64 `json:"other"`
}

// OverloadReport is the scene's full outcome.
type OverloadReport struct {
	Policy string                         `json:"policy"`
	Tiers  [overload.NumTiers]TierOutcome `json:"tiers"`
	Stats  overload.Stats                 `json:"admitter_stats"`
	// MaxWait is the policy's hard sojourn ceiling, the bound Stats.MaxSojourn
	// is asserted against.
	MaxWait time.Duration `json:"max_wait_ns"`
	// PeakQueueDepth and PeakInflightSum are the largest overload_queue_depth
	// gauge and the largest per-backend request_inflight gauge sum observed
	// over /metrics during the burst — the gauges' load-bearing check.
	PeakQueueDepth  float64 `json:"peak_queue_depth"`
	PeakInflightSum float64 `json:"peak_inflight_sum"`
	// InflightViolation holds the worst "in-flight sum over limit" sample
	// ("" = none): the per-backend gauges must never show more concurrency
	// than the admitter granted.
	InflightViolation string `json:"inflight_violation,omitempty"`
	// ReadmitTTR is how long after the burst ended the tier gate took to
	// re-admit every tier; ReadmittedAll is whether it did.
	ReadmitTTR    time.Duration `json:"readmit_ttr_ns"`
	ReadmittedAll bool          `json:"readmitted_all"`
	AchievedRPS   float64       `json:"achieved_rps"`
	Dropped       int64         `json:"dropped"`
}

// tierHeaderValues cycles the criticality annotation over requests.
var tierHeaderValues = [overload.NumTiers]string{"critical", "default", "sheddable"}

// RunOverloadChaostest runs the overload scene against a live proxy and
// asserts the admission-control contract. Like RunChaostest, the report is
// returned even when assertions fail.
func RunOverloadChaostest(opts OverloadOptions, out io.Writer) (*OverloadReport, error) {
	opts = opts.withDefaults()

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

	cfg := DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.Algo = AlgoRR // uniform weights: the scene isolates the admission layer
	cfg.Overload = overloadScenePolicy
	cfg.ScrapeInterval = 500 * time.Millisecond
	cfg.ReconcileInterval = 500 * time.Millisecond
	cfg.Window = 2 * time.Second
	cfg.Resilience = DefaultResilience + ",deadline=2s,hedge=p0" // hedges would double-count backend load
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
	srv.ScrapeWait(1, 5*time.Second)

	pol, _ := cfg.OverloadPolicy()
	pol = pol.WithDefaults()
	report := &OverloadReport{
		Policy:  cfg.Overload,
		MaxWait: pol.Queue.MaxWait,
	}
	fmt.Fprintf(out, "overload scene: %d stubs at %v, warm %v rps / burst %v rps, policy %q\n",
		len(stubs), opts.BaseLatency, opts.WarmRate, opts.BurstRate, cfg.Overload)

	client := &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 256},
	}
	target := srv.URL() + "/"

	var wg sync.WaitGroup
	var seq atomic.Int64
	var sent, okC, c429, c503, other [overload.NumTiers]atomic.Int64
	fire := func() {
		tier := int(seq.Add(1)) % overload.NumTiers
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodGet, target, nil)
			if err != nil {
				other[tier].Add(1)
				sent[tier].Add(1)
				return
			}
			req.Header.Set(HeaderCriticality, tierHeaderValues[tier])
			resp, err := client.Do(req)
			if err == nil {
				switch {
				case resp.StatusCode < http.StatusInternalServerError && resp.StatusCode != http.StatusTooManyRequests:
					okC[tier].Add(1)
				case resp.StatusCode == http.StatusTooManyRequests:
					c429[tier].Add(1)
				case resp.StatusCode == http.StatusServiceUnavailable:
					c503[tier].Add(1)
				default:
					other[tier].Add(1)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			} else {
				other[tier].Add(1)
			}
			sent[tier].Add(1)
		}()
	}
	// drive paces fire() open-loop at rate for d — no feedback from
	// responses, so a shedding proxy faces undiminished offered load,
	// exactly the regime admission control exists for.
	drive := func(rate float64, d time.Duration) {
		interval := time.Duration(float64(time.Second) / rate)
		end := time.Now().Add(d)
		next := time.Now()
		for time.Now().Before(end) {
			fire()
			next = next.Add(interval)
			if sleep := time.Until(next); sleep > 0 {
				time.Sleep(sleep)
			}
		}
	}

	// The gauge sampler polls /metrics through the burst: the per-backend
	// in-flight gauges and the admission-queue depth must be live and
	// consistent with the limit while the scene is actually overloaded.
	samplerCtx, samplerStop := context.WithCancel(context.Background())
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		var peakLimit float64
		for {
			select {
			case <-samplerCtx.Done():
				return
			case <-time.After(100 * time.Millisecond):
			}
			body, err := fetchMetrics(client, srv.URL()+"/metrics")
			if err != nil {
				continue
			}
			inflightSum := sumGauge(body, mesh.MetricInflight)
			qdepth := sumGauge(body, MetricAdmissionQueueDepth)
			if limit := float64(srv.Admitter().Stats().TotalLimit); limit > peakLimit {
				peakLimit = limit
			}
			if inflightSum > report.PeakInflightSum {
				report.PeakInflightSum = inflightSum
			}
			if qdepth > report.PeakQueueDepth {
				report.PeakQueueDepth = qdepth
			}
			// The bound is the peak limit, not the current one: an AIMD
			// shrink mid-burst legitimately leaves work admitted at the old,
			// larger limit still in flight. Slack covers the gauge lagging
			// the admitter by the few instructions between slot grant and
			// gauge increment.
			if inflightSum > peakLimit+8 && report.InflightViolation == "" {
				report.InflightViolation = fmt.Sprintf("in-flight gauge sum %.0f exceeds peak limit %0.f", inflightSum, peakLimit)
			}
		}
	}()

	start := time.Now()
	drive(opts.WarmRate, opts.Warm)
	drive(opts.BurstRate, opts.Burst)
	burstEnd := time.Now()
	drive(opts.WarmRate, opts.Cool)
	wallDur := time.Since(start)
	wg.Wait()
	samplerStop()
	<-samplerDone

	// The gate's recovery: all tiers re-admitted within the cool-down plus
	// a grace window (readmit hysteresis needs sustained healthy sojourns,
	// which need traffic — keep trickling requests while polling).
	readmitDeadline := time.Now().Add(4 * time.Second)
	for time.Now().Before(readmitDeadline) {
		st := srv.Admitter().Stats()
		if st.AdmitMax == overload.NumTiers-1 {
			report.ReadmittedAll = true
			break
		}
		fire()
		time.Sleep(50 * time.Millisecond)
	}
	report.ReadmitTTR = time.Since(burstEnd)
	wg.Wait()

	report.Stats = srv.Admitter().Stats()
	var total int64
	for tier := 0; tier < overload.NumTiers; tier++ {
		report.Tiers[tier] = TierOutcome{
			Sent:    sent[tier].Load(),
			OK:      okC[tier].Load(),
			Shed429: c429[tier].Load(),
			Shed503: c503[tier].Load(),
			Other:   other[tier].Load(),
		}
		total += report.Tiers[tier].Sent
	}
	report.AchievedRPS = float64(total) / wallDur.Seconds()

	dropped, err := srv.ShutdownTimeout()
	if err != nil {
		return report, err
	}
	report.Dropped = dropped

	for tier := 0; tier < overload.NumTiers; tier++ {
		t := report.Tiers[tier]
		fmt.Fprintf(out, "  %-9s sent=%d ok=%d 429=%d 503=%d other=%d shed(server)=%d\n",
			overload.TierName(tier), t.Sent, t.OK, t.Shed429, t.Shed503, t.Other, report.Stats.Shed[tier])
	}
	fmt.Fprintf(out, "  queue: max-sojourn=%v (ceiling %v) codel-drops=%d overflow=%d lifo-flips=%d peak-depth=%.0f\n",
		report.Stats.MaxSojourn.Round(time.Millisecond), report.MaxWait,
		report.Stats.CodelDropped, report.Stats.QueueOverflow, report.Stats.LifoFlips, report.PeakQueueDepth)
	fmt.Fprintf(out, "  gate: readmits=%d admit-max=%d readmitted-all=%v ttr=%v; limit=%d peak-inflight=%.0f; rps=%.1f dropped=%d\n",
		report.Stats.Readmits, report.Stats.AdmitMax, report.ReadmittedAll,
		report.ReadmitTTR.Round(time.Millisecond), report.Stats.TotalLimit,
		report.PeakInflightSum, report.AchievedRPS, report.Dropped)

	if fails := report.assertions(); len(fails) > 0 {
		return report, fmt.Errorf("overload scene: %s", strings.Join(fails, "; "))
	}
	fmt.Fprintln(out, "overload scene: all admission-control assertions held")
	return report, nil
}

// assertions is the overload scene's acceptance bar.
func (r *OverloadReport) assertions() []string {
	var fails []string
	crit, def, shed := r.Stats.Shed[overload.TierCritical], r.Stats.Shed[overload.TierDefault], r.Stats.Shed[overload.TierSheddable]
	if shed == 0 {
		fails = append(fails, "burst never shed any sheddable traffic — the scene did not overload")
	}
	if shed < def || def < crit {
		fails = append(fails, fmt.Sprintf("shedding not tier-ordered: sheddable=%d default=%d critical=%d", shed, def, crit))
	}
	if c := r.Tiers[overload.TierCritical]; c.Sent > 0 && float64(c.OK) < 0.99*float64(c.Sent) {
		fails = append(fails, fmt.Sprintf("critical tier success %d/%d under overload, want >= 99%%", c.OK, c.Sent))
	}
	if r.Stats.MaxSojourn <= 0 {
		fails = append(fails, "admission queue never held a request — the scene did not queue")
	} else if r.Stats.MaxSojourn >= r.MaxWait {
		fails = append(fails, fmt.Sprintf("max queue sojourn %v not under the %v ceiling", r.Stats.MaxSojourn, r.MaxWait))
	}
	if r.PeakQueueDepth <= 0 {
		fails = append(fails, "overload_queue_depth gauge never showed a standing queue on /metrics")
	}
	if r.PeakInflightSum <= 0 {
		fails = append(fails, "request_inflight gauges never showed traffic on /metrics")
	}
	if r.InflightViolation != "" {
		fails = append(fails, r.InflightViolation)
	}
	if !r.ReadmittedAll {
		fails = append(fails, fmt.Sprintf("tier gate never re-admitted all tiers after the burst (admit-max %d)", r.Stats.AdmitMax))
	}
	if r.Dropped > 0 {
		fails = append(fails, fmt.Sprintf("%d requests dropped at drain", r.Dropped))
	}
	return fails
}

// fetchMetrics GETs a /metrics endpoint and returns the body.
func fetchMetrics(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// sumGauge sums every sample of one metric family in Prometheus text
// exposition (all label sets), returning 0 when the family is absent.
func sumGauge(body, family string) float64 {
	var sum float64
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue // a longer family name sharing the prefix
		}
		idx := strings.LastIndexByte(rest, ' ')
		if idx < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(rest[idx+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}
