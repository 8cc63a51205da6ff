package bench

import (
	"fmt"
	"time"

	"l3/internal/cost"
	"l3/internal/resilience"
	"l3/internal/trace"
)

// AblationInflightExponent sweeps the exponent on (Rᵢ+1) in Equation 4.
// The paper chose 2 as "a good trade-off between swiftly diverting traffic
// away from backends experiencing increasing latency and ensuring
// stability"; this ablation quantifies that choice on scenario-2 (the
// scenario with the strongest RPS variation, where in-flight pressure
// matters most).
func AblationInflightExponent(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	r := &Result{ID: "ablation-inflight-exponent", Title: "Equation 4 exponent on (Ri+1), scenario-2 P99"}
	exps := []float64{1, 2, 3}
	var cells []cell
	for _, exp := range exps {
		o := opts
		o.inflightExponent = exp
		cells = append(cells, cell{scenario: trace.Scenario2, algo: AlgoL3, opts: o})
	}
	out, err := sweep(opts.Parallel, cells...)
	if err != nil {
		return nil, err
	}
	for i, exp := range exps {
		r.AddRow(fmt.Sprintf("exponent %.0f", exp), p99ms(out[i].rec), "ms", NoPaper)
	}
	r.Note("paper default is 2 (squaring); 1 under-reacts to queue build-up, 3 overreacts")
	return r, nil
}

// AblationPercentile sweeps the latency percentile Lₛ is taken from. §3.1
// says L3 can be configured for the 98th or 99.9th percentile as
// requirements demand.
func AblationPercentile(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	r := &Result{ID: "ablation-percentile", Title: "Latency percentile feeding Algorithm 1, scenario-1 P99"}
	percentiles := []float64{0.90, 0.98, 0.99, 0.999}
	var cells []cell
	for _, p := range percentiles {
		o := opts
		o.Percentile = p
		cells = append(cells, cell{scenario: trace.Scenario1, algo: AlgoL3, opts: o})
	}
	out, err := sweep(opts.Parallel, cells...)
	if err != nil {
		return nil, err
	}
	for i, p := range percentiles {
		r.AddRow(fmt.Sprintf("P%g", p*100), p99ms(out[i].rec), "ms", NoPaper)
	}
	return r, nil
}

// AblationRateControl measures Algorithm 2's contribution in the regime
// §3.2 designed it for: a sudden load surge against backends whose
// capacity the fastest one cannot absorb alone. One cluster is clearly
// fastest, so Algorithm 1 concentrates traffic on it; when the offered
// load steps 4x, the rate controller's c > 0 response spreads the surge
// across all backends before the favourite saturates.
func AblationRateControl(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	r := &Result{ID: "ablation-rate-control", Title: "Algorithm 2 on/off under a 4x load surge"}
	type combo struct{ autoscaled, disabled bool }
	var combos []combo
	for _, autoscaled := range []bool{false, true} {
		for _, disabled := range []bool{false, true} {
			combos = append(combos, combo{autoscaled, disabled})
		}
	}
	surge := SurgeScenario()
	var cells []cell
	for _, c := range combos {
		o := opts
		// The fast deployment is small (cap ≈ 180 RPS at its ~22 ms
		// mean); the slower ones are wide (cap ≈ 350 RPS each).
		// Algorithm 1 alone concentrates ~70 % of traffic on the fast
		// one, which the surge onset then saturates; Algorithm 2
		// detects the RPS jump within one update and spreads the
		// surge, buying the autoscaler (when present) the time §3.2
		// describes.
		o.ConcurrencyByCluster = map[string]int{
			"cluster-1": 4, "cluster-2": 40, "cluster-3": 40,
		}
		o.DisableRateControl = c.disabled
		o.Autoscale = c.autoscaled
		cells = append(cells, cell{trace: surge, algo: AlgoL3, opts: o})
	}
	out, err := sweep(opts.Parallel, cells...)
	if err != nil {
		return nil, err
	}
	for i, c := range combos {
		rec := out[i].rec
		// Report the quantile of the surge onset window (30 s from
		// the step, offset by the run's warm-up).
		onset := rec.WindowQuantile(0.99, opts.WarmUp+3*time.Minute, opts.WarmUp+3*time.Minute+30*time.Second)
		label := fmt.Sprintf("rate control %v, autoscaler %v",
			map[bool]string{false: "on", true: "off"}[c.disabled],
			map[bool]string{false: "off", true: "on"}[c.autoscaled])
		r.AddRow(label+" (surge-onset P99)", msOf(onset), "ms", NoPaper)
		r.AddRow(label+" (overall P99)", msOf(rec.Quantile(0.99)), "ms", NoPaper)
		r.AddRow(label+" (overall P50)", msOf(rec.Quantile(0.5)), "ms", NoPaper)
	}
	r.Note("surge: 80 RPS stepping to 320 RPS for three minutes at minute 3; the fast backend is small, the slow ones wide")
	r.Note("finding: the P99 is pinned by the onset's queue blast, which both Algorithm 2 and Equation 4's (Ri+1)^2 term correct only at the next 5 s update; the autoscaler's contribution (absorbing the sustained surge, §3.2) is visible at the median")
	return r, nil
}

// SurgeScenario builds the synthetic step-surge workload for the
// rate-control ablation: stable latencies with one clearly-fastest
// cluster, and an offered load that steps from 80 to 320 RPS between
// minutes 3 and 5.
func SurgeScenario() *trace.Scenario {
	const (
		step = time.Second
		n    = 601
	)
	mk := func(med, p99 float64) trace.ClusterTrace {
		return trace.ClusterTrace{
			Median:  trace.Constant(step, n, med),
			P99:     trace.Constant(step, n, p99),
			Success: trace.Constant(step, n, 1),
		}
	}
	fast := mk(0.020, 0.050)
	fast.Cluster = "cluster-1"
	mid := mk(0.100, 0.250)
	mid.Cluster = "cluster-2"
	slow := mk(0.110, 0.280)
	slow.Cluster = "cluster-3"

	rps := make([]float64, n)
	for i := range rps {
		rps[i] = 80
		if i >= 180 && i < 360 {
			rps[i] = 320
		}
	}
	return &trace.Scenario{
		Name:     "surge",
		Duration: 10 * time.Minute,
		Step:     step,
		RPS:      trace.Series{Step: step, Values: rps},
		Clusters: []trace.ClusterTrace{fast, mid, slow},
	}
}

// AblationScrapeInterval sweeps the metrics pipeline's scrape interval. §4
// discusses the freshness/load trade-off of the 5 s default.
func AblationScrapeInterval(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	r := &Result{ID: "ablation-scrape-interval", Title: "Scrape interval (data freshness), scenario-4 P99"}
	intervals := []time.Duration{time.Second, 5 * time.Second, 15 * time.Second}
	var cells []cell
	for _, iv := range intervals {
		o := opts
		o.ScrapeInterval = iv
		cells = append(cells, cell{scenario: trace.Scenario4, algo: AlgoL3, opts: o})
	}
	out, err := sweep(opts.Parallel, cells...)
	if err != nil {
		return nil, err
	}
	for i, iv := range intervals {
		r.AddRow(fmt.Sprintf("scrape %v", iv), p99ms(out[i].rec), "ms", NoPaper)
	}
	r.Note("faster scraping tracks scenario-4's short episodes better at higher pipeline cost (§4)")
	return r, nil
}

// AblationBaselines compares the full strategy roster, including the one
// the paper discusses but does not plot: Linkerd's per-request P2C over
// PeakEWMA (its in-cluster default).
func AblationBaselines(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	r := &Result{ID: "ablation-baselines", Title: "All strategies on scenario-1 (P99)"}
	algos := []Algorithm{AlgoRoundRobin, AlgoP2C, AlgoC3, AlgoL3}
	out, err := sweep(opts.Parallel, algoCells(trace.Scenario1, opts, algos)...)
	if err != nil {
		return nil, err
	}
	for i, algo := range algos {
		r.AddRow(algo.String(), p99ms(out[i].rec), "ms", NoPaper)
	}
	return r, nil
}

// AblationDynamicPenalty evaluates the paper's future work (§7): deriving
// the penalty factor P per backend from "continuous feedback about the
// response time of unsuccessful requests" instead of a static constant.
// failure-1's failures cost only their observed service time (~tens of
// ms), far below the static 600 ms guess, so the dynamic variant should
// behave like a well-tuned small P.
func AblationDynamicPenalty(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	r := &Result{ID: "ablation-dynamic-penalty", Title: "Static vs dynamic penalty factor on failure-1"}
	statics := []time.Duration{100 * time.Millisecond, 600 * time.Millisecond, 1500 * time.Millisecond}
	dynamic := opts
	dynamic.DynamicPenalty = true
	cells := append(penaltyCells(trace.Failure1, opts, statics), cell{scenario: trace.Failure1, algo: AlgoL3, opts: dynamic})
	out, err := sweep(opts.Parallel, cells...)
	if err != nil {
		return nil, err
	}
	for i, p := range statics {
		r.AddRow(fmt.Sprintf("static P=%v (P99)", p), p99ms(out[i].rec), "ms", NoPaper)
		r.AddRow(fmt.Sprintf("static P=%v (success)", p), out[i].rec.SuccessRate()*100, "%", NoPaper)
	}
	dyn := out[len(statics)].rec
	r.AddRow("dynamic P (P99)", msOf(dyn.Quantile(0.99)), "ms", NoPaper)
	r.AddRow("dynamic P (success)", dyn.SuccessRate()*100, "%", NoPaper)
	return r, nil
}

// AblationPenaltyWithRetries re-runs the penalty-factor comparison with
// client retries enabled — §5.2.1 notes the paper's benchmarks skipped
// retries and conjectures that "the effect of P on the latency percentile
// decrease might not be as strong with retries as in our benchmark". With
// retries, failed requests genuinely cost the client extra round-trips, so
// Equation 3's model matches reality and success converges toward 100 %.
func AblationPenaltyWithRetries(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	// Plain client retries: three tries, 10 ms doubling backoff, no jitter,
	// no budget — the client the paper's conjecture is about.
	opts.Resilience = &resilience.Policy{Retry: resilience.RetryConfig{
		MaxAttempts: 3, Backoff: 10 * time.Millisecond, Jitter: -1,
	}}
	r := &Result{ID: "ablation-penalty-retries", Title: "Penalty factor with client retries, failure-2"}
	penalties := []time.Duration{100 * time.Millisecond, 600 * time.Millisecond, 1500 * time.Millisecond}
	baseline := cell{scenario: trace.Failure2, algo: AlgoRoundRobin, opts: opts}
	out, err := sweep(opts.Parallel, append([]cell{baseline}, penaltyCells(trace.Failure2, opts, penalties)...)...)
	if err != nil {
		return nil, err
	}
	rr := out[0].rec
	r.AddRow("Round-robin (P99)", msOf(rr.Quantile(0.99)), "ms", NoPaper)
	r.AddRow("Round-robin (success)", rr.SuccessRate()*100, "%", NoPaper)
	for i, p := range penalties {
		rec := out[i+1].rec
		dec := (1 - rec.Quantile(0.99).Seconds()/rr.Quantile(0.99).Seconds()) * 100
		r.AddRow(fmt.Sprintf("L3 P=%v (P99 decrease)", p), dec, "%", NoPaper)
		r.AddRow(fmt.Sprintf("L3 P=%v (success)", p), rec.SuccessRate()*100, "%", NoPaper)
	}
	r.Note("retried latency spans all attempts, so every strategy's tail includes genuine failure costs")
	return r, nil
}

// AblationCostAwareness evaluates the other §7 extension: making L3 aware
// of inter-cluster transfer pricing. λ is the dollars→latency exchange
// rate (seconds of virtual latency per dollar of per-request transfer
// cost); λ = 0 is plain L3. Costs use public-cloud-like $0.02/GB between
// clusters at 16 KiB per request; the reported bill is normalised per
// million requests. The expected trade-off: rising λ keeps more traffic
// local, shrinking the bill at some tail-latency price.
func AblationCostAwareness(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	r := &Result{ID: "ablation-cost", Title: "Cost-aware L3 on scenario-1 (λ sweep)"}
	lambdas := []float64{0, 1e5, 3e5, 1e6, 3e6}
	var cells []cell
	for _, lambda := range lambdas {
		o := opts
		o.CostLambda = lambda
		cells = append(cells, cell{scenario: trace.Scenario1, algo: AlgoL3, opts: o})
	}
	out, err := sweep(opts.Parallel, cells...)
	if err != nil {
		return nil, err
	}
	for i, lambda := range lambdas {
		rec := out[i].rec
		label := fmt.Sprintf("λ=%.0es/$", lambda)
		if lambda == 0 {
			label = "λ=0 (plain L3)"
		}
		remoteShare, bill := out[i].traffic()
		r.AddRow(label+" (P99)", p99ms(rec), "ms", NoPaper)
		r.AddRow(label+" (remote traffic)", remoteShare*100, "%", NoPaper)
		r.AddRow(label+" (cost/M req)", bill/float64(rec.Count())*1e6, "$", NoPaper)
	}
	return r, nil
}

// traffic reads a cell's traffic-cost accounting off its repetitions' count
// matrices, in rep order: the fraction of requests served outside the
// source cluster, and the inter-cluster transfer bill in dollars, priced by
// cost.TrafficCost.
func (r *record) traffic() (remoteShare, bill float64) {
	var local, remote float64
	for _, run := range r.reps {
		bill += cost.TrafficCost(run.counts)
		for _, link := range sortedLinks(run.counts) {
			if link[0] == link[1] {
				local += run.counts[link]
			} else {
				remote += run.counts[link]
			}
		}
	}
	if local+remote > 0 {
		remoteShare = remote / (local + remote)
	}
	return remoteShare, bill
}

// AblationFailover compares L3's proactive symptom-based steering with the
// reactive health-check failover of production meshes, on the heavy
// failure-1 scenario: availability dips last tens of seconds, which a
// 10-second probe with a 3-strike threshold catches late or (for
// probabilistic 30 %-success failure) often not at all, while L3's
// success-rate EWMA starts shifting within one collection round.
func AblationFailover(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	r := &Result{ID: "ablation-failover", Title: "Health-check failover vs L3 on failure-1"}
	algos := []Algorithm{AlgoRoundRobin, AlgoFailover, AlgoL3}
	out, err := sweep(opts.Parallel, algoCells(trace.Failure1, opts, algos)...)
	if err != nil {
		return nil, err
	}
	for i, algo := range algos {
		r.AddRow(algo.String()+" (P99)", p99ms(out[i].rec), "ms", NoPaper)
		r.AddRow(algo.String()+" (success)", out[i].rec.SuccessRate()*100, "%", NoPaper)
	}
	r.Note("probes answer with the backend's probabilistic success, so a 30%%-success dip needs 3 consecutive probe failures (p≈0.34 per round) to eject — L3 steers on the measured rate instead")
	return r, nil
}
