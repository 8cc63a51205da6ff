package bench

import (
	"time"

	"l3/internal/chaos"
	"l3/internal/health"
	"l3/internal/loadgen"
	"l3/internal/resilience"
	"l3/internal/trace"
)

// perRequest is one resilience counter family per logical request entering
// the layer: the retry ratio a budget bounds, or the duplicate load hedging
// buys its tail cut with.
func (r *record) perRequest(name string) float64 {
	requests := r.total(resilience.MetricRequestsTotal)
	if requests == 0 {
		return 0
	}
	return r.total(name) / requests
}

// resilienceLoadOptions is the shared testbed of the R1/R3 figures: a
// deliberately small deployment where retry and breaker dynamics are
// visible. 10 workers per backend put total capacity (~430 rps on
// scenario-1's 50-85 ms medians) a comfortable ~40% above the ~300 rps
// offered load, so every well-behaved client is clean at baseline. The
// queue bound is the storm ingredient: a full queue's waiting time
// (queue × service-time / workers ≈ 1-1.6 s) exceeds R1's 500 ms per-try
// timeout, so once queues fill, every response a backend serves goes to a
// client that already abandoned the attempt — capacity burned on work
// nobody is waiting for. That wasted-work regime is what makes a retry
// storm metastable rather than self-correcting: instant queue rejects
// would cost the server nothing and the storm would unwind on its own.
func resilienceLoadOptions(opts Options) Options {
	opts.Concurrency = 10
	opts.QueueCapacity = 192
	return opts
}

// saturateSchedule degrades the named backends to fraction factor of
// their workers over the standard chaos window.
func saturateSchedule(opts Options, factor float64, backendNames ...string) *chaos.Schedule {
	at, dur := chaosWindow(opts)
	sched := &chaos.Schedule{}
	for _, name := range backendNames {
		sched.Events = append(sched.Events, chaos.Event{
			Kind: chaos.Saturate, At: at, Duration: dur,
			Backend: name, Factor: factor,
		})
	}
	return sched
}

// postHealGoodput averages successful requests per second over the run's
// tail, starting grace after the fault healed — the "did it come back"
// number that separates a metastable retry storm from a recovery.
func postHealGoodput(rec *loadgen.Recorder, reps int, healAbs, grace time.Duration) float64 {
	rps := rec.RPSSeries()
	sr := rec.SuccessRateSeries()
	from := int((healAbs + grace) / loadgen.BucketWidth)
	if from >= len(rps) {
		return 0
	}
	// The final buckets are drain artifacts (the generator stops issuing
	// but stragglers still land); keep them out of the average.
	last := len(rps) - 3
	if last > len(sr) {
		last = len(sr)
	}
	var sum float64
	n := 0
	for i := from; i < last; i++ {
		sum += rps[i] * sr[i]
		n++
	}
	if n == 0 {
		return 0
	}
	// The merged recorder stacks reps on the same buckets; normalise back
	// to per-run rates.
	return sum / float64(n) / float64(reps)
}

// FigR1 is the retry-storm figure: two of three backends saturate to a
// tenth of their workers mid-run and heal, under three client
// configurations — no retries, naive ×3 retries, and budget-bounded
// retries, all behind a 2 s deadline with a 500 ms per-try timeout on the
// retrying clients. Per-try timeouts make naive retries triple the
// offered load; that pins every queue past the point where waiting time
// exceeds the timeout, so every response a backend serves goes to a
// client that already gave up — all capacity burned as wasted work.
// Amplified load (~3×300 rps) exceeds even the healed capacity (~430),
// so the collapse outlives the fault: the metastable failure mode
// Linkerd/Finagle retry budgets exist to prevent. The budgeted client
// bounds retry load to its earn rate (~10%), stays under healed capacity,
// and drains back to full goodput within seconds of the heal.
func FigR1(opts Options) (*Result, error) {
	opts = resilienceLoadOptions(opts.withDefaults())
	// A correlated fault: two of the three backends drop to a tenth of
	// their workers, so retries cannot simply route around it — the
	// surviving backend alone cannot carry amplified load.
	sched := saturateSchedule(opts, 0.1, apiService+"-cluster-1", apiService+"-cluster-2")
	opts.Chaos = sched
	healAbs := opts.WarmUp + sched.Events[0].At + sched.Events[0].Duration

	// All three clients share the 2 s deadline; the retrying clients also
	// abandon attempts unanswered for 500 ms (per-try timeout) and retry —
	// the abandoned work stays queued server-side, which is what arms the
	// storm. They differ only in whether a token bucket bounds those
	// retries: BudgetRatio 0 on the naive client means unlimited.
	const deadline = 2 * time.Second
	retryCfg := resilience.RetryConfig{
		MaxAttempts:    3,
		AttemptTimeout: 500 * time.Millisecond,
		Backoff:        10 * time.Millisecond,
		Jitter:         0.2,
	}
	budgetCfg := retryCfg
	budgetCfg.BudgetRatio = 0.1
	configs := []struct {
		label  string
		policy *resilience.Policy
	}{
		{"no retries", &resilience.Policy{Deadline: deadline}},
		{"naive x3", &resilience.Policy{Deadline: deadline, Retry: retryCfg}},
		{"budget 0.1", &resilience.Policy{Deadline: deadline, Retry: budgetCfg}},
	}
	var cells []cell
	for _, cfg := range configs {
		o := opts
		o.Resilience = cfg.policy
		cells = append(cells, cell{scenario: trace.Scenario1, algo: AlgoRoundRobin, opts: o})
	}
	out, err := sweep(opts.Parallel, cells...)
	if err != nil {
		return nil, err
	}

	r := &Result{ID: "figR1", Title: "Retry storm: naive vs budgeted retries under a saturate fault", SeriesStep: time.Second}
	for i, cfg := range configs {
		s := out[i]
		label := cfg.label
		r.AddRow(label+" success", s.rec.SuccessRate()*100, "%", NoPaper)
		r.AddRow(label+" post-heal goodput", postHealGoodput(s.rec, opts.Reps, healAbs, 10*time.Second), "rps", NoPaper)
		r.AddRow(label+" retry ratio", s.perRequest(resilience.MetricRetriesTotal), "retries/req", NoPaper)
		r.AddRow(label+" P99", msOf(s.rec.Quantile(0.99)), "ms", NoPaper)
		addRecovery(r, label, s.report, true)
		if denied := s.total(resilience.MetricBudgetExhaustedTotal); denied > 0 {
			r.AddRow(label+" budget-denied", denied, "", NoPaper)
		}
		r.AddSeries("success_"+label, s.rec.SuccessRateSeries())
	}
	r.Note("chaos schedule: %s (shifted by %v warm-up)", sched, opts.WarmUp)
	r.Note("testbed: concurrency 10/backend, queue 192, deadline 2s, per-try timeout 500ms — offered ~300 rps vs ~430 rps capacity; a full queue waits ~1-1.6s, past the per-try timeout")
	r.Note("expectation: the budget caps retry ratio at ~0.1 and goodput returns after the heal; naive x3 amplifies offered load past healed capacity and stays collapsed")
	return r, nil
}

// FigR2 is the hedging figure: scenario-2's heavy tail (p99 spikes above
// 2 s) under round-robin, sweeping the hedge threshold. Hedging at a high
// percentile cuts p99/p999 for a few percent of duplicate load; hedging
// too early buys little more tail for much more load.
func FigR2(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	configs := []struct {
		label  string
		policy *resilience.Policy
	}{
		{"no hedge", nil},
		{"hedge p99", &resilience.Policy{Hedge: resilience.HedgeConfig{Percentile: 0.99}}},
		{"hedge p95", &resilience.Policy{Hedge: resilience.HedgeConfig{Percentile: 0.95}}},
		{"hedge p90", &resilience.Policy{Hedge: resilience.HedgeConfig{Percentile: 0.90}}},
	}
	var cells []cell
	for _, cfg := range configs {
		o := opts
		o.Resilience = cfg.policy
		cells = append(cells, cell{scenario: trace.Scenario2, algo: AlgoRoundRobin, opts: o})
	}
	out, err := sweep(opts.Parallel, cells...)
	if err != nil {
		return nil, err
	}

	r := &Result{ID: "figR2", Title: "Hedged requests: tail latency vs hedge threshold", SeriesStep: time.Second}
	for i, cfg := range configs {
		s := out[i]
		label := cfg.label
		r.AddRow(label+" P50", msOf(s.rec.Quantile(0.50)), "ms", NoPaper)
		r.AddRow(label+" P99", msOf(s.rec.Quantile(0.99)), "ms", NoPaper)
		r.AddRow(label+" P999", msOf(s.rec.Quantile(0.999)), "ms", NoPaper)
		r.AddRow(label+" duplicate load", s.perRequest(resilience.MetricHedgesTotal)*100, "%", NoPaper)
		r.AddRow(label+" success", s.rec.SuccessRate()*100, "%", NoPaper)
	}
	r.Note("scenario-2 under round-robin; hedge threshold learned online from successful-response latency")
	r.Note("expectation: p99/p999 drop as the threshold tightens, while duplicate load grows ~(1-percentile); p50 is untouched — hedges fire only past the threshold")
	return r, nil
}

// FigR3 is the circuit-breaking figure: one backend degrades to 1/20 of
// its workers (slow-failing, not dead) and the figure compares how fast
// each protection takes it out of rotation: none, the data-path breaker,
// probe-driven health failover, and both composed. The breaker reacts in
// a handful of failed responses; probes need FailureThreshold × Interval.
func FigR3(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	// Unlike R1's storm testbed, R3 needs enough headroom that ejecting
	// one of three backends is SAFE (two backends ≈ 600×2/3 = 400 rps vs
	// ~300 offered): the figure isolates how fast each mechanism takes
	// the degraded backend out, not what redistribution overload does.
	opts.Concurrency = 14
	opts.QueueCapacity = 192
	sched := saturateSchedule(opts, 0.05, apiService+"-cluster-2")
	opts.Chaos = sched

	breakerPolicy := &resilience.Policy{
		Breaker: resilience.BreakerConfig{
			ConsecutiveFailures: 5,
			BaseEjection:        10 * time.Second,
			MaxEjectionPercent:  0.5,
		},
	}
	configs := []struct {
		label  string
		algo   Algorithm
		policy *resilience.Policy
	}{
		{"RR", AlgoRoundRobin, nil},
		{"RR+breaker", AlgoRoundRobin, breakerPolicy},
		{"RR+failover", AlgoFailover, nil},
		{"failover+breaker", AlgoFailover, breakerPolicy},
	}
	var cells []cell
	for _, cfg := range configs {
		o := opts
		o.Resilience = cfg.policy
		cells = append(cells, cell{scenario: trace.Scenario1, algo: cfg.algo, opts: o})
	}
	out, err := sweep(opts.Parallel, cells...)
	if err != nil {
		return nil, err
	}

	r := &Result{ID: "figR3", Title: "Circuit breaking vs probe-driven ejection under partial degradation", SeriesStep: time.Second}
	for i, cfg := range configs {
		s := out[i]
		label := cfg.label
		r.AddRow(label+" success", s.rec.SuccessRate()*100, "%", NoPaper)
		addRecovery(r, label, s.report, false)
		if ejected := s.total(resilience.MetricBreakerEjectionsTotal); ejected > 0 || s.total(resilience.MetricBreakerDeniedTotal) > 0 {
			r.AddRow(label+" breaker ejections", ejected, "", NoPaper)
		}
		if probed := s.total(health.MetricEjectionsTotal); probed > 0 {
			r.AddRow(label+" probe ejections", probed, "", NoPaper)
		}
		r.AddSeries("success_"+label, s.rec.SuccessRateSeries())
	}
	r.Note("chaos schedule: %s (shifted by %v warm-up)", sched, opts.WarmUp)
	r.Note("expectation: the breaker ejects on the data path within ~5 failed responses; probe failover waits out 3 probes x 10 s; max-ejection-percent 0.5 keeps at most half the backends out")
	return r, nil
}
