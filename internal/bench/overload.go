package bench

import (
	"time"

	"l3/internal/chaos"
	"l3/internal/loadgen"
	"l3/internal/overload"
	"l3/internal/resilience"
	"l3/internal/trace"
)

// windowGoodput averages successful requests per second over [from, to) —
// the pre-fault companion to postHealGoodput, so goodput-retention ratios
// compare like windows of the same run.
func windowGoodput(rec *loadgen.Recorder, reps int, from, to time.Duration) float64 {
	rps := rec.RPSSeries()
	sr := rec.SuccessRateSeries()
	lo := int(from / loadgen.BucketWidth)
	hi := int(to / loadgen.BucketWidth)
	if hi > len(rps) {
		hi = len(rps)
	}
	if hi > len(sr) {
		hi = len(sr)
	}
	var sum float64
	n := 0
	for i := lo; i < hi; i++ {
		sum += rps[i] * sr[i]
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / float64(reps)
}

// saturateScenario builds O1's workload: three identical clusters
// (median 55 ms, P99 150 ms, no intrinsic failures) under a steady
// 300 rps. On the O1 testbed's 10-worker backends that is ~65% of the
// ~460 rps aggregate capacity — comfortably provisioned, so the injected
// saturate fault is the run's only disturbance. (Scenario1's organic
// cluster-2 latency episodes would land at arbitrary points of the
// post-heal window and confound the retention measurement; the
// resilience figures tolerate them because retry budgets don't shed
// throughput, but an admission controller correctly reads a slow
// backend as lost capacity.)
func saturateScenario(total time.Duration) *trace.Scenario {
	step := time.Second
	n := int(total/step) + 1
	sc := &trace.Scenario{Name: "saturate", Duration: total, Step: step,
		RPS: trace.Constant(step, n, 300)}
	for _, cl := range []string{"cluster-1", "cluster-2", "cluster-3"} {
		sc.Clusters = append(sc.Clusters, trace.ClusterTrace{
			Cluster: cl,
			Median:  trace.Constant(step, n, 0.055),
			P99:     trace.Constant(step, n, 0.150),
			Success: trace.Constant(step, n, 1.0),
		})
	}
	return sc
}

// figO1OverloadPolicy is the "limiter+codel" arm's admission policy: a
// Vegas limit sized ~50% above the baseline's bandwidth-delay product
// (~300 rps × 65 ms ≈ 20 in flight), a 20 ms CoDel target on the
// admission queue, tiers off — O1 isolates the limiter and drop law; O2
// adds criticality.
func figO1OverloadPolicy() *overload.Policy {
	return &overload.Policy{
		Limiter: overload.LimiterConfig{Initial: 32, Min: 4, Max: 64},
		Queue: overload.QueueConfig{
			Target:   20 * time.Millisecond,
			Interval: 100 * time.Millisecond,
			Capacity: 128,
		},
	}
}

// FigO1 is the saturation-collapse figure: R1's correlated fault (two of
// three backends drop to a tenth of their workers, then heal) under the
// same naive ×3 retrying client, with and without admission control. The
// uncontrolled client amplifies offered load past healed capacity and
// stays collapsed — the metastable regime R1 established. The controlled
// client watches its own RTTs: the Vegas limiter shrinks to the capacity
// the fault left, the CoDel queue sheds the excess at ~zero cost (a shed
// request never reaches a server), and when the fault heals the limiter
// regrows and goodput returns — same client, same retries, opposite
// outcome.
func FigO1(opts Options) (*Result, error) {
	opts = resilienceLoadOptions(opts.withDefaults())
	total := opts.Duration
	if total <= 0 {
		total = 10 * time.Minute
		opts.Duration = total
	}
	sc := saturateScenario(total)
	sched := saturateSchedule(opts, 0.1, apiService+"-cluster-1", apiService+"-cluster-2")
	opts.Chaos = sched
	faultAbs := opts.WarmUp + sched.Events[0].At
	healAbs := faultAbs + sched.Events[0].Duration

	// Both arms run R1's storm-prone client: 2 s deadline, naive ×3
	// retries with a 500 ms per-try timeout and no budget.
	const deadline = 2 * time.Second
	resPolicy := &resilience.Policy{
		Deadline: deadline,
		Retry: resilience.RetryConfig{
			MaxAttempts:    3,
			AttemptTimeout: 500 * time.Millisecond,
			Backoff:        10 * time.Millisecond,
			Jitter:         0.2,
		},
	}
	configs := []struct {
		label  string
		policy *overload.Policy
	}{
		{"uncontrolled", nil},
		{"limiter+codel", figO1OverloadPolicy()},
	}
	opts.Resilience = resPolicy
	var cells []cell
	for _, cfg := range configs {
		o := opts
		o.Overload = cfg.policy
		if o.Overload == nil {
			// The uncontrolled arm still runs through the (empty) overload
			// layer so both arms share one client stack; a disabled policy
			// is a pure pass-through.
			o.Overload = &overload.Policy{}
		}
		cells = append(cells, cell{trace: sc, algo: AlgoRoundRobin, opts: o})
	}
	out, err := sweep(opts.Parallel, cells...)
	if err != nil {
		return nil, err
	}

	r := &Result{ID: "figO1", Title: "Overload control: adaptive limit + CoDel vs uncontrolled saturation collapse", SeriesStep: time.Second}
	for i, cfg := range configs {
		s := out[i]
		label := cfg.label
		base := windowGoodput(s.rec, opts.Reps, opts.WarmUp+10*time.Second, faultAbs)
		post := postHealGoodput(s.rec, opts.Reps, healAbs, 10*time.Second)
		retention := 0.0
		if base > 0 {
			retention = post / base
		}
		r.AddRow(label+" success", s.rec.SuccessRate()*100, "%", NoPaper)
		r.AddRow(label+" baseline goodput", base, "rps", NoPaper)
		r.AddRow(label+" post-heal goodput", post, "rps", NoPaper)
		r.AddRow(label+" goodput retention", retention*100, "%", NoPaper)
		r.AddRow(label+" P99", msOf(s.rec.Quantile(0.99)), "ms", NoPaper)
		r.AddRow(label+" post-heal P99", msOf(s.rec.WindowQuantile(0.99, healAbs+10*time.Second, opts.WarmUp+total)), "ms", NoPaper)
		if cfg.policy != nil {
			r.AddRow(label+" shed", s.total(overload.MetricShedTotal), "", NoPaper)
			r.AddRow(label+" codel drops", s.total(overload.MetricCodelDroppedTotal), "", NoPaper)
			r.AddRow(label+" queue overflow", s.total(overload.MetricQueueOverflowTotal), "", NoPaper)
			r.AddRow(label+" final limit", float64(s.limit), "", NoPaper)
			r.AddRow(label+" max queue delay", msOf(s.maxSojourn), "ms", NoPaper)
		}
		addRecovery(r, label, s.report, true)
		r.AddSeries("success_"+label, s.rec.SuccessRateSeries())
	}
	r.Note("chaos schedule: %s (shifted by %v warm-up)", sched, opts.WarmUp)
	r.Note("testbed: 300 rps constant over three 55ms-median clusters (concurrency 10/backend, queue 192, ~460 rps capacity); R1's storm client (2s deadline, naive x3, 500ms per-try); the controlled arm adds limit 32 (min 4), CoDel target 20ms/interval 100ms, qcap 128")
	r.Note("expectation: uncontrolled loses over half its baseline goodput after the heal (metastable storm); limiter+CoDel sheds at the client for the fault's duration, keeps queue delay bounded near the CoDel target and retains ≥90%% goodput post-heal")
	return r, nil
}

// flashCrowdScenario builds O2's workload: three identical clusters
// (median 55 ms, P99 150 ms, no intrinsic failures, aggregate capacity
// ≈ 500 rps on the O2 testbed's 10-worker backends) under 250 rps of
// steady load, with a flash crowd to 1200 rps — 2.4× capacity — between
// 2/5 and 3/5 of the measured run.
func flashCrowdScenario(total time.Duration) (*trace.Scenario, time.Duration, time.Duration) {
	step := time.Second
	n := int(total/step) + 1
	flashFrom, flashTo := total*2/5, total*3/5
	rps := trace.Constant(step, n, 250)
	for i := range rps.Values {
		t := time.Duration(i) * step
		if t >= flashFrom && t < flashTo {
			rps.Values[i] = 1200
		}
	}
	sc := &trace.Scenario{Name: "flash-crowd", Duration: total, Step: step, RPS: rps}
	for _, cl := range []string{"cluster-1", "cluster-2", "cluster-3"} {
		sc.Clusters = append(sc.Clusters, trace.ClusterTrace{
			Cluster: cl,
			Median:  trace.Constant(step, n, 0.055),
			P99:     trace.Constant(step, n, 0.150),
			Success: trace.Constant(step, n, 1.0),
		})
	}
	return sc, flashFrom, flashTo
}

// figO2OverloadPolicy is the tiered arm's policy: O1's limiter and queue
// plus the criticality gate (1 s re-admit hysteresis).
func figO2OverloadPolicy() *overload.Policy {
	p := figO1OverloadPolicy()
	p.Limiter.Max = 96
	p.Queue.Target = 10 * time.Millisecond
	p.Tiers = overload.TierConfig{Enabled: true, Readmit: time.Second}
	return p
}

// FigO2 is the criticality figure: a flash crowd to 2.4× capacity with
// requests split evenly across the three tiers, under a 500 ms deadline.
// Without admission control the server queues absorb the crowd until
// waiting time alone exceeds the deadline, and every tier — critical
// included — collapses together. With the tier gate, overload clamps
// sheddable first and default second (each clamp one queue interval apart),
// re-admitting a tier only after a second of sustained health, so the
// flash is absorbed almost entirely by the sheddable tier and the
// critical tier rides through the crowd inside its SLO.
func FigO2(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	opts.Concurrency = 10
	opts.QueueCapacity = 192
	total := opts.Duration
	if total <= 0 {
		total = 10 * time.Minute
		opts.Duration = total
	}
	sc, flashFrom, flashTo := flashCrowdScenario(total)
	flashAbs := opts.WarmUp + flashFrom
	opts.OverloadTierMix = []int{overload.TierCritical, overload.TierDefault, overload.TierSheddable}

	resPolicy := &resilience.Policy{Deadline: 500 * time.Millisecond}
	configs := []struct {
		label  string
		policy *overload.Policy
	}{
		{"no control", &overload.Policy{}},
		{"tiered shedding", figO2OverloadPolicy()},
	}
	opts.Resilience = resPolicy
	var cells []cell
	for _, cfg := range configs {
		o := opts
		o.Overload = cfg.policy
		cells = append(cells, cell{trace: sc, algo: AlgoRoundRobin, opts: o})
	}
	out, err := sweep(opts.Parallel, cells...)
	if err != nil {
		return nil, err
	}

	r := &Result{ID: "figO2", Title: "Flash crowd: criticality-tiered shedding vs undifferentiated collapse", SeriesStep: time.Second}
	for i, cfg := range configs {
		s := out[i]
		label := cfg.label
		r.AddRow(label+" success", s.rec.SuccessRate()*100, "%", NoPaper)
		for tier := 0; tier < overload.NumTiers; tier++ {
			trec := s.tiers[tier]
			if trec == nil {
				continue
			}
			tname := overload.TierName(tier)
			series := trec.SuccessRateSeries()
			from := int(flashAbs / loadgen.BucketWidth)
			if from > len(series) {
				from = len(series)
			}
			viol := chaos.SLOViolation(series[from:], loadgen.BucketWidth, chaosSLOThreshold)
			r.AddRow(label+" "+tname+" success", trec.SuccessRate()*100, "%", NoPaper)
			r.AddRow(label+" "+tname+" SLO violation", viol.Seconds(), "s", NoPaper)
			if cfg.policy.Enabled() {
				r.AddRow(label+" "+tname+" shed", s.shed[tier], "", NoPaper)
			}
			r.AddSeries("success_"+label+"_"+tname, series)
		}
		if cfg.policy.Enabled() {
			r.AddRow(label+" codel drops", s.total(overload.MetricCodelDroppedTotal), "", NoPaper)
			r.AddRow(label+" tier re-admits", s.total(overload.MetricReadmitsTotal), "", NoPaper)
			r.AddRow(label+" max queue delay", msOf(s.maxSojourn), "ms", NoPaper)
			r.AddRow(label+" final limit", float64(s.limit), "", NoPaper)
		}
	}
	r.Note("flash crowd: 250 rps → 1200 rps (2.4x the ~500 rps capacity) from %v to %v after warm-up; tiers cycle critical/default/sheddable; deadline 500ms, no retries", flashFrom, flashTo)
	r.Note("expectation: without control every tier collapses together (queueing alone exceeds the deadline); with the gate, shed counts order sheddable > default > critical ≈ 0 and the critical tier's SLO violation stays near zero through the flash")
	return r, nil
}
