package bench

import (
	"fmt"
	"time"

	"l3/internal/chaos"
	"l3/internal/health"
	"l3/internal/loadgen"
	"l3/internal/trace"
)

// Recovery scoring parameters shared by the chaos figures: the SLO is the
// per-second success rate staying at or above 95%, recovery must hold for
// five consecutive seconds to filter single-bucket blips, and TrafficSplit
// weights count as reconverged within 5% normalized L1 distance of their
// final steady state.
const (
	chaosSLOThreshold   = 0.95
	chaosSustainBuckets = 5
	chaosReconvergeTol  = 0.05
)

// scoreRuns scores every repetition against opts.Chaos and averages the
// reports in index order.
func scoreRuns(runs []repRun, opts Options) chaos.Report {
	reports := make([]chaos.Report, len(runs))
	for rep, run := range runs {
		reports[rep] = scoreRun(run, opts.WarmUp, opts.Chaos)
	}
	return mergeReports(reports)
}

// scoreRun turns one repetition's recorder and artifacts into a recovery
// report. Recorder buckets are indexed by absolute request-start time
// (warm-up included), so schedule times shift by warm here exactly as the
// injector shifted them.
func scoreRun(run repRun, warm time.Duration, sched *chaos.Schedule) chaos.Report {
	var r chaos.Report
	width := loadgen.BucketWidth
	series := run.rec.SuccessRateSeries()
	faultAbs := warm + sched.Start()

	r.TimeToRecover, r.Recovered = chaos.TimeToRecover(series, width, faultAbs, chaosSLOThreshold, chaosSustainBuckets)
	from := int(faultAbs / width)
	if from > len(series) {
		from = len(series)
	}
	r.SLOViolation = chaos.SLOViolation(series[from:], width, chaosSLOThreshold)
	r.Trough = chaos.Trough(series, width, faultAbs)

	if end, ok := sched.End(); ok {
		r.Reconverge, r.ReconvergeOK = chaos.ReconvergeTime(run.snaps, warm+end, chaosReconvergeTol)
	}
	for _, ev := range sched.Events {
		if ev.Kind == chaos.LeaderKill {
			r.FailoverGap = chaos.FailoverGap(run.updates, warm+ev.At, warm+run.duration)
			break
		}
	}
	return r
}

// mergeReports averages per-repetition reports in index order. Boolean
// outcomes AND across reps: a configuration only counts as recovered (or
// reconverged) when every repetition did, and the averaged durations span
// just those reps.
func mergeReports(reports []chaos.Report) chaos.Report {
	if len(reports) == 0 {
		return chaos.Report{}
	}
	out := chaos.Report{Recovered: true, ReconvergeOK: true}
	n := time.Duration(len(reports))
	for _, r := range reports {
		out.Recovered = out.Recovered && r.Recovered
		out.ReconvergeOK = out.ReconvergeOK && r.ReconvergeOK
		out.TimeToRecover += r.TimeToRecover / n
		out.SLOViolation += r.SLOViolation / n
		out.Trough += r.Trough / float64(len(reports))
		out.Reconverge += r.Reconverge / n
		out.FailoverGap += r.FailoverGap / n
	}
	return out
}

// addRecovery writes one configuration's recovery rows. By default they
// are the trough, the SLO violation and the time-to-recover; afterHeal, the
// storm figures' layout, the time-to-recover and then the SLO violation. A
// configuration that never recovered gets a note in place of its
// time-to-recover.
func addRecovery(r *Result, label string, rep chaos.Report, afterHeal bool) {
	if !afterHeal {
		r.AddRow(label+" trough", rep.Trough*100, "%", NoPaper)
		r.AddRow(label+" SLO violation", rep.SLOViolation.Seconds(), "s", NoPaper)
	}
	switch {
	case rep.Recovered:
		r.AddRow(label+" time-to-recover", rep.TimeToRecover.Seconds(), "s", NoPaper)
	case afterHeal:
		r.Note("%s never recovered above %.0f%% success after the heal", label, chaosSLOThreshold*100)
	default:
		r.Note("%s never recovered above %.0f%% success", label, chaosSLOThreshold*100)
	}
	if afterHeal {
		r.AddRow(label+" SLO violation", rep.SLOViolation.Seconds(), "s", NoPaper)
	}
}

// chaosWindow places the standard fault window inside the measured
// duration: injection at 2/5 of the run, healing after another 1/5, so a
// healthy baseline precedes the fault and at least 2/5 of the run observes
// the recovery — at any -quick or -full duration.
func chaosWindow(opts Options) (at, dur time.Duration) {
	total := opts.Duration
	if total <= 0 {
		total = 10 * time.Minute
	}
	return total * 2 / 5, total / 5
}

// FigC1 is the cluster-partition recovery figure: the WAN link between the
// source cluster and cluster-2 blackholes mid-run and heals, under L3, C3,
// plain round-robin and health-check failover. It reports the depth of the
// availability dip, the SLO damage, and how fast each strategy steers away
// from — and back to — the partitioned cluster.
func FigC1(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	at, dur := chaosWindow(opts)
	sched := &chaos.Schedule{Events: []chaos.Event{{
		Kind: chaos.Partition, At: at, Duration: dur,
		From: sourceCluster, To: "cluster-2",
	}}}
	opts.Chaos = sched

	algos := []Algorithm{AlgoL3, AlgoC3, AlgoRoundRobin, AlgoFailover}
	out, err := sweep(opts.Parallel, algoCells(trace.Scenario1, opts, algos)...)
	if err != nil {
		return nil, err
	}

	r := &Result{ID: "figC1", Title: "Partition recovery (WAN blackhole + heal)", SeriesStep: time.Second}
	for i, algo := range algos {
		s := out[i]
		label := algo.String()
		r.AddRow(label+" P99", msOf(s.rec.Quantile(0.99)), "ms", NoPaper)
		r.AddRow(label+" success", s.rec.SuccessRate()*100, "%", NoPaper)
		addRecovery(r, label, s.report, false)
		r.AddSeries("success_"+label, s.rec.SuccessRateSeries())
	}
	if l3 := out[0]; l3.report.ReconvergeOK {
		r.AddRow("L3 weight reconverge", l3.report.Reconverge.Seconds(), "s", NoPaper)
	}
	fo := out[len(out)-1]
	r.AddRow("RR+failover ejections", fo.total(health.MetricEjectionsTotal), "", NoPaper)
	r.AddRow("RR+failover restores", fo.total(health.MetricRestoresTotal), "", NoPaper)
	r.Note("chaos schedule: %s (shifted by %v warm-up)", sched, opts.WarmUp)
	r.Note("expectation: L3 recovers fastest (symptom-driven reweighting); health-check failover waits out probe thresholds; plain round-robin stays degraded until the heal")
	return r, nil
}

// FigC2 is the leader-failover transparency figure: the leader L3
// controller instance is killed mid-run without releasing its lease, the
// standby takes over after the lease TTL, and the figure compares the run
// against an unperturbed leader-elected run. The split keeps its last
// written weights across the gap, so the data plane should barely notice.
func FigC2(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	opts.LeaderElection = true
	at, dur := chaosWindow(opts)
	sched := &chaos.Schedule{Events: []chaos.Event{{
		Kind: chaos.LeaderKill, At: at, Duration: dur,
	}}}

	chaosOpts := opts
	chaosOpts.Chaos = sched
	out, err := sweep(opts.Parallel,
		cell{scenario: trace.Scenario1, algo: AlgoL3, opts: chaosOpts},
		cell{scenario: trace.Scenario1, algo: AlgoL3, opts: opts})
	if err != nil {
		return nil, err
	}
	killed, baseline := out[0], out[1].rec

	r := &Result{ID: "figC2", Title: "Leader-kill failover transparency (lease TTL takeover)", SeriesStep: time.Second}
	r.AddRow("leader-killed P99", msOf(killed.rec.Quantile(0.99)), "ms", NoPaper)
	r.AddRow("baseline P99", msOf(baseline.Quantile(0.99)), "ms", NoPaper)
	r.AddRow("leader-killed success", killed.rec.SuccessRate()*100, "%", NoPaper)
	r.AddRow("baseline success", baseline.SuccessRate()*100, "%", NoPaper)
	r.AddRow("failover gap", killed.report.FailoverGap.Seconds(), "s", NoPaper)
	r.AddSeries("success_killed", killed.rec.SuccessRateSeries())
	r.AddSeries("success_baseline", baseline.SuccessRateSeries())
	r.Note("chaos schedule: %s (shifted by %v warm-up)", sched, opts.WarmUp)
	r.Note("expectation: failover gap ≈ lease TTL (15 s) + one reconcile interval; data-plane latency and success match the baseline — stale weights keep routing while no leader writes")
	return r, nil
}

// FigChaosCustom runs a caller-supplied schedule (the -chaos flag) under
// the standard algorithm set and reports the same recovery scorecard as
// FigC1.
func FigChaosCustom(scenarioName string, sched *chaos.Schedule, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	opts.Chaos = sched
	needsLeaders, needsMetricPlane := false, false
	for _, ev := range sched.Events {
		switch ev.Kind {
		case chaos.LeaderKill:
			needsLeaders = true
		case chaos.Garbage, chaos.CounterReset, chaos.ClockSkew, chaos.SlowScrape:
			needsMetricPlane = true
		}
	}
	algos := []Algorithm{AlgoL3, AlgoC3, AlgoRoundRobin, AlgoFailover}
	if needsMetricPlane {
		// Metric-plane faults corrupt the scrape pipeline, which only the
		// metric-driven algorithms have.
		algos = []Algorithm{AlgoL3, AlgoC3}
	}
	if needsLeaders {
		// Only L3/C3 have controller instances to kill.
		algos = []Algorithm{AlgoL3, AlgoC3}
		opts.LeaderElection = true
	}
	out, err := sweep(opts.Parallel, algoCells(scenarioName, opts, algos)...)
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("Custom chaos schedule on %s", scenarioName)
	if opts.Guard {
		title += " (guarded)"
	}
	r := &Result{ID: "chaos", Title: title, SeriesStep: time.Second}
	for i, algo := range algos {
		s := out[i]
		label := algo.String()
		r.AddRow(label+" P99", msOf(s.rec.Quantile(0.99)), "ms", NoPaper)
		r.AddRow(label+" success", s.rec.SuccessRate()*100, "%", NoPaper)
		addRecovery(r, label, s.report, false)
		if needsLeaders {
			r.AddRow(label+" failover gap", s.report.FailoverGap.Seconds(), "s", NoPaper)
		}
		r.AddSeries("success_"+label, s.rec.SuccessRateSeries())
	}
	r.Note("chaos schedule: %s (shifted by %v warm-up)", sched, opts.WarmUp)
	return r, nil
}
