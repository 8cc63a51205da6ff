package bench

import (
	"time"

	"l3/internal/chaos"
	"l3/internal/trace"
)

// runChaosWithGuard is RunChaosScenario keeping the guard-layer counters and
// the first repetition's weight snapshots, which the G figures report
// (survivor amplification is a weight-trajectory property, not a latency
// one).
func runChaosWithGuard(scenarioName string, algo Algorithm, opts Options) (*ChaosStats, guardCounters, []chaos.WeightSnapshot, error) {
	opts = opts.withDefaults()
	runs, rec, err := runReps(named(scenarioName), algo, opts)
	if err != nil {
		return nil, guardCounters{}, nil, err
	}
	var g guardCounters
	for _, run := range runs {
		a := run.art.grd
		g.rejected += a.rejected
		g.resets += a.resets
		g.holds += a.holds
		g.decays += a.decays
		g.frozen += a.frozen
		g.writeSuppressed += a.writeSuppressed
		g.writeClamped += a.writeClamped
		g.writeRejected += a.writeRejected
		g.watchdogDegrades += a.watchdogDegrades
	}
	return chaosStats(runs, rec, opts), g, runs[0].art.snaps, nil
}

// peakShare is the largest traffic share one backend reached across a run's
// TrafficSplit snapshots — the survivor-amplification metric of FigG2.
func peakShare(snaps []chaos.WeightSnapshot, backend string) float64 {
	best := 0.0
	for _, s := range snaps {
		var total, w int64
		for b, v := range s.Weights {
			total += v
			if b == backend {
				w = v
			}
		}
		if total > 0 {
			if share := float64(w) / float64(total); share > best {
				best = share
			}
		}
	}
	return best
}

// addGuardRows reports the guard layer's own accounting for one
// configuration (all-zero rows are skipped: the unguarded runs have none).
func addGuardRows(r *Result, label string, g guardCounters) {
	add := func(name string, v float64) {
		if v > 0 {
			r.AddRow(label+" "+name, v, "", NoPaper)
		}
	}
	add("samples rejected", g.rejected)
	add("resets spliced", g.resets)
	add("weight holds", g.holds)
	add("blind decays", g.decays)
	add("quorum-frozen rounds", g.frozen)
	add("writes suppressed", g.writeSuppressed)
	add("writes clamped", g.writeClamped)
	add("writes rejected", g.writeRejected)
	add("watchdog degrades", g.watchdogDegrades)
}

// guardConfigs is the two-column comparison every G figure runs: the same
// schedule under hardened and unhardened control planes.
var guardConfigs = []struct {
	label string
	guard bool
}{
	{"guarded", true},
	{"unguarded", false},
}

// FigG1 is the metric-garbage figure: a counter reset and a scrape blackout
// exercise the hygiene layer in isolation, then a saturate fault on
// cluster-2 arrives with NaN-corrupted scrapes landing right after it — the
// moment the control plane most needs its metrics is the moment they turn to
// garbage. The unguarded pipeline ingests NaN into its EWMAs, which never
// recover (NaN absorbs every later observation), so its weights freeze
// mid-steer and it cannot route around the saturated backend until the fault
// itself heals. The guarded pipeline rejects the garbage at ingestion, holds
// last-good weights through the blackout, and resumes steering the moment
// clean samples return — while the saturate fault is still active.
func FigG1(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	// R3's headroom testbed: ejecting one of three backends is safe, so the
	// figure isolates how fast each control plane steers, not redistribution
	// overload.
	opts.Concurrency = 14
	opts.QueueCapacity = 192
	total := opts.Duration
	if total <= 0 {
		total = 10 * time.Minute
	}
	sched := &chaos.Schedule{Events: []chaos.Event{
		// Benign hygiene traffic first: a pod restart and a short scrape
		// blackout, both of which the guarded plane should shrug off.
		{Kind: chaos.CounterReset, At: total / 5, Backend: apiService + "-cluster-1"},
		{Kind: chaos.ScrapeDrop, At: total / 4, Duration: total / 20},
		// The compound fault: cluster-2 loses 95% of its workers, and 5 s
		// later every scraped value reads NaN for a quarter of the run.
		{Kind: chaos.Saturate, At: total * 2 / 5, Duration: total / 2,
			Backend: apiService + "-cluster-2", Factor: 0.05},
		{Kind: chaos.Garbage, At: total*2/5 + 5*time.Second, Duration: total / 4, Mode: "nan"},
	}}
	opts.Chaos = sched

	stats := make([]*ChaosStats, len(guardConfigs))
	counters := make([]guardCounters, len(guardConfigs))
	err := ForEach(opts.Parallel, len(guardConfigs), func(i int) error {
		cfgOpts := opts
		cfgOpts.Guard = guardConfigs[i].guard
		s, g, _, err := runChaosWithGuard(trace.Scenario1, AlgoL3, cfgOpts)
		stats[i], counters[i] = s, g
		return err
	})
	if err != nil {
		return nil, err
	}

	r := &Result{ID: "figG1", Title: "Metric hygiene under garbage + saturate (guarded vs unguarded L3)", SeriesStep: time.Second}
	for i, cfg := range guardConfigs {
		s := stats[i]
		label := cfg.label
		r.AddRow(label+" success", s.Recorder.SuccessRate()*100, "%", NoPaper)
		r.AddRow(label+" trough", s.Report.Trough*100, "%", NoPaper)
		r.AddRow(label+" SLO violation", s.Report.SLOViolation.Seconds(), "s", NoPaper)
		// Time-to-recover is anchored at the schedule's first event, which
		// here is the benign counter reset both planes shrug off — the
		// fault-relative clock reads ~0 for both, so total SLO violation is
		// the comparable number.
		if !s.Report.Recovered {
			r.Note("%s never recovered above %.0f%% success", label, chaosSLOThreshold*100)
		}
		if s.Report.ReconvergeOK {
			r.AddRow(label+" weight reconverge", s.Report.Reconverge.Seconds(), "s", NoPaper)
		} else {
			r.Note("%s weights never reconverged after the heal", label)
		}
		addGuardRows(r, label, counters[i])
		r.AddSeries("success_"+label, s.Recorder.SuccessRateSeries())
	}
	r.Note("chaos schedule: %s (shifted by %v warm-up)", sched, opts.WarmUp)
	r.Note("expectation: unguarded EWMAs go NaN on the first corrupt scrape and freeze mid-steer until the saturate heals; guarded rejects the garbage, holds through the blackout, and re-steers as soon as clean samples return")
	return r, nil
}

// FigG2 is the partial-visibility figure: two of three backends scrape
// negative counter values (a broken exporter, not broken capacity — the
// backends themselves are healthy) for a fifth of the run. The unguarded
// pipeline reads negative rates as "no traffic", relaxes those backends'
// filters toward their defaults, and drifts the split onto the one backend
// it can still see — amplifying the survivor far past its capacity on a
// testbed where one backend carries barely half the offered load. The
// guarded pipeline classifies the two backends blind, fails the visibility
// quorum (1 of 3 fresh < 50%), and freezes the split: reweighting from a
// sliver of the fleet is worse than not reweighting at all.
//
// The testbed is scenario-5, the calm symmetric one (cluster medians within
// a few ms): the pre-fault split sits near-uniform, so what the figure
// compares is purely freeze-the-good-split vs drift-onto-the-survivor, not
// whichever skew the scenario's dynamics happened to leave behind at fault
// onset.
func FigG2(opts Options) (*Result, error) {
	opts = resilienceLoadOptions(opts.withDefaults())
	// Tighter than the shared resilience testbed: scenario-5's ~185 rps fit
	// on one 10-worker backend, so amplification alone would not overload
	// the survivor. Six workers put single-backend capacity (~100 rps) well
	// under the offered load while a balanced third (~62 rps) keeps headroom.
	opts.Concurrency = 6
	total := opts.Duration
	if total <= 0 {
		total = 10 * time.Minute
	}
	at, dur := chaosWindow(opts)
	// Twice the usual fault window: relax-toward-defaults drifts the
	// unguarded split slowly (a few percent per 5 s round), and the figure
	// needs the drift to fully land on the survivor before the heal.
	dur *= 2
	sched := &chaos.Schedule{Events: []chaos.Event{
		{Kind: chaos.Garbage, At: at, Duration: dur, Mode: "negative", Backend: apiService + "-cluster-1"},
		{Kind: chaos.Garbage, At: at, Duration: dur, Mode: "negative", Backend: apiService + "-cluster-2"},
	}}
	opts.Chaos = sched
	survivor := apiService + "-cluster-3"

	stats := make([]*ChaosStats, len(guardConfigs))
	counters := make([]guardCounters, len(guardConfigs))
	snaps := make([][]chaos.WeightSnapshot, len(guardConfigs))
	err := ForEach(opts.Parallel, len(guardConfigs), func(i int) error {
		cfgOpts := opts
		cfgOpts.Guard = guardConfigs[i].guard
		s, g, sn, err := runChaosWithGuard(trace.Scenario5, AlgoL3, cfgOpts)
		stats[i], counters[i], snaps[i] = s, g, sn
		return err
	})
	if err != nil {
		return nil, err
	}

	r := &Result{ID: "figG2", Title: "Partial visibility: quorum freeze vs survivor amplification", SeriesStep: time.Second}
	for i, cfg := range guardConfigs {
		s := stats[i]
		label := cfg.label
		r.AddRow(label+" success", s.Recorder.SuccessRate()*100, "%", NoPaper)
		r.AddRow(label+" trough", s.Report.Trough*100, "%", NoPaper)
		r.AddRow(label+" SLO violation", s.Report.SLOViolation.Seconds(), "s", NoPaper)
		if s.Report.Recovered {
			r.AddRow(label+" time-to-recover", s.Report.TimeToRecover.Seconds(), "s", NoPaper)
		} else {
			r.Note("%s never recovered above %.0f%% success", label, chaosSLOThreshold*100)
		}
		r.AddRow(label+" survivor peak share", peakShare(snaps[i], survivor)*100, "%", NoPaper)
		addGuardRows(r, label, counters[i])
		r.AddSeries("success_"+label, s.Recorder.SuccessRateSeries())
	}
	r.Note("chaos schedule: %s (shifted by %v warm-up)", sched, opts.WarmUp)
	r.Note("testbed: scenario-5 (symmetric clusters), concurrency 6/backend, queue 192 — one backend carries ~100 rps of ~185 offered, so amplifying the survivor overloads it while a balanced third has headroom")
	r.Note("expectation: unguarded drifts the split onto cluster-3 (relax-toward-defaults on the blinded pair), overloads it, then oscillates as the survivor's visible pain pushes traffic back; guarded fails the 50%% visibility quorum and freezes the balanced split, riding out the window clean")
	return r, nil
}
