package bench

import (
	"time"

	"l3/internal/chaos"
	"l3/internal/guard"
	"l3/internal/trace"
)

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

// guardRows names the guard layer's counter families as the G figures
// report them.
var guardRows = []struct{ label, metric string }{
	{"samples rejected", guard.MetricRejectedTotal},
	{"resets spliced", guard.MetricResetsTotal},
	{"weight holds", guard.MetricHoldsTotal},
	{"blind decays", guard.MetricDecaysTotal},
	{"quorum-frozen rounds", guard.MetricFrozenTotal},
	{"writes suppressed", guard.MetricWriteSuppressedTotal},
	{"writes clamped", guard.MetricWriteClampedTotal},
	{"writes rejected", guard.MetricWriteRejectedTotal},
	{"watchdog degrades", guard.MetricWatchdogDegradesTotal},
}

// addGuardRows reports the guard layer's own accounting for one
// configuration (all-zero rows are skipped: the unguarded runs have none).
func addGuardRows(r *Result, label string, out *record) {
	for _, row := range guardRows {
		if v := out.total(row.metric); v > 0 {
			r.AddRow(label+" "+row.label, v, "", NoPaper)
		}
	}
}

// guardCells is one named scenario under L3 with the control plane guarded
// and unguarded, in guardConfigs order.
func guardCells(scenario string, opts Options) []cell {
	cells := make([]cell, len(guardConfigs))
	for i, cfg := range guardConfigs {
		o := opts
		o.Guard = cfg.guard
		cells[i] = cell{scenario: scenario, algo: AlgoL3, opts: o}
	}
	return cells
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

	out, err := sweep(opts.Parallel, guardCells(trace.Scenario1, opts)...)
	if err != nil {
		return nil, err
	}

	r := &Result{ID: "figG1", Title: "Metric hygiene under garbage + saturate (guarded vs unguarded L3)", SeriesStep: time.Second}
	for i, cfg := range guardConfigs {
		s := out[i]
		label := cfg.label
		r.AddRow(label+" success", s.rec.SuccessRate()*100, "%", NoPaper)
		r.AddRow(label+" trough", s.report.Trough*100, "%", NoPaper)
		r.AddRow(label+" SLO violation", s.report.SLOViolation.Seconds(), "s", NoPaper)
		// Time-to-recover is anchored at the schedule's first event, which
		// here is the benign counter reset both planes shrug off — the
		// fault-relative clock reads ~0 for both, so total SLO violation is
		// the comparable number.
		if !s.report.Recovered {
			r.Note("%s never recovered above %.0f%% success", label, chaosSLOThreshold*100)
		}
		if s.report.ReconvergeOK {
			r.AddRow(label+" weight reconverge", s.report.Reconverge.Seconds(), "s", NoPaper)
		} else {
			r.Note("%s weights never reconverged after the heal", label)
		}
		addGuardRows(r, label, s)
		r.AddSeries("success_"+label, s.rec.SuccessRateSeries())
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

	out, err := sweep(opts.Parallel, guardCells(trace.Scenario5, opts)...)
	if err != nil {
		return nil, err
	}

	r := &Result{ID: "figG2", Title: "Partial visibility: quorum freeze vs survivor amplification", SeriesStep: time.Second}
	for i, cfg := range guardConfigs {
		s := out[i]
		label := cfg.label
		r.AddRow(label+" success", s.rec.SuccessRate()*100, "%", NoPaper)
		addRecovery(r, label, s.report, false)
		// Survivor amplification is a weight-trajectory property, read off
		// the first repetition's snapshots.
		r.AddRow(label+" survivor peak share", peakShare(s.reps[0].snaps, survivor)*100, "%", NoPaper)
		addGuardRows(r, label, s)
		r.AddSeries("success_"+label, s.rec.SuccessRateSeries())
	}
	r.Note("chaos schedule: %s (shifted by %v warm-up)", sched, opts.WarmUp)
	r.Note("testbed: scenario-5 (symmetric clusters), concurrency 6/backend, queue 192 — one backend carries ~100 rps of ~185 offered, so amplifying the survivor overloads it while a balanced third has headroom")
	r.Note("expectation: unguarded drifts the split onto cluster-3 (relax-toward-defaults on the blinded pair), overloads it, then oscillates as the survivor's visible pain pushes traffic back; guarded fails the 50%% visibility quorum and freezes the balanced split, riding out the window clean")
	return r, nil
}
