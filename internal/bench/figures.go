package bench

import (
	"fmt"
	"time"

	"l3/internal/core"
	"l3/internal/ewma"
	"l3/internal/loadgen"
	"l3/internal/trace"
)

// msOf converts a duration to milliseconds as float.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceSeriesResult renders per-cluster trace series for the given
// scenarios — shared by Figures 1, 2, 6 and 7a, which plot the (originally
// proprietary) input traces themselves rather than benchmark output.
func traceSeriesResult(id, title string, scenarios []string, seed uint64,
	attach func(r *Result, sc *trace.Scenario)) (*Result, error) {
	r := &Result{ID: id, Title: title, SeriesStep: time.Second}
	for _, name := range scenarios {
		sc, err := trace.Generate(name, seed)
		if err != nil {
			return nil, err
		}
		attach(r, sc)
	}
	return r, nil
}

// Fig1 regenerates Figure 1: per-cluster P50 and P99 latency over the 10
// minutes of scenario-1 (a) and scenario-2 (b).
func Fig1(seed uint64) (*Result, error) {
	return traceSeriesResult("fig1", "Latency variation of scenario-1 and scenario-2",
		[]string{trace.Scenario1, trace.Scenario2}, seed,
		func(r *Result, sc *trace.Scenario) {
			for _, ct := range sc.Clusters {
				r.AddSeries(fmt.Sprintf("%s/%s/p50_ms", sc.Name, ct.Cluster), ct.Median.Scale(1000).Values)
				r.AddSeries(fmt.Sprintf("%s/%s/p99_ms", sc.Name, ct.Cluster), ct.P99.Scale(1000).Values)
			}
			r.Note("%s: median band [%.0f, %.0f] ms, P99 band [%.0f, %.0f] ms",
				sc.Name,
				sc.Clusters[0].Median.Min()*1000, worstOverClusters(sc, func(ct *trace.ClusterTrace) float64 { return ct.Median.Max() })*1000,
				sc.Clusters[0].P99.Min()*1000, worstOverClusters(sc, func(ct *trace.ClusterTrace) float64 { return ct.P99.Max() })*1000)
		})
}

// Fig2 regenerates Figure 2: the RPS series of scenario-1 and scenario-2.
func Fig2(seed uint64) (*Result, error) {
	return traceSeriesResult("fig2", "RPS variation of scenario-1 and scenario-2",
		[]string{trace.Scenario1, trace.Scenario2}, seed,
		func(r *Result, sc *trace.Scenario) {
			r.AddSeries(sc.Name+"/rps", sc.RPS.Values)
			r.Note("%s: RPS range [%.0f, %.0f]", sc.Name, sc.RPS.Min(), sc.RPS.Max())
		})
}

// Fig4 regenerates Figure 4: the rate-control output weight as a function
// of relative change c ∈ [−1, 3], for (a) wb=2000 > wµ=1000 and (b)
// wb=500 < wµ=1000. Negative c uses the decrease branch ("RPS decrease"
// curve), non-negative c the increase branch.
func Fig4() *Result {
	r := &Result{ID: "fig4", Title: "Rate control weight adjustment vs relative change",
		SeriesStep: time.Second}
	const step = 0.05
	var cs, above, below []float64
	for c := -1.0; c <= 3.0+1e-9; c += step {
		cs = append(cs, c)
		above = append(above, core.RateControlAdjust(c, 2000, 1000))
		below = append(below, core.RateControlAdjust(c, 500, 1000))
	}
	r.AddSeries("c", cs)
	r.AddSeries("wb2000_wmu1000", above)
	r.AddSeries("wb500_wmu1000", below)
	r.AddRow("w(c=-1) for wb=2000,wµ=1000", core.RateControlAdjust(-1, 2000, 1000), "", 2875)
	r.AddRow("w(c=3) for wb=2000,wµ=1000", core.RateControlAdjust(3, 2000, 1000), "", NoPaper)
	r.Note("the paper's in-text example (halved RPS → weight >2800) matches the published formula at c=-1")
	return r
}

// Fig6 regenerates Figure 6: per-cluster P99 latency of scenario-3, -4
// and -5.
func Fig6(seed uint64) (*Result, error) {
	return traceSeriesResult("fig6", "99th percentile latency of scenario-3/4/5",
		[]string{trace.Scenario3, trace.Scenario4, trace.Scenario5}, seed,
		func(r *Result, sc *trace.Scenario) {
			for _, ct := range sc.Clusters {
				r.AddSeries(fmt.Sprintf("%s/%s/p99_ms", sc.Name, ct.Cluster), ct.P99.Scale(1000).Values)
			}
			r.Note("%s: worst P99 %.0f ms", sc.Name,
				worstOverClusters(sc, func(ct *trace.ClusterTrace) float64 { return ct.P99.Max() })*1000)
		})
}

// Fig7 regenerates Figure 7: (a) the simulated success rate of failure-2
// and (b) the penalty-factor sweep — success rate and P50/P90/P99 latency
// decrease vs round-robin for P from 100 ms to 1.5 s. Each configuration
// runs opts.Reps times (the paper ran each twice).
func Fig7(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	r := &Result{ID: "fig7", Title: "Penalty factor impact on failure-2", SeriesStep: time.Second}

	sc, err := trace.Generate(trace.Failure2, opts.Seed)
	if err != nil {
		return nil, err
	}
	for _, ct := range sc.Clusters {
		r.AddSeries("failure-2/"+ct.Cluster+"/success", ct.Success.Values)
	}

	penalties := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond,
		400 * time.Millisecond, 500 * time.Millisecond, 600 * time.Millisecond,
		700 * time.Millisecond, 800 * time.Millisecond, 900 * time.Millisecond,
		1000 * time.Millisecond, 1500 * time.Millisecond,
	}
	// Cell 0 is the round-robin baseline; cells 1..n sweep the penalty.
	baseline := cell{scenario: trace.Failure2, algo: AlgoRoundRobin, opts: opts}
	out, err := sweep(opts.Parallel, append([]cell{baseline}, penaltyCells(trace.Failure2, opts, penalties)...)...)
	if err != nil {
		return nil, err
	}
	rr := out[0].rec
	var ps, succ, d50, d90, d99 []float64
	for i, p := range penalties {
		rec := out[i+1].rec
		dec := func(q float64) float64 {
			base := rr.Quantile(q).Seconds()
			if base <= 0 {
				return 0
			}
			return (base - rec.Quantile(q).Seconds()) / base * 100
		}
		ps = append(ps, p.Seconds())
		succ = append(succ, rec.SuccessRate()*100)
		d50 = append(d50, dec(0.50))
		d90 = append(d90, dec(0.90))
		d99 = append(d99, dec(0.99))
	}
	r.AddSeries("penalty_s", ps)
	r.AddSeries("success_rate_pct", succ)
	r.AddSeries("p50_decrease_pct", d50)
	r.AddSeries("p90_decrease_pct", d90)
	r.AddSeries("p99_decrease_pct", d99)
	r.AddRow("Round-robin success rate", rr.SuccessRate()*100, "%", 98.59)
	r.AddRow("L3 success rate at P=0.1s", succ[0], "%", NoPaper)
	r.AddRow("L3 success rate at P=1.5s", succ[len(succ)-1], "%", NoPaper)
	r.Note("paper: success rate rises with P toward a ~99.0%% ceiling while the latency decrease diminishes")
	return r, nil
}

// penaltyCells is a penalty sweep on one scenario: L3 at each penalty.
func penaltyCells(scenario string, opts Options, penalties []time.Duration) []cell {
	var cells []cell
	for _, p := range penalties {
		o := opts
		o.Penalty = p
		cells = append(cells, cell{scenario: scenario, algo: AlgoL3, opts: o})
	}
	return cells
}

// Fig8 regenerates Figure 8: P99 latency on scenario-4 under round-robin,
// L3 with PeakEWMA and L3 with EWMA (paper: 805.7 / 590.4 / 577.1 ms; each
// configuration ran three times).
func Fig8(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	r := &Result{ID: "fig8", Title: "EWMA vs PeakEWMA on scenario-4 (P99)"}

	configs := []struct {
		algo   Algorithm
		filter ewma.Kind
		label  string
		paper  float64
	}{
		{AlgoRoundRobin, 0, "Round-robin", 805.7},
		{AlgoL3, ewma.KindPeak, "L3 (PeakEWMA)", 590.4},
		{AlgoL3, ewma.KindEWMA, "L3 (EWMA)", 577.1},
	}
	var cells []cell
	for _, cfg := range configs {
		o := opts
		if cfg.filter != 0 {
			o.FilterKind = cfg.filter
		}
		cells = append(cells, cell{scenario: trace.Scenario4, algo: cfg.algo, opts: o})
	}
	out, err := sweep(opts.Parallel, cells...)
	if err != nil {
		return nil, err
	}
	for i, cfg := range configs {
		r.AddRow(cfg.label, msOf(out[i].rec.Quantile(0.99)), "ms", cfg.paper)
	}
	r.Note("paper: both variants beat round-robin; EWMA edges PeakEWMA by ~2.3%%")
	return r, nil
}

// paperFig9 holds Figure 9's reported P99 values (ms).
var paperFig9 = map[Algorithm]float64{AlgoRoundRobin: 93.0, AlgoC3: 88.3, AlgoL3: 68.8}

// Fig9WithDuration regenerates Figure 9 over the given measured duration:
// the DeathStarBench hotel-reservation P99 under round-robin, C3 and L3 at
// 200 RPS with 100 % success (paper: 93.0 / 88.3 / 68.8 ms over 20-minute
// runs).
func Fig9WithDuration(opts Options, duration time.Duration) (*Result, error) {
	const rps float64 = 200
	opts = opts.withDefaults()
	r := &Result{ID: "fig9", Title: "DeathStarBench hotel-reservation (P99)"}
	algos := []Algorithm{AlgoRoundRobin, AlgoC3, AlgoL3}
	var cells []cell
	for _, algo := range algos {
		cells = append(cells, cell{dsb: &dsbLoad{rps: rps, duration: duration}, algo: algo, opts: opts})
	}
	out, err := sweep(opts.Parallel, cells...)
	if err != nil {
		return nil, err
	}
	for i, algo := range algos {
		r.AddRow(algo.String(), msOf(out[i].rec.Quantile(0.99)), "ms", paperFig9[algo])
		if sr := out[i].rec.SuccessRate(); sr < 0.999 {
			r.Note("%s success rate %.3f (expected ~1.0)", algo, sr)
		}
	}
	r.Note("paper ran 20 min at 200 RPS; this run: %v at %.0f RPS", duration, rps)
	return r, nil
}

// paperFig10 holds Figure 10's reported P99 values (ms) per scenario.
var paperFig10 = map[string]map[Algorithm]float64{
	trace.Scenario1: {AlgoRoundRobin: 459.4, AlgoC3: 391.2, AlgoL3: 359.6},
	trace.Scenario2: {AlgoRoundRobin: 115.4, AlgoC3: 82.4, AlgoL3: 74.7},
	trace.Scenario3: {AlgoRoundRobin: 513.3, AlgoC3: 464.9, AlgoL3: 415.0},
	trace.Scenario4: {AlgoRoundRobin: 563.7, AlgoC3: 538.0, AlgoL3: 512.7},
	trace.Scenario5: {AlgoRoundRobin: 116.4, AlgoC3: 109.2, AlgoL3: 105.7},
}

// gridAlgos is the algorithm roster of Figures 10–12.
var gridAlgos = []Algorithm{AlgoRoundRobin, AlgoC3, AlgoL3}

// gridRows sweeps every scenario under every gridAlgos algorithm and adds
// one row per cell, scenario-major, valued by value against the paper's
// figure.
func gridRows(r *Result, opts Options, scenarios []string, paper map[string]map[Algorithm]float64,
	unit string, value func(*loadgen.Recorder) float64) error {
	var cells []cell
	for _, sc := range scenarios {
		cells = append(cells, algoCells(sc, opts, gridAlgos)...)
	}
	out, err := sweep(opts.Parallel, cells...)
	if err != nil {
		return err
	}
	for i, c := range cells {
		r.AddRow(fmt.Sprintf("%s %s", c.scenario, c.algo), value(out[i].rec), unit, paper[c.scenario][c.algo])
	}
	return nil
}

// p99ms reads a recorder's P99 in milliseconds.
func p99ms(rec *loadgen.Recorder) float64 { return msOf(rec.Quantile(0.99)) }

// Fig10 regenerates Figure 10: P99 latency of round-robin, C3 and L3 on
// scenario-1 through scenario-5 (three repetitions each in the paper).
func Fig10(opts Options) (*Result, error) {
	r := &Result{ID: "fig10", Title: "P99 latency per scenario (RR / C3 / L3)"}
	scenarios := []string{trace.Scenario1, trace.Scenario2, trace.Scenario3, trace.Scenario4, trace.Scenario5}
	if err := gridRows(r, opts, scenarios, paperFig10, "ms", p99ms); err != nil {
		return nil, err
	}
	r.Note("paper: L3 < C3 < round-robin on every scenario")
	return r, nil
}

// paperFig11 and paperFig12 hold Figures 11-12's reported values.
var (
	paperFig11 = map[string]map[Algorithm]float64{
		trace.Failure1: {AlgoRoundRobin: 447.5, AlgoC3: 364.2, AlgoL3: 364.9},
		trace.Failure2: {AlgoRoundRobin: 117.2, AlgoC3: 84.6, AlgoL3: 76.2},
	}
	paperFig12 = map[string]map[Algorithm]float64{
		trace.Failure1: {AlgoRoundRobin: 91.4, AlgoC3: 91.1, AlgoL3: 92.4},
		trace.Failure2: {AlgoRoundRobin: 98.6, AlgoC3: 98.5, AlgoL3: 98.6},
	}
)

// failureScenarios feed both Figure 11 (P99) and Figure 12 (success rate).
var failureScenarios = []string{trace.Failure1, trace.Failure2}

// Fig11 regenerates Figure 11: P99 latency on failure-1 and failure-2.
func Fig11(opts Options) (*Result, error) {
	r := &Result{ID: "fig11", Title: "P99 latency under failure injection"}
	if err := gridRows(r, opts, failureScenarios, paperFig11, "ms", p99ms); err != nil {
		return nil, err
	}
	return r, nil
}

// Fig12 regenerates Figure 12: success rate on failure-1 and failure-2.
func Fig12(opts Options) (*Result, error) {
	r := &Result{ID: "fig12", Title: "Success rate under failure injection"}
	if err := gridRows(r, opts, failureScenarios, paperFig12, "%", func(rec *loadgen.Recorder) float64 {
		return rec.SuccessRate() * 100
	}); err != nil {
		return nil, err
	}
	r.Note("paper: L3 lifts failure-1 success above round-robin; C3 trails both (no success-rate term)")
	return r, nil
}

func worstOverClusters(sc *trace.Scenario, f func(*trace.ClusterTrace) float64) float64 {
	worst := 0.0
	for i := range sc.Clusters {
		if v := f(&sc.Clusters[i]); v > worst {
			worst = v
		}
	}
	return worst
}
