package bench

import (
	"time"

	"l3/internal/chaos"
	"l3/internal/loadgen"
	"l3/internal/overload"
	"l3/internal/trace"
)

// cell is one configuration of a sweep: a workload under an algorithm and
// options. The workload is a named trace scenario, regenerated from each
// repetition's seed; a caller-built trace, rerun under every seed; or, when
// dsb is set, the hotel-reservation application.
type cell struct {
	scenario string
	trace    *trace.Scenario
	dsb      *dsbLoad
	algo     Algorithm
	opts     Options
}

// dsbLoad is Figure 9's workload: load entering the hotel-reservation
// frontend at a constant rate for a measured duration.
type dsbLoad struct {
	rps      float64
	duration time.Duration
}

// record is what a sweep yields for one cell, its repetitions folded in
// index order.
type record struct {
	// rec merges the repetitions' recorders; tiers holds one merged
	// recorder per criticality tier when Options.OverloadTierMix is set.
	rec   *loadgen.Recorder
	tiers [overload.NumTiers]*loadgen.Recorder
	// reps keeps each repetition's own recorder and artifacts, in index
	// order, for recovery scoring and cost accounting.
	reps []repRun
	// report is the recovery scorecard averaged over reps, when a chaos
	// schedule ran.
	report chaos.Report
	// totals sums every counter family of the run's scrape set by name
	// (DSB runs take no snapshot and leave it empty); shed keeps
	// overload_shed_total by tier.
	totals map[string]float64
	shed   [overload.NumTiers]float64
	// limit and admitMax are the first repetition's end-of-run limiter
	// value and highest admitted tier (reps are deterministic, so rep 0 is
	// representative); maxSojourn is the longest admission-queue wait of any
	// repetition.
	limit, admitMax int
	maxSojourn      time.Duration
}

// repRun is what one repetition leaves beside its counters: its recorder,
// the per-(src, dst-cluster) request counts read from the data-plane
// metrics, the TrafficSplit write times and weight snapshots (chaos runs
// only) and the measured duration it actually ran for.
type repRun struct {
	rec      *loadgen.Recorder
	counts   map[[2]string]float64
	updates  []time.Duration
	snaps    []chaos.WeightSnapshot
	duration time.Duration
}

// total reads one counter family's sum across the cell's repetitions.
func (r *record) total(name string) float64 { return r.totals[name] }

// sweep runs every repetition of every cell in one fan-out across parallel
// workers. Repetition r of a cell runs on DeriveSeed(Seed, r) of the cell's
// options and owns its engine, and each cell's repetitions fold in index
// order, so the records are identical for any parallel.
func sweep(parallel int, cells ...cell) ([]*record, error) {
	type job struct{ cell, rep int }
	var jobs []job
	cells = append([]cell(nil), cells...) // defaults go on the sweep's own copy
	runs := make([][]*record, len(cells))
	for i := range cells {
		cells[i].opts = cells[i].opts.withDefaults()
		runs[i] = make([]*record, cells[i].opts.Reps)
		for rep := range runs[i] {
			jobs = append(jobs, job{i, rep})
		}
	}
	err := ForEach(parallel, len(jobs), func(j int) error {
		c, rep := &cells[jobs[j].cell], jobs[j].rep
		out, err := c.run(DeriveSeed(c.opts.Seed, rep))
		runs[jobs[j].cell][rep] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]*record, len(cells))
	for i, c := range cells {
		out[i] = fold(runs[i], c.opts)
	}
	return out, nil
}

// run executes one repetition of the cell on seed.
func (c *cell) run(seed uint64) (*record, error) {
	if c.dsb != nil {
		return runDSBOnce(c.algo, *c.dsb, c.opts, seed)
	}
	sc := c.trace
	if sc == nil {
		var err error
		if sc, err = trace.Generate(c.scenario, seed); err != nil {
			return nil, err
		}
	}
	return runTrace(sc, c.algo, c.opts, seed)
}

// algoCells is one named scenario under each algorithm, in order, with
// shared options.
func algoCells(scenario string, opts Options, algos []Algorithm) []cell {
	cells := make([]cell, len(algos))
	for i, algo := range algos {
		cells[i] = cell{scenario: scenario, algo: algo, opts: opts}
	}
	return cells
}

// recorderOf sweeps one cell and returns its merged recorder.
func recorderOf(c cell) (*loadgen.Recorder, error) {
	out, err := sweep(c.opts.Parallel, c)
	if err != nil {
		return nil, err
	}
	return out[0].rec, nil
}

// fold merges one cell's repetitions, in index order, into its record and
// scores them when a chaos schedule ran. A lone repetition is its own
// record.
func fold(runs []*record, opts Options) *record {
	out := runs[0]
	if len(runs) > 1 {
		out = &record{totals: make(map[string]float64), limit: runs[0].limit, admitMax: runs[0].admitMax}
		var recs []*loadgen.Recorder
		for _, r := range runs {
			recs = append(recs, r.rec)
			out.reps = append(out.reps, r.reps...)
			for name, v := range r.totals {
				out.totals[name] += v
			}
			for tier := range out.shed {
				out.shed[tier] += r.shed[tier]
			}
			out.maxSojourn = max(out.maxSojourn, r.maxSojourn)
		}
		out.rec = mergeRecorders(recs)
		for tier := range out.tiers {
			if runs[0].tiers[tier] == nil {
				continue
			}
			for i, r := range runs {
				recs[i] = r.tiers[tier]
			}
			out.tiers[tier] = mergeRecorders(recs)
		}
	}
	if opts.Chaos != nil {
		out.report = scoreRuns(out.reps, opts)
	}
	return out
}
