// Command l3bench regenerates the figures of the paper's evaluation (§5)
// plus this repository's ablation experiments.
//
// Usage:
//
//	l3bench -fig all                 # every figure (the full evaluation)
//	l3bench -fig 9                   # one figure
//	l3bench -fig 10 -reps 3 -seed 7  # repetitions and seeding
//	l3bench -fig 1 -csv              # emit series as CSV for plotting
//	l3bench -fig ablations           # the ablation suite
//	l3bench -fig all -parallel 8     # fan runs out across 8 workers
//	l3bench -fig C1                  # chaos: partition + heal recovery figure
//	l3bench -fig C2                  # chaos: leader-kill transparency figure
//	l3bench -fig R1                  # resilience: naive vs budgeted retry storm
//	l3bench -fig R2                  # resilience: hedging tail-latency sweep
//	l3bench -fig R3                  # resilience: circuit breaking vs probes
//	l3bench -fig G1                  # guard: metric garbage, guarded vs unguarded
//	l3bench -fig G2                  # guard: partial visibility, quorum freeze
//	l3bench -fig S1                  # sharded core: 8-cluster scaling workload
//	l3bench -fig O1                  # overload: adaptive limit + CoDel vs collapse
//	l3bench -fig O2                  # overload: criticality-tiered flash crowd
//	l3bench -fig 10 -shards 4        # scenario figures on the sharded core
//
// A custom fault schedule runs against any scenario, optionally with a
// resilience policy and an admission-control policy on the client
// (grammars in internal/resilience and internal/overload):
//
//	l3bench -chaos 'partition@120s+60s:cluster-1/cluster-2' -scenario scenario-1
//	l3bench -chaos 'saturate@120s+60s:api-cluster-1/0.25' \
//	        -resilience 'deadline=1s,retries=3,budget=0.2,breaker=5'
//	l3bench -chaos 'saturate@120s+60s:api-cluster-1/0.1' \
//	        -overload 'limit=32,min=4,max=64,target=20ms,qcap=128'
//	l3bench -chaos 'garbage@60s+30s:nan' -guard   # hardened control plane
//
// Schedules are semicolon-separated events, each
// kind@start[+duration][:operands] with kinds partition, delay, flap,
// crash, saturate, scrapedrop, leaderkill, counterreset, garbage,
// clockskew and slowscrape; times are relative to the start of the
// measured window. See internal/chaos for the full grammar. -guard turns
// on the internal/guard hardening layer (metric hygiene, staleness-aware
// degraded modes, write gating) for the run.
//
// Figure durations follow the paper (10-minute scenarios); -quick shrinks
// the measured window for a fast sanity pass.
//
// The harness's own performance is measurable in place:
//
//	l3bench -bench                             # fast-path benchmark suite, JSON to stdout
//	l3bench -bench -benchout BENCH.json        # machine-readable results to a file
//	l3bench -bench-shards                      # shard report: classic baseline + scaling sweep
//	l3bench -benchdiff BENCH_fastpath.json     # fresh run vs committed baseline; fails on regression
//	l3bench -fig 10 -cpuprofile cpu.pprof      # profile any run (figures or -bench)
//	l3bench -bench -memprofile mem.pprof
//
// -bench runs the internal/perf suite (mesh.Call end to end, metric and
// histogram recording, registry scrapes, the event heap) through
// testing.Benchmark; profiles are standard pprof files. -bench-shards runs
// the figure S1 workload on the classic engine and then at 1, 2, 4 and 8
// workers, reporting host facts (NumCPU, GOMAXPROCS), the sharded core's
// overhead at one worker against the classic baseline, per-worker-count
// wall-clock/events-per-sec/speedup, and the barrier/mailbox
// micro-benchmarks (wall-clock is host-dependent by nature, so none of it
// appears on figure stdout). -benchdiff re-measures the suite a committed
// BENCH JSON holds and exits nonzero on >15% ns/op or any allocs/op
// regression — `make bench-diff` runs it against the repo's baselines.
//
// Scenario figures run on the sharded deterministic core with -shards N
// (N ≥ 1 caps the worker pool; the decomposition is fixed at one shard per
// cluster, so stdout is byte-identical for every N). The default, 0, is the
// classic single-loop engine — byte-identical to all historical goldens.
// Both engines run under the same scenario pipeline. -shards composes with
// -resilience and -overload policies: responses complete on the source
// cluster's shard, where retry/hedge state lives, and the rng fork
// discipline makes a round-robin sharded run byte-identical to the classic
// one. Figure 9's DSB workload stays classic-only (its cross-service call
// graph needs service-keyed sharding); figure S1 always runs sharded.
//
// Independent runs (figures × configurations × repetitions) fan out across
// -parallel worker goroutines; each run derives its own seed and owns its
// simulation engine, and results are merged in a fixed order, so stdout is
// byte-for-bit identical for every -parallel value. Timings and the
// harness's self-metrics (runs completed, busy seconds, effective speedup
// over serial) go to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"l3/internal/bench"
	"l3/internal/chaos"
	"l3/internal/overload"
	"l3/internal/perf"
	"l3/internal/resilience"
	"l3/internal/serve"
	"l3/internal/trace"
)

// stdout/stderr are swappable so tests can silence the tool's output.
var (
	stdout io.Writer = os.Stdout
	stderr io.Writer = os.Stderr
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "l3bench:", err)
		os.Exit(1)
	}
}

// runBenchDiff re-measures the benchmark suite a committed BENCH JSON file
// holds and fails on regressions: >15 % ns/op over the baseline, or any
// allocs/op increase (alloc counts are exact — the pins treat them as
// contracts, so the diff does too). The file's shape picks the suite: a
// result array whose objects carry an "algo" key is the wall-clock serving
// trajectory (BENCH_serve.json) and gets a contract check instead of a
// timing diff, any other result array is the fast-path suite
// (BENCH_fastpath.json), and an object with a "benches" field is a shard
// report (BENCH_shards.json), whose scaling and wall-clock fields are
// host-dependent and not diffed.
func runBenchDiff(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("-benchdiff: %w", err)
	}
	// The serve shape must be sniffed before []perf.Result: unmarshalling
	// ignores unknown fields, so serve entries would "succeed" as an array
	// of zero-valued perf results and diff as garbage.
	var serveEntries []serve.BenchEntry
	if err := json.Unmarshal(data, &serveEntries); err == nil &&
		len(serveEntries) > 0 && serveEntries[0].Algo != "" {
		return serveContractCheck(path, serveEntries)
	}
	// Best-of-3 on the fresh side: one preempted sample on a loaded or
	// single-core host must not read as a regression. The barrier
	// benchmarks park and wake goroutines, so their wall time swings
	// ~20 % run to run when workers outnumber cores; -bench-shards writes
	// its committed benches best-of-3 too, making that comparison
	// minimum-vs-minimum.
	const measureRuns = 3
	var baseline, fresh []perf.Result
	if err := json.Unmarshal(data, &baseline); err == nil {
		fresh = perf.RunSuiteBest(stderr, perf.Suite(), measureRuns)
	} else {
		var report struct {
			Benches []perf.Result `json:"benches"`
		}
		if err2 := json.Unmarshal(data, &report); err2 != nil || len(report.Benches) == 0 {
			return fmt.Errorf("-benchdiff: %s is neither a benchmark result array nor a shard report with benches", path)
		}
		baseline = report.Benches
		fresh = perf.RunSuiteBest(stderr, perf.ShardSuite(), measureRuns)
	}
	const tol = 0.15
	msgs := perf.Diff(baseline, fresh, tol)
	if len(msgs) == 0 {
		fmt.Fprintf(stdout, "l3bench: benchdiff clean against %s (%d benchmarks, %.0f%% ns/op tolerance, allocs exact)\n",
			path, len(baseline), tol*100)
		return nil
	}
	for _, m := range msgs {
		fmt.Fprintf(stdout, "l3bench: benchdiff: %s\n", m)
	}
	return fmt.Errorf("%d benchmark regression(s) against %s", len(msgs), path)
}

// serveContractCheck validates a committed BENCH_serve.json against the
// serving mode's host-independent contracts. Wall-clock magnitudes are
// load- and hardware-dependent and are not diffed; what must always hold is
// checked exactly: the proxy layer's own hot path at 0 allocs/op, the L3
// pass beating round-robin's p99 on the skewed stubs, and every chaos record
// showing actual recovery — breaker ejections for data-plane faults,
// fail-static engagement for the scrape outage, a measured time-to-recover.
// A BENCH_serve.json regenerated on a regressed build fails here.
func serveContractCheck(path string, entries []serve.BenchEntry) error {
	var msgs []string
	var rrP99, l3P99 float64
	chaosRecords := 0
	for _, e := range entries {
		if e.AllocsPerOp != 0 {
			msgs = append(msgs, fmt.Sprintf("%s: proxy_layer_allocs_per_op = %v, contract is 0", e.Name, e.AllocsPerOp))
		}
		if e.Fault == "" {
			switch e.Name {
			case "serve_skewed_rr":
				rrP99 = e.P99Ms
			case "serve_skewed_l3":
				l3P99 = e.P99Ms
			}
			continue
		}
		chaosRecords++
		if !e.Recovered {
			msgs = append(msgs, fmt.Sprintf("%s: recovered = false", e.Name))
		}
		if e.TTRMs <= 0 {
			msgs = append(msgs, fmt.Sprintf("%s: ttr_ms = %v, want > 0", e.Name, e.TTRMs))
		}
		switch e.Fault {
		case "stall", "reset", "bflap":
			if e.Ejections == 0 {
				msgs = append(msgs, fmt.Sprintf("%s: breaker_ejections = 0, want >= 1", e.Name))
			}
		case "scrapedrop":
			if !e.FailStatic {
				msgs = append(msgs, fmt.Sprintf("%s: failstatic = false, want engagement", e.Name))
			}
		case "overload":
			// The overload scene's contracts: shedding strictly ordered by
			// criticality tier, the scene actually shedding something, and
			// the admission queue's longest admitted wait bounded (the
			// scene policy's 400ms MaxWait ceiling, with margin for a
			// regenerated baseline under a retuned policy).
			if e.ShedSheddable == 0 {
				msgs = append(msgs, fmt.Sprintf("%s: shed_sheddable = 0, the scene never shed", e.Name))
			}
			if e.ShedSheddable < e.ShedDefault || e.ShedDefault < e.ShedCritical {
				msgs = append(msgs, fmt.Sprintf("%s: shedding not tier-ordered (sheddable=%d default=%d critical=%d)",
					e.Name, e.ShedSheddable, e.ShedDefault, e.ShedCritical))
			}
			if e.MaxQueueMs <= 0 || e.MaxQueueMs >= 500 {
				msgs = append(msgs, fmt.Sprintf("%s: max_queue_ms = %v, want in (0, 500)", e.Name, e.MaxQueueMs))
			}
		}
	}
	if rrP99 > 0 && l3P99 > 0 && l3P99 >= rrP99 {
		msgs = append(msgs, fmt.Sprintf("serve_skewed: l3 p99 %.2fms >= rr p99 %.2fms", l3P99, rrP99))
	}
	if len(msgs) == 0 {
		fmt.Fprintf(stdout, "l3bench: benchdiff clean against %s (%d serve records, %d chaos; contracts exact, wall-clock not diffed)\n",
			path, len(entries), chaosRecords)
		return nil
	}
	for _, m := range msgs {
		fmt.Fprintf(stdout, "l3bench: benchdiff: %s\n", m)
	}
	return fmt.Errorf("%d serve contract violation(s) in %s", len(msgs), path)
}

func run(args []string) error {
	fs := flag.NewFlagSet("l3bench", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", "figure to regenerate: 1,2,4,6,7,8,9,10,11,12, C1, C2, R1, R2, R3, G1, G2, S1, O1, O2, 'ablations' or 'all'")
		chaosStr = fs.String("chaos", "", "fault schedule to inject (kind@start[+dur][:operands];...); overrides -fig")
		scenario = fs.String("scenario", trace.Scenario1, "scenario a -chaos schedule runs against")
		resStr   = fs.String("resilience", "",
			"resilience policy on the client (key=value,... e.g. 'deadline=1s,retries=3,budget=0.2,hedge=p99,breaker=5'); composes with -chaos runs")
		overloadStr = fs.String("overload", "",
			"admission-control policy on the client (key=value,... e.g. 'limit=32,min=4,max=64,target=20ms,qcap=128,tiers=on'; 'off' disables); composes with -chaos and figure runs")
		seed     = fs.Uint64("seed", 1, "base random seed")
		reps     = fs.Int("reps", 1, "repetitions per configuration (paper used 2-3)")
		guard    = fs.Bool("guard", false, "harden the control plane with internal/guard (hygiene, degraded modes, write gating); applies to -chaos and figure runs")
		quick    = fs.Bool("quick", false, "shrink measured windows for a fast pass")
		csv      = fs.Bool("csv", false, "emit series results as CSV instead of summaries")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0),
			"worker goroutines fanning out independent runs (1 = serial); output is identical for any value")
		benchMode   = fs.Bool("bench", false, "run the fast-path benchmark suite instead of figures")
		benchShards = fs.Bool("bench-shards", false,
			"run the shard-scaling sweep (figure S1 workload, classic baseline plus 1/2/4/8 workers) instead of figures")
		benchDiff = fs.String("benchdiff", "",
			"compare a fresh -bench run against this committed BENCH JSON; exit nonzero on >15% ns/op or any allocs/op regression")
		shards = fs.Int("shards", 0,
			"run scenario figures on the sharded core with this many workers (0 = classic engine; stdout is identical for every value >= 1)")
		benchout   = fs.String("benchout", "", "write -bench results as JSON to this file (default: stdout)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *benchDiff != "" && (*benchMode || *benchShards) {
		return fmt.Errorf("-benchdiff runs its own fresh pass; drop -bench/-bench-shards")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "l3bench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "l3bench: -memprofile:", err)
			}
		}()
	}

	if *benchMode {
		results := perf.Run(stderr)
		out := stdout
		if *benchout != "" {
			f, err := os.Create(*benchout)
			if err != nil {
				return fmt.Errorf("-benchout: %w", err)
			}
			defer f.Close()
			out = f
		}
		return perf.WriteJSON(out, results)
	}
	if *benchShards {
		report, err := bench.ShardScalingReport(*seed, []int{1, 2, 4, 8}, stderr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "l3bench: shards classic baseline wall=%.0fms on %d CPUs (GOMAXPROCS %d)\n",
			report.ClassicWallMS, report.NumCPU, report.GoMaxProcs)
		for _, p := range report.Scaling {
			fmt.Fprintf(stderr, "l3bench: shards workers=%d wall=%.0fms events/s=%.0f speedup=%.2fx\n",
				p.Workers, p.WallMS, p.EventsPerSec, p.Speedup)
		}
		fmt.Fprintf(stderr, "l3bench: shards overhead at one worker vs classic: %+.1f%%\n",
			report.OverheadAtOneWorker*100)
		out := stdout
		if *benchout != "" {
			f, err := os.Create(*benchout)
			if err != nil {
				return fmt.Errorf("-benchout: %w", err)
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	if *benchDiff != "" {
		return runBenchDiff(*benchDiff)
	}

	opts := bench.Options{Seed: *seed, Reps: *reps, Parallel: *parallel, Guard: *guard, Shards: *shards}
	if *quick {
		opts.Duration = 2 * time.Minute
	}
	if *resStr != "" {
		p, err := resilience.ParsePolicy(*resStr)
		if err != nil {
			return fmt.Errorf("-resilience: %w", err)
		}
		opts.Resilience = &p
	}
	if *overloadStr != "" {
		p, err := overload.ParsePolicy(*overloadStr)
		if err != nil {
			return fmt.Errorf("-overload: %w", err)
		}
		opts.Overload = &p
	}

	type runner struct {
		id string
		fn func() (*bench.Result, error)
	}
	dsbDuration := 5 * time.Minute
	if *quick {
		dsbDuration = 2 * time.Minute
	}
	runners := []runner{
		{"1", func() (*bench.Result, error) { return bench.Fig1(*seed) }},
		{"2", func() (*bench.Result, error) { return bench.Fig2(*seed) }},
		{"4", func() (*bench.Result, error) { return bench.Fig4(), nil }},
		{"6", func() (*bench.Result, error) { return bench.Fig6(*seed) }},
		{"7", func() (*bench.Result, error) { return bench.Fig7(opts) }},
		{"8", func() (*bench.Result, error) { return bench.Fig8(opts) }},
		{"9", func() (*bench.Result, error) { return bench.Fig9WithDuration(opts, dsbDuration) }},
		{"10", func() (*bench.Result, error) { return bench.Fig10(opts) }},
		{"11", func() (*bench.Result, error) { return bench.Fig11(opts) }},
		{"12", func() (*bench.Result, error) { return bench.Fig12(opts) }},
		{"C1", func() (*bench.Result, error) { return bench.FigC1(opts) }},
		{"C2", func() (*bench.Result, error) { return bench.FigC2(opts) }},
		{"R1", func() (*bench.Result, error) { return bench.FigR1(opts) }},
		{"R2", func() (*bench.Result, error) { return bench.FigR2(opts) }},
		{"R3", func() (*bench.Result, error) { return bench.FigR3(opts) }},
		{"G1", func() (*bench.Result, error) { return bench.FigG1(opts) }},
		{"G2", func() (*bench.Result, error) { return bench.FigG2(opts) }},
		{"S1", func() (*bench.Result, error) { return bench.FigS1(opts) }},
		{"O1", func() (*bench.Result, error) { return bench.FigO1(opts) }},
		{"O2", func() (*bench.Result, error) { return bench.FigO2(opts) }},
	}
	ablations := []runner{
		{"ablation-inflight-exponent", func() (*bench.Result, error) { return bench.AblationInflightExponent(opts) }},
		{"ablation-percentile", func() (*bench.Result, error) { return bench.AblationPercentile(opts) }},
		{"ablation-rate-control", func() (*bench.Result, error) { return bench.AblationRateControl(opts) }},
		{"ablation-scrape-interval", func() (*bench.Result, error) { return bench.AblationScrapeInterval(opts) }},
		{"ablation-baselines", func() (*bench.Result, error) { return bench.AblationBaselines(opts) }},
		{"ablation-failover", func() (*bench.Result, error) { return bench.AblationFailover(opts) }},
		{"ablation-dynamic-penalty", func() (*bench.Result, error) { return bench.AblationDynamicPenalty(opts) }},
		{"ablation-penalty-retries", func() (*bench.Result, error) { return bench.AblationPenaltyWithRetries(opts) }},
		{"ablation-cost", func() (*bench.Result, error) { return bench.AblationCostAwareness(opts) }},
	}

	var selected []runner
	switch {
	case *chaosStr != "":
		sched, err := chaos.ParseSchedule(*chaosStr)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		scen := *scenario
		selected = []runner{{"chaos", func() (*bench.Result, error) {
			return bench.FigChaosCustom(scen, sched, opts)
		}}}
	case *fig == "all":
		selected = runners
	case *fig == "ablations":
		selected = ablations
	default:
		for _, r := range append(runners, ablations...) {
			if r.id == *fig {
				selected = []runner{r}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown figure %q (figures 3 and 5 are architecture diagrams with no data)", *fig)
		}
	}

	// Figures fan out like configurations and repetitions do; results are
	// rendered in selection order afterwards, so stdout does not depend on
	// scheduling. Per-figure wall-clock goes to stderr: timing is
	// nondeterministic by nature and would break the byte-identical
	// guarantee on stdout.
	startRuns, startBusy := bench.SelfStats()
	wall := time.Now()
	results := make([]*bench.Result, len(selected))
	times := make([]time.Duration, len(selected))
	err := bench.ForEach(*parallel, len(selected), func(i int) error {
		start := time.Now()
		res, err := selected[i].fn()
		if err != nil {
			return fmt.Errorf("fig %s: %w", selected[i].id, err)
		}
		results[i], times[i] = res, time.Since(start)
		return nil
	})
	if err != nil {
		return err
	}
	for i, res := range results {
		if *csv && len(res.Series) > 0 {
			fmt.Fprint(stdout, res.CSV())
			continue
		}
		fmt.Fprint(stdout, res.Render())
		fmt.Fprintln(stdout)
		fmt.Fprintf(stderr, "l3bench: fig %s in %.1fs\n", selected[i].id, times[i].Seconds())
	}
	elapsed := time.Since(wall)
	workers := *parallel
	if workers <= 0 { // ForEach's GOMAXPROCS fallback
		workers = runtime.GOMAXPROCS(0)
	}
	runs, busy := bench.SelfStats()
	if runs -= startRuns; runs > 0 {
		busy -= startBusy
		fmt.Fprintf(stderr,
			"l3bench: %d runs, %.1fs busy across %d workers, %.1fs elapsed (%.1fx vs serial)\n",
			int(runs), busy.Seconds(), workers, elapsed.Seconds(),
			busy.Seconds()/elapsed.Seconds())
	}
	return nil
}
