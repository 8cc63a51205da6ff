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
//	l3bench -fig O1                  # overload: adaptive limit + CoDel vs collapse
//	l3bench -fig O2                  # overload: criticality-tiered flash crowd
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
// Any run can be profiled; the files are standard pprof:
//
//	l3bench -fig 10 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The harness's cost is measured by the repository benchmark
// (benchmark/run.sh, declared in BENCHMARK.json), not by this command.
//
// Independent runs (figures × configurations × repetitions) fan out across
// -parallel worker goroutines; each run derives its own seed and owns its
// simulation engine, and results are merged in a fixed order, so stdout is
// byte-for-bit identical for every -parallel value. Timings and the
// harness's self-metrics (runs completed, busy seconds, effective speedup
// over serial) go to stderr.
package main

import (
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
	"l3/internal/resilience"
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

func run(args []string) error {
	fs := flag.NewFlagSet("l3bench", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", "figure to regenerate: 1,2,4,6,7,8,9,10,11,12, C1, C2, R1, R2, R3, G1, G2, O1, O2, 'ablations' or 'all'")
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
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
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

	opts := bench.Options{Seed: *seed, Reps: *reps, Parallel: *parallel, Guard: *guard}
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
