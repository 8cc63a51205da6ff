package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"l3/internal/autoscale"
	"l3/internal/backend"
	"l3/internal/balancer"
	"l3/internal/c3"
	"l3/internal/chaos"
	"l3/internal/clock"
	"l3/internal/cluster"
	"l3/internal/core"
	"l3/internal/cost"
	"l3/internal/dsb"
	"l3/internal/ewma"
	"l3/internal/guard"
	"l3/internal/health"
	"l3/internal/loadgen"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/overload"
	"l3/internal/resilience"
	"l3/internal/sim"
	"l3/internal/smi"
	"l3/internal/timeseries"
	"l3/internal/trace"
	"l3/internal/wan"
)

// Algorithm selects the load-balancing strategy under test.
type Algorithm int

const (
	// AlgoRoundRobin is Linkerd's default and the paper's baseline.
	AlgoRoundRobin Algorithm = iota + 1
	// AlgoL3 is the paper's system (Algorithm 1 + Algorithm 2 driving a
	// TrafficSplit).
	AlgoL3
	// AlgoC3 is the adapted C3 comparison (internal/c3).
	AlgoC3
	// AlgoP2C is Linkerd's per-request power-of-two-choices PeakEWMA
	// balancer, kept as an extra ablation baseline.
	AlgoP2C
	// AlgoFailover is round-robin plus health-check-driven ejection — the
	// multi-cluster failover mechanism of Istio/Linkerd/Traffic Director
	// that the paper's related work contrasts L3 with.
	AlgoFailover
)

// String names the algorithm as the paper labels it.
func (a Algorithm) String() string {
	switch a {
	case AlgoRoundRobin:
		return "Round-robin"
	case AlgoL3:
		return "L3"
	case AlgoC3:
		return "C3"
	case AlgoP2C:
		return "P2C"
	case AlgoFailover:
		return "RR+failover"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// Options parameterises one scenario run. Zero values take the paper's
// setup.
type Options struct {
	// Seed drives all randomness; reps use Seed, Seed+1, ...
	Seed uint64
	// Reps is the number of repetitions merged per configuration
	// (default 1; the paper used 2-3).
	Reps int
	// Parallel caps the worker goroutines fanning out independent runs —
	// repetitions and sweep configurations (default runtime.GOMAXPROCS(0);
	// 1 forces serial execution). Every run derives its own seed and owns
	// its engine, and results merge in index order, so the output is
	// bit-for-bit identical for any value.
	Parallel int
	// WarmUp precedes measurement (default 30 s); the scenario's t=0
	// state is held during warm-up.
	WarmUp time.Duration
	// Duration overrides the measured portion (default: the scenario's
	// full 10 minutes).
	Duration time.Duration
	// Concurrency per backend deployment (default 64 ≈ the paper's three
	// replicas per cluster).
	Concurrency int
	// QueueCapacity overrides each backend's wait-queue bound (default
	// 4096). The resilience figures shrink it so a saturated backend
	// sheds load fast instead of absorbing it into multi-second queues.
	QueueCapacity int
	// ConcurrencyByCluster overrides Concurrency for specific clusters
	// (heterogeneous capacities, e.g. a fast-but-small deployment next to
	// slow-but-wide ones).
	ConcurrencyByCluster map[string]int
	// Autoscale attaches a horizontal autoscaler to every backend when
	// non-nil — the mechanism §3.2's rate controller is designed to buy
	// time for.
	Autoscale *autoscale.Config
	// Resilience routes the benchmark client through the resilience layer
	// (deadlines, budgeted retries, hedging, circuit breaking) instead of
	// the bare mesh proxy; recorded latency then spans all attempts. The
	// paper's benchmarks skipped retries "for simplicity" (§5.2.1) — plain
	// client retries are the policy {Retry: {MaxAttempts: 3}} with no
	// budget. The policy is applied on top of whatever picker the algorithm
	// installed, so the breaker filter composes with failover and weighted
	// strategies, and each repetition forks its own jitter source, so runs
	// stay deterministic at any -parallel.
	Resilience *resilience.Policy
	// Overload composes the admission-control layer (internal/overload) —
	// adaptive concurrency limit, CoDel admission queue, criticality-tiered
	// shedding — over the benchmark client, outside Resilience, so a shed
	// request is rejected before it can deposit into or spend from the
	// retry budget.
	Overload *overload.Policy
	// OverloadTierMix cycles request criticality tiers deterministically
	// (e.g. [0,1,2] marks equal thirds critical/default/sheddable); empty
	// issues everything at TierDefault. Requires Overload; when set, the
	// run additionally records one recorder per tier into its artifacts.
	OverloadTierMix []int
	// DynamicPenalty switches L3 to the per-backend measured failure
	// round-trip instead of the static P (the paper's future work).
	DynamicPenalty bool
	// CostLambda enables cost-aware L3 (§7 future work): the
	// dollars→latency exchange rate in seconds per dollar (0 = off).
	CostLambda float64
	// Penalty is L3's P (default 600 ms).
	Penalty time.Duration
	// FilterKind selects L3's latency filter (default EWMA).
	FilterKind ewma.Kind
	// DisableRateControl turns Algorithm 2 off (ablation).
	DisableRateControl bool
	// ScrapeInterval is the metrics pipeline's scrape period
	// (default 5 s).
	ScrapeInterval time.Duration
	// Window is the collector's query window (default 2×scrape).
	Window time.Duration
	// Percentile is L3's latency percentile (default 0.99).
	Percentile float64
	// RPSScale multiplies the scenario's offered load (default 1).
	RPSScale float64
	// Chaos injects this fault schedule into every repetition. Event times
	// are relative to measurement start; the harness shifts them by WarmUp.
	Chaos *chaos.Schedule
	// LeaderElection runs two leader-elected controller instances per
	// split scope (ids l3-0, l3-1, …) sharing one lease instead of a
	// single always-on instance, so chaos leader kills have a standby to
	// fail over to. L3/C3 only.
	LeaderElection bool
	// Guard hardens the L3/C3 control plane with internal/guard: metric
	// hygiene at scrape ingestion, staleness-aware degraded modes around
	// the assigner, a write gate in front of every TrafficSplit write, and
	// a stall watchdog degrading to the baseline split. Off by default so
	// every unguarded figure is byte-identical to the historical output.
	Guard bool
	// Shards picks the engine under the one scenario pipeline (newWorld is
	// its only reader). 0 is the classic single-loop engine — byte-identical
	// to all historical figures. N > 0 is the sharded deterministic core
	// (internal/sim.ShardedEngine): one logical shard per cluster plus a
	// control engine, synchronised at conservative lookahead barriers
	// derived from the WAN model's minimum one-way delay. The decomposition
	// is fixed by the scenario and N only caps the worker pool, so output is
	// byte-identical for every N ≥ 1 (the -parallel merge discipline,
	// applied inside one run); the wiring replays the classic rng fork
	// order, so round-robin workloads are byte-identical to classic too.
	// Resilience and Overload compose via cross-shard continuations
	// (responses complete on the source-cluster shard, where the retry/hedge
	// state lives). The DSB workload remains classic-only: its cross-service
	// call graph needs service-keyed sharding.
	Shards int

	// inflightExponent overrides Equation 4's exponent for the ablation
	// bench (0 = the paper's default of 2).
	inflightExponent float64
}

func (o Options) withDefaults() Options {
	if o.Reps <= 0 {
		o.Reps = 1
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.WarmUp <= 0 {
		o.WarmUp = 30 * time.Second
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 64
	}
	if o.Penalty <= 0 {
		o.Penalty = 600 * time.Millisecond
	}
	if o.FilterKind == 0 {
		o.FilterKind = ewma.KindEWMA
	}
	if o.ScrapeInterval <= 0 {
		o.ScrapeInterval = 5 * time.Second
	}
	if o.Window <= 0 {
		o.Window = 2 * o.ScrapeInterval
	}
	if o.Percentile <= 0 || o.Percentile >= 1 {
		o.Percentile = 0.99
	}
	if o.RPSScale <= 0 {
		o.RPSScale = 1
	}
	return o
}

// sourceCluster is where the load generator and L3 run (the paper deploys
// both in cluster-1).
const sourceCluster = "cluster-1"

// apiService is the service name of the trace-driven REST API workload.
const apiService = "api"

// ScenarioStats augments a run's latency recorder with traffic-cost
// accounting for the cost-awareness experiments.
type ScenarioStats struct {
	Recorder *loadgen.Recorder
	// RemoteShare is the fraction of requests served outside the source
	// cluster.
	RemoteShare float64
	// TransferCost is the run's inter-cluster transfer bill in dollars,
	// priced by cost.DefaultRates at 16 KiB per request.
	TransferCost float64
}

// RunScenarioWithStats is RunScenario returning traffic accounting too.
func RunScenarioWithStats(scenarioName string, algo Algorithm, opts Options) (*ScenarioStats, error) {
	opts = opts.withDefaults()
	runs, err := runReps(named(scenarioName), algo, opts)
	if err != nil {
		return nil, err
	}
	stats := &ScenarioStats{Recorder: mergeRuns(runs)}
	model := cost.NewModel(cost.DefaultRates(), 0)
	var local, remote float64
	for _, run := range runs {
		stats.TransferCost += model.TrafficCost(run.counts)
		for _, link := range sortedLinks(run.counts) {
			if link[0] == link[1] {
				local += run.counts[link]
			} else {
				remote += run.counts[link]
			}
		}
	}
	if local+remote > 0 {
		stats.RemoteShare = remote / (local + remote)
	}
	return stats, nil
}

// RunScenario replays a trace scenario under one algorithm and returns the
// merged recorder across repetitions. The setup mirrors §5.1's second
// testbed: an HTTP/2 REST API deployed in all three clusters whose response
// delay and failure rate follow the scenario's per-cluster series, a
// constant-throughput generator in cluster-1 offering the scenario's RPS,
// and (for L3/C3) the controller pipeline — scraper, TSDB, collector,
// assigner — updating one TrafficSplit every 5 s.
func RunScenario(scenarioName string, algo Algorithm, opts Options) (*loadgen.Recorder, error) {
	runs, err := runReps(named(scenarioName), algo, opts.withDefaults())
	if err != nil {
		return nil, err
	}
	return mergeRuns(runs), nil
}

// RunScenarioTrace is RunScenario for a caller-built scenario (custom RPS
// shapes, synthetic latency processes). Repetitions rerun the same trace
// with different simulation seeds.
func RunScenarioTrace(sc *trace.Scenario, algo Algorithm, opts Options) (*loadgen.Recorder, error) {
	runs, err := runReps(fixed(sc), algo, opts.withDefaults())
	if err != nil {
		return nil, err
	}
	return mergeRuns(runs), nil
}

// repRun is what one repetition yields: its recorder, the per-(src,
// dst-cluster) request counts read from the data-plane metrics, the run's
// artifacts (never nil) and the measured duration it actually ran for.
type repRun struct {
	rec      *loadgen.Recorder
	counts   map[[2]string]float64
	art      *chaosArtifacts
	duration time.Duration
}

// named regenerates a trace scenario from each repetition's derived seed;
// fixed reruns one caller-built trace under every seed.
func named(scenarioName string) func(seed uint64) (*trace.Scenario, error) {
	return func(seed uint64) (*trace.Scenario, error) { return trace.Generate(scenarioName, seed) }
}

func fixed(sc *trace.Scenario) func(seed uint64) (*trace.Scenario, error) {
	return func(uint64) (*trace.Scenario, error) { return sc, nil }
}

// runReps is the one repetition fan-out behind every scenario entry point:
// opts.Reps independent runs across opts.Parallel workers, each on its own
// derived seed, returned in index order — the order every reduction over
// them folds in, which is what keeps output identical at any -parallel.
// opts must already carry its defaults.
func runReps(scenario func(seed uint64) (*trace.Scenario, error), algo Algorithm, opts Options) ([]repRun, error) {
	runs := make([]repRun, opts.Reps)
	err := ForEach(opts.Parallel, opts.Reps, func(rep int) error {
		seed := DeriveSeed(opts.Seed, rep)
		sc, err := scenario(seed)
		if err != nil {
			return err
		}
		runs[rep], err = runOnceCounted(sc, algo, opts, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// mergeRuns folds the repetitions' recorders into one, in index order.
func mergeRuns(runs []repRun) *loadgen.Recorder {
	merged := loadgen.NewRecorder(time.Second)
	for _, run := range runs {
		merged.Merge(run.rec)
	}
	return merged
}

// mergeRecorders folds per-repetition recorders into one, in index order —
// the deterministic reduction behind every parallel fan-out here.
func mergeRecorders(recs []*loadgen.Recorder) *loadgen.Recorder {
	merged := loadgen.NewRecorder(time.Second)
	for _, rec := range recs {
		merged.Merge(rec)
	}
	return merged
}

// sortedLinks returns the count matrix's keys in lexicographic order, so
// floating-point reductions over it are reproducible.
func sortedLinks(counts map[[2]string]float64) [][2]string {
	links := make([][2]string, 0, len(counts))
	for link := range counts {
		links = append(links, link)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	return links
}

// chaosArtifacts is what one run yields beyond its recorder: the observed
// TrafficSplit write times and weight snapshots (for reconvergence and
// failover-gap metrics; chaos runs only), the health checker's
// ejection/restore totals, the injector's own accounting, and the
// resilience, guard and admission layers' counters (zero when the layer is
// off).
type chaosArtifacts struct {
	injector  *chaos.Injector
	updates   []time.Duration
	snaps     []chaos.WeightSnapshot
	ejections float64
	restores  float64
	res       resCounters
	grd       guardCounters
	ovl       ovlCounters
	// tierRecs holds one recorder per criticality tier, filled only when
	// Options.OverloadTierMix is set (the O2 figure's per-tier SLO view).
	tierRecs [overload.NumTiers]*loadgen.Recorder
}

// resCounters aggregates one run's resilience-layer activity from the
// metrics registry, plus the data-plane attempt total the retry ratio is
// measured against.
type resCounters struct {
	requests, retries, hedges, budgetDenied, deadline, duplicates float64
	breakerEjects, breakerRestores, breakerDenied                 float64
	// attempts is the sum of mesh response_total across routes: every
	// attempt the data plane actually carried, retries and hedges
	// included.
	attempts float64
}

// ovlCounters aggregates one run's admission-layer activity from the
// metrics registry plus the client's end-of-run state (all zero when
// Options.Overload is off).
type ovlCounters struct {
	admitted, codelDropped, overflow, lifoFlips, readmits float64
	shed                                                  [overload.NumTiers]float64
	// limit and admitMax are the client's final limiter value and highest
	// admitted tier; maxSojourn the longest queue wait any admitted or
	// dropped request saw.
	limit, admitMax int
	maxSojourn      time.Duration
}

// guardCounters aggregates one run's guard-layer activity from the metrics
// registry (all zero when Options.Guard is off).
type guardCounters struct {
	rejected, resets, holds, decays, frozen      float64
	writeSuppressed, writeClamped, writeRejected float64
	watchdogDegrades                             float64
}

// backendResetter adapts the data-plane registries to the chaos
// MetricResetter: a counterreset event zeroes the backend's cumulative
// series, exactly what a pod restart does to its /metrics endpoint. The
// series live in whichever shards have routed to the backend.
type backendResetter struct{ regs []*metrics.Registry }

func (r backendResetter) ResetBackendCounters(backend string) {
	for _, reg := range r.regs {
		reg.ResetCounters(metrics.Labels{"backend": backend})
	}
}

// runOnceCounted runs one scenario replay: the API service in every cluster
// of the trace, one TrafficSplit, the algorithm's wiring, chaos and the
// client layers, on whichever engine newWorld picked. Every call is fully
// self-contained — own engines, RNG, WAN model and metrics registries —
// which is what makes the rep/sweep fan-outs safe and deterministic.
func runOnceCounted(sc *trace.Scenario, algo Algorithm, opts Options, seed uint64) (repRun, error) {
	if opts.Overload == nil && len(opts.OverloadTierMix) > 0 {
		return repRun{}, fmt.Errorf("bench: OverloadTierMix requires Overload")
	}
	defer func(start time.Time) { recordRun(time.Since(start)) }(time.Now())
	w, err := newWorld(sc.ClusterNames(), seed, wan.DefaultConfig(), opts)
	if err != nil {
		return repRun{}, err
	}
	m := w.mesh

	if _, err := m.AddService(apiService); err != nil {
		return repRun{}, err
	}
	warm := opts.WarmUp
	var backends []smi.Backend
	injectors := make(map[string]chaos.BackendInjector)
	for i := range sc.Clusters {
		ct := &sc.Clusters[i]
		name := apiService + "-" + ct.Cluster
		profile := func(now time.Duration, r *sim.Rand) (time.Duration, bool) {
			t := now - warm // trace clamps t<0 to its first value
			return ct.SampleLatency(t, r), ct.SampleSuccess(t, r)
		}
		conc := opts.Concurrency
		if c, ok := opts.ConcurrencyByCluster[ct.Cluster]; ok {
			conc = c
		}
		b, err := m.AddBackend(apiService, name, ct.Cluster,
			backend.Config{Concurrency: conc, QueueCapacity: opts.QueueCapacity}, profile)
		if err != nil {
			return repRun{}, err
		}
		replica, isReplica := b.Server.(*backend.Replica)
		if isReplica {
			injectors[name] = replica
		}
		if opts.Autoscale != nil {
			if !isReplica {
				return repRun{}, fmt.Errorf("bench: backend %s is not a replica pool", name)
			}
			cfg := *opts.Autoscale
			if cfg.Max == 0 {
				cfg.Max = 16 * conc
			}
			if cfg.Min == 0 {
				cfg.Min = conc
			}
			eng, err := m.EngineFor(ct.Cluster)
			if err != nil {
				return repRun{}, err
			}
			autoscale.New(eng, replica, cfg).Start()
		}
		backends = append(backends, smi.Backend{Service: name, Weight: 500})
	}
	if err := m.Splits().Create(&smi.TrafficSplit{
		Name: apiService, RootService: apiService, Backends: backends,
	}); err != nil {
		return repRun{}, err
	}

	handles, err := installAlgorithm(w, algo, opts, []string{apiService}, nil, globalController())
	if err != nil {
		return repRun{}, err
	}

	art := &chaosArtifacts{}
	if len(opts.OverloadTierMix) > 0 {
		for tier := range art.tierRecs {
			art.tierRecs[tier] = loadgen.NewRecorder(time.Second)
		}
	}
	if opts.Chaos != nil {
		m.Splits().Watch(false, func(e cluster.Event[*smi.TrafficSplit]) {
			if e.Type != cluster.Updated || e.Object.Name != apiService {
				return
			}
			weights := make(map[string]int64, len(e.Object.Backends))
			for _, b := range e.Object.Backends {
				weights[b.Service] = b.Weight
			}
			// Splits are written on the control timeline.
			art.updates = append(art.updates, w.ctrl.Now())
			art.snaps = append(art.snaps, chaos.WeightSnapshot{At: w.ctrl.Now(), Weights: weights})
		})
		scrapers := make([]chaos.ScrapeGate, len(handles.scrapers))
		for i, s := range handles.scrapers {
			scrapers[i] = s
		}
		inj := chaos.New(w.ctrl, *opts.Chaos, chaos.Targets{
			Clusters: sc.ClusterNames(),
			Links:    w.wan,
			Backends: injectors,
			Scrapers: scrapers,
			Leaders:  handles.leaders,
			Metrics:  backendResetter{m.Registries()},
		}, warm)
		if err := inj.Start(); err != nil {
			return repRun{}, err
		}
		art.injector = inj
	}

	// Client layers, each bound to the source cluster: their timers, budget
	// and breaker live on that cluster's timeline, and (sharded) retry/hedge
	// re-entries are cross-shard continuations the mesh's return hop
	// delivers back there. The backend streams are mode-invariant (mesh's
	// wiring-rng discipline) and so is this fork, which makes a run a
	// function of the seed alone, not the engine.
	var resClient *resilience.Client
	if opts.Resilience != nil {
		// Applied after installAlgorithm so the breaker filter wraps the
		// strategy the algorithm installed (round-robin, failover, split).
		resClient, err = resilience.NewClient(m, sourceCluster, w.rng.Fork())
		if err != nil {
			return repRun{}, err
		}
		if err := resClient.Apply(apiService, *opts.Resilience); err != nil {
			return repRun{}, err
		}
	}
	var ovClient *overload.Client
	if opts.Overload != nil {
		// The admission layer forks no rng of its own (its control laws are
		// deterministic functions of observed RTTs), so enabling it leaves
		// the fork order — and every overload-off figure — untouched.
		ovClient, err = overload.NewClient(m, sourceCluster)
		if err != nil {
			return repRun{}, err
		}
		if resClient != nil {
			ovClient.SetInner(resClient)
		}
		if err := ovClient.Apply(apiService, *opts.Overload); err != nil {
			return repRun{}, err
		}
	}

	proxy, err := m.Proxy(sourceCluster)
	if err != nil {
		return repRun{}, err
	}
	srcEngine := proxy.Engine()
	var tierSeq int
	pool := &relays{warm: warm}
	issue := func(done func(time.Duration, bool)) error {
		r := pool.get(done)
		switch {
		case ovClient != nil:
			tier := overload.TierDefault
			if n := len(opts.OverloadTierMix); n > 0 {
				tier = opts.OverloadTierMix[tierSeq%n]
				tierSeq++
			}
			r.tierRec, r.start = art.tierRecs[tier], srcEngine.Now()
			return r.issued(ovClient.CallTier(sourceCluster, apiService, tier, r.mesh))
		case resClient != nil:
			return r.issued(resClient.Call(sourceCluster, apiService, r.resilience))
		default:
			return r.issued(proxy.Call(apiService, r.mesh))
		}
	}
	gen := loadgen.New(srcEngine, loadgen.Config{
		Rate: func(now time.Duration) float64 {
			return sc.RPS.At(now-warm) * opts.RPSScale
		},
		WarmUp: warm,
	}, issue)
	gen.Start()

	duration := opts.Duration
	if duration <= 0 {
		duration = sc.Duration
	}
	w.runUntil(warm + duration)
	gen.Stop()
	w.runUntil(warm + duration + 30*time.Second) // drain in-flight

	counts := make(map[[2]string]float64)
	var buf []metrics.Sample
	for _, reg := range w.scrape {
		buf = reg.SnapshotAppend(buf[:0])
		for _, sample := range buf {
			switch sample.Name {
			case mesh.MetricResponseTotal:
				src := sample.Labels["src"]
				dst := strings.TrimPrefix(sample.Labels["backend"], apiService+"-")
				counts[[2]string{src, dst}] += sample.Value
				art.res.attempts += sample.Value
			case health.MetricEjectionsTotal:
				art.ejections += sample.Value
			case health.MetricRestoresTotal:
				art.restores += sample.Value
			case resilience.MetricRequestsTotal:
				art.res.requests += sample.Value
			case resilience.MetricRetriesTotal:
				art.res.retries += sample.Value
			case resilience.MetricHedgesTotal:
				art.res.hedges += sample.Value
			case resilience.MetricBudgetExhaustedTotal:
				art.res.budgetDenied += sample.Value
			case resilience.MetricDeadlineExceededTotal:
				art.res.deadline += sample.Value
			case resilience.MetricDuplicatesTotal:
				art.res.duplicates += sample.Value
			case resilience.MetricBreakerEjectionsTotal:
				art.res.breakerEjects += sample.Value
			case resilience.MetricBreakerRestoresTotal:
				art.res.breakerRestores += sample.Value
			case resilience.MetricBreakerDeniedTotal:
				art.res.breakerDenied += sample.Value
			case guard.MetricRejectedTotal:
				art.grd.rejected += sample.Value
			case guard.MetricResetsTotal:
				art.grd.resets += sample.Value
			case guard.MetricHoldsTotal:
				art.grd.holds += sample.Value
			case guard.MetricDecaysTotal:
				art.grd.decays += sample.Value
			case guard.MetricFrozenTotal:
				art.grd.frozen += sample.Value
			case guard.MetricWriteSuppressedTotal:
				art.grd.writeSuppressed += sample.Value
			case guard.MetricWriteClampedTotal:
				art.grd.writeClamped += sample.Value
			case guard.MetricWriteRejectedTotal:
				art.grd.writeRejected += sample.Value
			case guard.MetricWatchdogDegradesTotal:
				art.grd.watchdogDegrades += sample.Value
			case overload.MetricAdmittedTotal:
				art.ovl.admitted += sample.Value
			case overload.MetricCodelDroppedTotal:
				art.ovl.codelDropped += sample.Value
			case overload.MetricQueueOverflowTotal:
				art.ovl.overflow += sample.Value
			case overload.MetricLifoFlipsTotal:
				art.ovl.lifoFlips += sample.Value
			case overload.MetricReadmitsTotal:
				art.ovl.readmits += sample.Value
			case overload.MetricShedTotal:
				for tier := 0; tier < overload.NumTiers; tier++ {
					if sample.Labels["tier"] == overload.TierName(tier) {
						art.ovl.shed[tier] += sample.Value
					}
				}
			}
		}
	}
	if ovClient != nil {
		if limit, admitMax, maxSojourn, ok := ovClient.State(apiService); ok {
			art.ovl.limit, art.ovl.admitMax, art.ovl.maxSojourn = limit, admitMax, maxSojourn
		}
	}
	pool.closed = true
	return repRun{rec: gen.Recorder(), counts: counts, art: art, duration: duration}, w.settle(gen)
}

// algoHandles exposes the control-plane pieces installAlgorithm built, so
// the chaos injector can reach into them. All fields may be empty — a
// round-robin run has no scraper, controller or checker.
type algoHandles struct {
	scrapers []*core.Scraper
	checker  *health.Checker
	leaders  map[string]chaos.Leader
	// db is the TSDB the scraper fills and the collectors query (L3/C3).
	db *timeseries.DB
}

// leaderHandle adapts one controller instance (controller + elector) to the
// chaos Leader interface: Kill crashes it without releasing the lease,
// Revive restarts it (it rejoins as standby until it re-acquires).
type leaderHandle struct {
	ctrl    *core.Controller
	elector *cluster.Elector
}

func (h leaderHandle) Kill()          { h.ctrl.Crash() }
func (h leaderHandle) Revive()        { h.ctrl.Start() }
func (h leaderHandle) IsLeader() bool { return h.elector.IsLeader() }

// installAlgorithm wires the routing strategy (and, for L3/C3, the
// controller pipeline) for the given services: pickers per shard timeline
// (world.setPickers), every control-plane component — scraper, controllers,
// electors, health checker, watchdog — on the control timeline with its
// series in the control registry. splitName maps (source cluster, service)
// to the governing TrafficSplit (nil = one global split named after the
// service), and controllers lists the L3/C3 instances to run: the
// single-service scenario testbed runs one instance in cluster-1 managing
// the global split; the DSB testbed runs one per cluster, each reading its
// own cluster's proxy metrics and managing its own splits, as §3 describes
// for production deployments.
func installAlgorithm(w *world, algo Algorithm, opts Options,
	services []string, splitName func(src, service string) string, controllers []controllerSpec) (*algoHandles, error) {
	m := w.mesh
	handles := &algoHandles{}
	switch algo {
	case AlgoRoundRobin:
		for _, svc := range services {
			if err := w.setPickers(svc, nil, func(*sim.Rand) mesh.Picker {
				return balancer.NewRoundRobin()
			}); err != nil {
				return nil, err
			}
		}
		return handles, nil
	case AlgoP2C:
		for _, svc := range services {
			if err := w.setPickers(svc, w.rng.Fork(), func(rng *sim.Rand) mesh.Picker {
				return balancer.NewP2C(rng, 5*time.Second, time.Second)
			}); err != nil {
				return nil, err
			}
		}
		return handles, nil
	case AlgoFailover:
		hcfg := health.Config{Registry: w.ctrlReg}
		if opts.Chaos != nil {
			// Under chaos the checker probes through the mesh so WAN
			// faults (partitions, delay spikes) are visible to it, as they
			// are to Istio/Linkerd cross-cluster health checks.
			hcfg.Probe = func(b *mesh.Backend, done func(success bool)) {
				m.Probe(sourceCluster, b, done)
			}
		}
		// The checker probes and ejects on the control timeline; shard
		// pickers read its healthy-set through the FailoverPicker filter,
		// which is safe during windows because ejection state only changes
		// at barriers.
		checker := health.NewChecker(clock.Sim(w.ctrl), hcfg)
		handles.checker = checker
		for _, svc := range services {
			s, ok := m.Service(svc)
			if !ok {
				return nil, fmt.Errorf("bench: unknown service %q", svc)
			}
			checker.WatchAll(s.Backends())
			if err := w.setPickers(svc, nil, func(*sim.Rand) mesh.Picker {
				return &health.FailoverPicker{Checker: checker, Inner: balancer.NewRoundRobin()}
			}); err != nil {
				return nil, err
			}
		}
		return handles, nil
	case AlgoL3, AlgoC3:
		for _, svc := range services {
			if err := w.setPickers(svc, w.rng.Fork(), func(rng *sim.Rand) mesh.Picker {
				return balancer.NewWeightedSplit(m.Splits(), rng, splitName)
			}); err != nil {
				return nil, err
			}
		}
		db := timeseries.NewDB(time.Minute)
		handles.db = db
		var hyg *guard.Hygiene
		var gate *guard.WriteGate
		if opts.Guard {
			hyg = guard.NewHygiene(guard.Config{}, w.ctrlReg)
			db.SetGate(hyg)
			gate = guard.NewWriteGate(guard.Config{}, w.ctrlReg)
		}
		scraper := core.NewScraperMulti(w.ctrl, db, w.scrape, opts.ScrapeInterval)
		scraper.Start()
		handles.scrapers = append(handles.scrapers, scraper)
		newAssigner := func() core.Assigner {
			var assigner core.Assigner
			if algo == AlgoC3 {
				assigner = c3.New(c3.Config{})
			} else {
				assigner = core.NewL3Assigner(core.WeightingConfig{
					Penalty:          opts.Penalty,
					FilterKind:       opts.FilterKind,
					InflightExponent: opts.inflightExponent,
					DynamicPenalty:   opts.DynamicPenalty,
				}, core.RateControlConfig{}, !opts.DisableRateControl)
				if opts.CostLambda > 0 {
					assigner = cost.NewAssigner(assigner, cost.NewModel(cost.DefaultRates(), 0),
						sourceCluster, func(b string) string {
							return strings.TrimPrefix(b, apiService+"-")
						}, opts.CostLambda)
				}
			}
			if opts.Guard {
				assigner = guard.NewAssigner(assigner, guard.Config{}, w.ctrlReg)
			}
			return assigner
		}
		handles.leaders = make(map[string]chaos.Leader)
		for si, spec := range controllers {
			newController := func(elector *cluster.Elector) *core.Controller {
				collector := &core.Collector{
					DB: db, Window: opts.Window, Percentile: opts.Percentile,
					Match: spec.match,
				}
				if hyg != nil {
					collector.Resets = hyg
				}
				cfg := core.ControllerConfig{
					Interval:    opts.ScrapeInterval,
					NewAssigner: newAssigner,
					SplitFilter: spec.filter,
					Elector:     elector,
				}
				if gate != nil {
					cfg.WriteGuard = gate
				}
				return core.NewController(w.ctrl, m.Splits(), collector, cfg)
			}
			if !opts.LeaderElection {
				newController(nil).Start()
				continue
			}
			// Leader-elected pair: both instances run the full pipeline,
			// one lease gates the split writes. Instance 0 starts first and
			// campaigns first, so it is deterministically the initial
			// leader.
			lock := cluster.NewLeaseLock()
			for i := 0; i < 2; i++ {
				id := fmt.Sprintf("l3-%d", i)
				if len(controllers) > 1 {
					id = fmt.Sprintf("l3-%d-%d", si, i)
				}
				elector := cluster.NewElector(w.ctrl, lock, cluster.ElectorConfig{ID: id})
				ctrl := newController(elector)
				ctrl.Start()
				handles.leaders[id] = leaderHandle{ctrl: ctrl, elector: elector}
			}
		}
		if gate != nil {
			guard.NewWatchdog(w.ctrl, m.Splits(), guard.Config{}, w.ctrlReg, nil, gate).Start()
		}
		return handles, nil
	default:
		return nil, fmt.Errorf("bench: unknown algorithm %v", algo)
	}
}

// controllerSpec describes one L3/C3 instance: which metric series it may
// read and which TrafficSplits it manages.
type controllerSpec struct {
	match  metrics.Labels
	filter func(name string) bool
}

// globalController is the scenario testbed's single instance managing
// every split from all metrics.
func globalController() []controllerSpec {
	return []controllerSpec{{}}
}

// perClusterControllers builds one instance per cluster, each scoped to its
// cluster's source-side metrics and its cluster's splits.
func perClusterControllers(clusters []string) []controllerSpec {
	specs := make([]controllerSpec, 0, len(clusters))
	for _, c := range clusters {
		c := c
		specs = append(specs, controllerSpec{
			match:  metrics.Labels{"src": c},
			filter: func(name string) bool { return strings.HasPrefix(name, c+"/") },
		})
	}
	return specs
}

// RunDSB runs the DeathStarBench hotel-reservation workload (Figure 9's
// experiment) under one algorithm: the full application in every cluster,
// load entering at the cluster-local frontend at a constant rate.
func RunDSB(algo Algorithm, rps float64, duration time.Duration, opts Options) (*loadgen.Recorder, error) {
	opts = opts.withDefaults()
	if opts.Shards > 0 {
		return nil, fmt.Errorf("bench: the DSB workload (cross-service call graph) requires the classic single-timeline engine; run without sharding (-shards 0)")
	}
	recs := make([]*loadgen.Recorder, opts.Reps)
	err := ForEach(opts.Parallel, opts.Reps, func(rep int) error {
		seed := DeriveSeed(opts.Seed, rep)
		rec, err := runDSBOnce(algo, rps, duration, opts, seed)
		if err != nil {
			return err
		}
		recs[rep] = rec
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeRecorders(recs), nil
}

func runDSBOnce(algo Algorithm, rps float64, duration time.Duration, opts Options, seed uint64) (*loadgen.Recorder, error) {
	defer func(start time.Time) { recordRun(time.Since(start)) }(time.Now())
	clusters := []string{"cluster-1", "cluster-2", "cluster-3"}
	w, err := newWorld(clusters, seed, wan.DefaultConfig(), opts)
	if err != nil {
		return nil, err
	}
	app, err := dsb.InstallHotelReservation(w.mesh, clusters, w.rng.Fork(), dsb.WithPerfVariation())
	if err != nil {
		return nil, err
	}
	if err := app.CreateSplits(); err != nil {
		return nil, err
	}
	if _, err := installAlgorithm(w, algo, opts, app.Services(),
		dsb.SplitName, perClusterControllers(clusters)); err != nil {
		return nil, err
	}

	gen, err := w.directLoad(sourceCluster, dsb.EntryService, loadgen.Config{
		Rate:   loadgen.ConstantRate(rps),
		WarmUp: opts.WarmUp,
	})
	if err != nil {
		return nil, err
	}
	w.runUntil(opts.WarmUp + duration)
	gen.Stop()
	w.runUntil(opts.WarmUp + duration + 30*time.Second)
	return gen.Recorder(), w.settle(gen)
}
