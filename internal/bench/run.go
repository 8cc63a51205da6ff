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
	// Autoscale attaches a horizontal autoscaler to every backend, its
	// pool bounded by the backend's concurrency and 16 times it — the
	// mechanism §3.2's rate controller is designed to buy time for.
	Autoscale bool
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
	// ScrapeInterval is the metrics pipeline's scrape period (default
	// 5 s). The reconcile period, the collector's query window (2×) and the
	// guard's thresholds follow it.
	ScrapeInterval time.Duration
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

// RunScenario replays a trace scenario under one algorithm and returns the
// merged recorder across repetitions. The setup mirrors §5.1's second
// testbed: an HTTP/2 REST API deployed in all three clusters whose response
// delay and failure rate follow the scenario's per-cluster series, a
// constant-throughput generator in cluster-1 offering the scenario's RPS,
// and (for L3/C3) the controller pipeline — scraper, TSDB, collector,
// assigner — updating one TrafficSplit every 5 s.
func RunScenario(scenarioName string, algo Algorithm, opts Options) (*loadgen.Recorder, error) {
	return recorderOf(cell{scenario: scenarioName, algo: algo, opts: opts})
}

// mergeRecorders folds recorders into one, in index order — the
// deterministic reduction behind every parallel fan-out here. A lone
// recorder is handed back itself: every bench recorder is 1 s wide, so the
// merge would copy it bucket for bucket, and nothing writes a run's
// recorder once the run is over.
func mergeRecorders(recs []*loadgen.Recorder) *loadgen.Recorder {
	if len(recs) == 1 {
		return recs[0]
	}
	merged := loadgen.NewRecorder()
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

// runTrace runs one scenario replay: the API service in every cluster of
// the trace, one TrafficSplit, the algorithm's wiring, chaos and the client
// layers, on whichever engine newWorld picked. Every call is fully
// self-contained — own engines, RNG, WAN model and metrics registries —
// which is what makes the sweep's fan-out safe and deterministic. opts must
// already carry its defaults.
func runTrace(sc *trace.Scenario, algo Algorithm, opts Options, seed uint64) (*record, error) {
	if opts.Overload == nil && len(opts.OverloadTierMix) > 0 {
		return nil, fmt.Errorf("bench: OverloadTierMix requires Overload")
	}
	defer func(start time.Time) { recordRun(time.Since(start)) }(time.Now())
	w, err := newWorld(sc.ClusterNames(), seed, wan.DefaultConfig(), opts)
	if err != nil {
		return nil, err
	}
	m := w.mesh

	if _, err := m.AddService(apiService); err != nil {
		return nil, err
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
			return nil, err
		}
		replica, isReplica := b.Server.(*backend.Replica)
		if isReplica {
			injectors[name] = replica
		}
		if opts.Autoscale {
			if !isReplica {
				return nil, fmt.Errorf("bench: backend %s is not a replica pool", name)
			}
			eng, err := m.EngineFor(ct.Cluster)
			if err != nil {
				return nil, err
			}
			autoscale.New(eng, replica, autoscale.Config{Min: conc, Max: 16 * conc}).Start()
		}
		backends = append(backends, smi.Backend{Service: name, Weight: 500})
	}
	if err := m.Splits().Create(&smi.TrafficSplit{
		Name: apiService, RootService: apiService, Backends: backends,
	}); err != nil {
		return nil, err
	}

	handles, err := installAlgorithm(w, algo, opts, []string{apiService}, nil, globalController())
	if err != nil {
		return nil, err
	}

	out := &record{totals: make(map[string]float64)}
	if len(opts.OverloadTierMix) > 0 {
		for tier := range out.tiers {
			out.tiers[tier] = loadgen.NewRecorder()
		}
	}
	var updates []time.Duration
	var snaps []chaos.WeightSnapshot
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
			updates = append(updates, w.ctrl.Now())
			snaps = append(snaps, chaos.WeightSnapshot{At: w.ctrl.Now(), Weights: weights})
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
			return nil, err
		}
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
			return nil, err
		}
		if err := resClient.Apply(apiService, *opts.Resilience); err != nil {
			return nil, err
		}
	}
	var ovClient *overload.Client
	if opts.Overload != nil {
		// The admission layer forks no rng of its own (its control laws are
		// deterministic functions of observed RTTs), so enabling it leaves
		// the fork order — and every overload-off figure — untouched.
		ovClient, err = overload.NewClient(m, sourceCluster)
		if err != nil {
			return nil, err
		}
		if resClient != nil {
			ovClient.SetInner(resClient)
		}
		if err := ovClient.Apply(apiService, *opts.Overload); err != nil {
			return nil, err
		}
	}

	proxy, err := m.Proxy(sourceCluster)
	if err != nil {
		return nil, err
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
			r.tierRec, r.start = out.tiers[tier], srcEngine.Now()
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

	// The end-of-run reduction: one snapshot of the scrape set, every
	// counter family summed by name in sample order.
	counts := make(map[[2]string]float64)
	buf, busy := w.scan(nil, func(sample metrics.Sample) {
		switch sample.Name {
		case mesh.MetricResponseTotal:
			src := sample.Labels["src"]
			dst := strings.TrimPrefix(sample.Labels["backend"], apiService+"-")
			counts[[2]string{src, dst}] += sample.Value
		case overload.MetricShedTotal:
			for tier := range out.shed {
				if sample.Labels["tier"] == overload.TierName(tier) {
					out.shed[tier] += sample.Value
				}
			}
		}
		if sample.Kind == metrics.KindCounter {
			out.totals[sample.Name] += sample.Value
		}
	})
	if ovClient != nil {
		if st, ok := ovClient.Stats(apiService); ok {
			out.limit, out.admitMax, out.maxSojourn = st.TotalLimit, st.AdmitMax, st.MaxSojourn
		}
	}
	out.rec = gen.Recorder()
	out.reps = []repRun{{rec: out.rec, counts: counts, updates: updates, snaps: snaps, duration: duration}}
	pool.closed = true
	// Attempt conservation: stragglers aside, every request_inflight gauge
	// must return to zero, read again through the same buffer only once the
	// world has moved on from the reduction's snapshot.
	scanned := w.ctrl.Now()
	return out, w.settle(func() bool {
		if now := w.ctrl.Now(); now != scanned {
			buf, busy = w.scan(buf, nil)
			scanned = now
		}
		return !busy
	}, gen)
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
		// pickers read its healthy-set through a balancer.Filter,
		// which is safe during windows because ejection state only changes
		// at barriers.
		checker := health.NewChecker(w.ctrl, hcfg)
		handles.checker = checker
		healthy := func(_ time.Duration, name string) bool { return checker.Healthy(name) }
		for _, svc := range services {
			s, ok := m.Service(svc)
			if !ok {
				return nil, fmt.Errorf("bench: unknown service %q", svc)
			}
			checker.WatchAll(s.Backends())
			if err := w.setPickers(svc, nil, func(*sim.Rand) mesh.Picker {
				return balancer.NewFilter(healthy, balancer.NewRoundRobin(), nil)
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
		gcfg := guard.Config{Interval: opts.ScrapeInterval}
		if opts.Guard {
			hyg = guard.NewHygiene(gcfg, w.ctrlReg)
			db.SetGate(hyg)
			gate = guard.NewWriteGate(gcfg, w.ctrlReg)
		}
		scraper := core.NewScraperClock(w.ctrl, db, w.scrape, opts.ScrapeInterval)
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
					assigner = cost.NewAssigner(assigner, sourceCluster, func(b string) string {
						return strings.TrimPrefix(b, apiService+"-")
					}, opts.CostLambda)
				}
			}
			if opts.Guard {
				assigner = guard.NewAssigner(assigner, gcfg, w.ctrlReg)
			}
			return assigner
		}
		handles.leaders = make(map[string]chaos.Leader)
		for si, spec := range controllers {
			newController := func(elector *cluster.Elector) *core.Controller {
				collector := &core.Collector{
					DB: db, Window: 2 * opts.ScrapeInterval, Percentile: opts.Percentile,
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
				return core.NewControllerClock(w.ctrl, m.Splits(), collector, cfg)
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
				elector := cluster.NewElector(w.ctrl, lock, id)
				ctrl := newController(elector)
				ctrl.Start()
				handles.leaders[id] = leaderHandle{ctrl: ctrl, elector: elector}
			}
		}
		if gate != nil {
			guard.NewWatchdog(w.ctrl, m.Splits(), gcfg, w.ctrlReg, nil, gate).Start()
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
	return recorderOf(cell{dsb: &dsbLoad{rps: rps, duration: duration}, algo: algo, opts: opts})
}

// runDSBOnce runs one repetition of the DSB workload. It takes no
// end-of-run snapshot: the application's thousands of series would cost the
// run more than its requests do, so its record carries no counters.
func runDSBOnce(algo Algorithm, load dsbLoad, opts Options, seed uint64) (*record, error) {
	if opts.Shards > 0 {
		return nil, fmt.Errorf("bench: the DSB workload (cross-service call graph) requires the classic single-timeline engine; run without sharding (-shards 0)")
	}
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
		Rate:   loadgen.ConstantRate(load.rps),
		WarmUp: opts.WarmUp,
	})
	if err != nil {
		return nil, err
	}
	w.runUntil(opts.WarmUp + load.duration)
	gen.Stop()
	w.runUntil(opts.WarmUp + load.duration + 30*time.Second)
	rec := gen.Recorder()
	return &record{rec: rec, reps: []repRun{{rec: rec, duration: load.duration}}}, w.settle(nil, gen)
}
