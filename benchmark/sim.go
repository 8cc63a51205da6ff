package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"l3/internal/backend"
	"l3/internal/balancer"
	"l3/internal/bench"
	"l3/internal/c3"
	"l3/internal/clock"
	"l3/internal/core"
	"l3/internal/dsb"
	"l3/internal/loadgen"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/smi"
	"l3/internal/timeseries"
	"l3/internal/trace"
	"l3/internal/wan"
)

// simSpec is one simulated run: a trace scenario under an algorithm, or
// (scenario "") the hotel-reservation call graph at a constant rate.
type simSpec struct {
	scenario         string
	algo             bench.Algorithm
	rps              float64 // DSB only
	warmUp, duration time.Duration
}

func (s simSpec) String() string {
	if s.scenario == "" {
		return fmt.Sprintf("dsb/%v", s.algo)
	}
	return fmt.Sprintf("%s/%v", s.scenario, s.algo)
}

// simCell is what one simulated run lets a client see.
type simCell struct {
	count   uint64
	success float64
	p99     time.Duration
}

func cellOf(rec *loadgen.Recorder) simCell {
	return simCell{count: rec.Count(), success: rec.SuccessRate(), p99: rec.Quantile(0.99)}
}

// simWorld runs batches of simulated runs. Each batch is the same list of
// specs on the batch's own seed, so batches are equal work and their wall
// times are comparable samples.
type simWorld struct {
	name    string
	specs   []simSpec // one batch
	warm    []simSpec // the set-up pass
	batches int
	seed    uint64
	checkL3 bool // full-length scenarios: L3 must beat round-robin at P99
	probe   *simProbe

	warmOut []simCell
	out     [][]simCell
}

// batchSeed is batch i's seed. The set-up pass runs on batch 0's seed so
// its outputs can be compared with batch 0's.
func (w *simWorld) batchSeed(i int) uint64 { return bench.DeriveSeed(w.seed, i) }

func (w *simWorld) run(s simSpec, seed uint64) (simCell, error) {
	if w.probe != nil {
		return w.probe.run(s, seed)
	}
	// Parallel 1 and Shards 0: one goroutine on the classic engine, so a
	// batch's wall time is the simulator's own speed and not the host's
	// second core.
	opts := bench.Options{Seed: seed, Parallel: 1, Shards: 0, WarmUp: s.warmUp, Duration: s.duration}
	var rec *loadgen.Recorder
	var err error
	if s.scenario == "" {
		rec, err = bench.RunDSB(s.algo, s.rps, s.duration, opts)
	} else {
		rec, err = bench.RunScenario(s.scenario, s.algo, opts)
	}
	if err != nil {
		return simCell{}, fmt.Errorf("%v: %w", s, err)
	}
	return cellOf(rec), nil
}

// runAll runs specs in order on one seed. With slices set it appends one
// slice per run.
func (w *simWorld) runAll(specs []simSpec, seed uint64, slices *[]slice) ([]simCell, error) {
	out := make([]simCell, len(specs))
	for i, s := range specs {
		start := time.Now()
		c, err := w.run(s, seed)
		wall := time.Since(start)
		if err != nil {
			return nil, err
		}
		if c.count == 0 {
			return nil, fmt.Errorf("%s: %v completed no requests", w.name, s)
		}
		out[i] = c
		if slices != nil {
			*slices = append(*slices, slice{kind: i, ops: c.count, wall: wall, opMs: wall.Seconds() * 1e3 / float64(c.count)})
		}
	}
	return out, nil
}

func (w *simWorld) setUp() error {
	out, err := w.runAll(w.warm, w.batchSeed(0), nil)
	w.warmOut = out
	return err
}

func (w *simWorld) measure() (ops, failed uint64, slices []slice, err error) {
	for b := 0; b < w.batches; b++ {
		cells, err := w.runAll(w.specs, w.batchSeed(b), &slices)
		if err != nil {
			return 0, 0, nil, err
		}
		for _, c := range cells {
			ops += c.count
			failed += uint64(math.Round(float64(c.count) * (1 - c.success)))
		}
		w.out = append(w.out, cells)
	}
	return ops, failed, slices, nil
}

func (w *simWorld) verify() []string {
	var bad []string
	for b, cells := range w.out {
		p99 := make(map[string]map[bench.Algorithm]time.Duration)
		for i, c := range cells {
			s := w.specs[i]
			if c.success < 0.999 {
				bad = append(bad, fmt.Sprintf("batch %d %v: success %.5f < 0.999", b, s, c.success))
			}
			if s.scenario == "" {
				want := s.rps * s.duration.Seconds()
				if math.Abs(float64(c.count)-want) > 1 {
					bad = append(bad, fmt.Sprintf("batch %d %v: %d requests, want rate x duration = %.0f", b, s, c.count, want))
				}
				continue
			}
			if p99[s.scenario] == nil {
				p99[s.scenario] = make(map[bench.Algorithm]time.Duration)
			}
			p99[s.scenario][s.algo] = c.p99
		}
		if !w.checkL3 {
			continue
		}
		// L3 must never lose to round-robin at P99 and must win outright on
		// at least four of the five scenarios: on the calmest scenario the
		// two sit one histogram bucket apart (0.98 at worst over 160 seeds),
		// so a tie there is within the recorder's resolution.
		wins := 0
		for sc, by := range p99 {
			l3, rr := by[bench.AlgoL3], by[bench.AlgoRoundRobin]
			if l3 > rr {
				bad = append(bad, fmt.Sprintf("batch %d %s: P99 under L3 %v is above round-robin's %v", b, sc, l3, rr))
			}
			if l3 < rr {
				wins++
			}
		}
		if wins < len(p99)-1 {
			bad = append(bad, fmt.Sprintf("batch %d: L3 beat round-robin at P99 on %d of %d scenarios", b, wins, len(p99)))
		}
	}
	// The set-up pass ran on batch 0's seed: wherever it ran the same spec,
	// the simulator must have produced the same outputs again.
	for i, ws := range w.warm {
		for j, s := range w.specs {
			if ws == s && len(w.out) > 0 && w.warmOut[i] != w.out[0][j] {
				bad = append(bad, fmt.Sprintf("%v: same seed gave %+v in set-up and %+v in batch 0", s, w.warmOut[i], w.out[0][j]))
			}
		}
	}
	return bad
}

func (w *simWorld) fingerprint() string { return fmt.Sprint(w.warmOut) }

func (w *simWorld) close() error { return nil }

var gridAlgos = []bench.Algorithm{bench.AlgoRoundRobin, bench.AlgoC3, bench.AlgoL3}

// newSimTrace is Figure 10's grid: five trace scenarios under round-robin,
// C3 and L3, full ten-minute scenarios at the paper's request rates.
func newSimTrace(p params, tr *tracer) (world, error) {
	scenarios := []string{trace.Scenario1, trace.Scenario2, trace.Scenario3, trace.Scenario4, trace.Scenario5}
	w := &simWorld{name: "sim_trace", seed: p.seed, batches: p.scaled(6, 2), checkL3: !p.small}
	var spec simSpec
	if p.small {
		// The smoke test keeps the shape (every scenario, every algorithm)
		// and cuts simulated time.
		spec.warmUp, spec.duration = 2*time.Second, 10*time.Second
		w.batches = 2
	}
	for _, sc := range scenarios {
		for _, a := range gridAlgos {
			s := spec
			s.scenario, s.algo = sc, a
			w.specs = append(w.specs, s)
		}
	}
	// Set-up is the first two scenarios of the grid: enough work to fill
	// the engine's event pool and the runtime's heap to their steady sizes,
	// and about a second of it on the reference host.
	w.warm = w.specs[:2*len(gridAlgos)]
	if tr != nil {
		w.probe = newSimProbe(tr)
	}
	return w, w.setUp()
}

// newSimDSB is Figure 9: the hotel-reservation call graph under L3.
func newSimDSB(p params, tr *tracer) (world, error) {
	// Eight short runs in place of Figure 9's one long one: 20 measured
	// seconds after the default 30 of warm-up, so that a run is a slice of
	// about two seconds and a section has eight of them to compare.
	w := &simWorld{name: "sim_dsb", seed: p.seed, batches: p.scaled(8, 2)}
	run := simSpec{algo: bench.AlgoL3, rps: 200, duration: 20 * time.Second}
	// Set-up is the same world on a shorter clock: 60 simulated seconds in
	// place of 80, a second of work on the reference host.
	warm := run
	warm.warmUp = 10 * time.Second
	if p.small {
		run.warmUp, run.duration = time.Second, time.Second
		warm = run
		w.batches = 2
	}
	w.specs, w.warm = []simSpec{run}, []simSpec{warm}
	if tr != nil {
		w.probe = newSimProbe(tr)
	}
	return w, w.setUp()
}

// simProbe is the traced stand-in for bench.RunScenario and bench.RunDSB.
// Those build their world inside internal/bench and hand back only a
// recorder, so the traced run builds the same world here from the same
// public constructors in the same order (rng forks included — the outputs
// must equal the untraced run's, and the harness checks that they do), with
// the scraper and the controllers on a tracedClock and the assigners
// wrapped.
type simProbe struct {
	tr *tracer
	ss *spanStack

	cells, issued, fired, calls uint64
	splitCalls                  uint64 // calls routed by the TrafficSplit-weighted picker
	updates                     uint64

	// The last cell's control-plane state, kept for the layer rigs.
	reg      *metrics.Registry
	db       *timeseries.DB
	now      time.Duration
	window   time.Duration
	backends []string
	match    metrics.Labels
}

func newSimProbe(tr *tracer) *simProbe {
	return &simProbe{tr: tr, ss: &spanStack{tr: tr}}
}

const (
	simSource     = "cluster-1"
	simService    = "api"
	simScrape     = 5 * time.Second
	simDrain      = 30 * time.Second
	simWarmUp     = 30 * time.Second
	simPercentile = 0.99
)

func (p *simProbe) run(s simSpec, seed uint64) (simCell, error) {
	p.cells++
	p.ss.op = p.cells
	p.ss.push("sim.cell")
	defer p.ss.popTo(0)

	// bench.RunScenario and bench.RunDSB run repetition 0 on this seed.
	seed = bench.DeriveSeed(seed, 0)
	warm := s.warmUp
	if warm <= 0 {
		warm = simWarmUp
	}

	var sc *trace.Scenario
	if s.scenario != "" {
		p.ss.push("trace.generate")
		var err error
		sc, err = trace.Generate(s.scenario, seed)
		p.ss.pop()
		if err != nil {
			return simCell{}, err
		}
	}

	p.ss.push("world.build")
	engine := sim.NewEngine()
	rng := sim.NewRand(seed)
	wcfg := wan.DefaultConfig()
	wcfg.Seed = seed
	m := mesh.New(engine, rng.Fork(), wan.New(wcfg), metrics.NewRegistry())

	var controllers []*core.Controller
	var err error
	var entry string
	var rate loadgen.RateFunc
	duration := s.duration
	if sc != nil {
		entry = simService
		if duration <= 0 {
			duration = sc.Duration
		}
		rate = func(now time.Duration) float64 { return sc.RPS.At(now - warm) }
		controllers, err = p.buildScenario(m, engine, rng, sc, s.algo, warm)
	} else {
		entry = dsb.EntryService
		rate = loadgen.ConstantRate(s.rps)
		controllers, err = p.buildDSB(m, engine, rng, s.algo)
	}
	if err != nil {
		return simCell{}, err
	}
	gen := loadgen.New(engine, loadgen.Config{Rate: rate, WarmUp: warm},
		func(done func(time.Duration, bool)) error {
			return m.Call(simSource, entry, func(r mesh.Result) { done(r.Latency, r.Success) })
		})
	gen.Start()
	p.ss.pop()

	p.ss.push("engine.run")
	engine.RunUntil(warm + duration)
	gen.Stop()
	engine.RunUntil(warm + duration + simDrain)
	p.ss.pop()

	cell := cellOf(gen.Recorder())
	p.issued += gen.Issued()
	p.fired += engine.Fired()
	for _, c := range controllers {
		p.updates += c.Updates()
	}
	for _, sample := range m.Registry().Snapshot() {
		if sample.Name == mesh.MetricResponseTotal {
			p.calls += uint64(sample.Value)
			if s.algo != bench.AlgoRoundRobin {
				p.splitCalls += uint64(sample.Value)
			}
		}
	}
	p.reg, p.now = m.Registry(), engine.Now()
	return cell, nil
}

// buildScenario mirrors internal/bench's single-service testbed: one API
// service in three clusters whose latency follows the scenario's series,
// one global TrafficSplit, one controller in cluster-1.
func (p *simProbe) buildScenario(m *mesh.Mesh, engine *sim.Engine, rng *sim.Rand, sc *trace.Scenario, algo bench.Algorithm, warm time.Duration) ([]*core.Controller, error) {
	if _, err := m.AddService(simService); err != nil {
		return nil, err
	}
	var backends []smi.Backend
	p.backends = p.backends[:0]
	for i := range sc.Clusters {
		ct := &sc.Clusters[i]
		name := simService + "-" + ct.Cluster
		profile := func(now time.Duration, r *sim.Rand) (time.Duration, bool) {
			t := now - warm
			return ct.SampleLatency(t, r), ct.SampleSuccess(t, r)
		}
		if _, err := m.AddBackend(simService, name, ct.Cluster, backend.Config{Concurrency: 64}, profile); err != nil {
			return nil, err
		}
		backends = append(backends, smi.Backend{Service: name, Weight: 500})
		p.backends = append(p.backends, name)
	}
	if err := m.Splits().Create(&smi.TrafficSplit{Name: simService, RootService: simService, Backends: backends}); err != nil {
		return nil, err
	}
	p.match = metrics.Labels{"service": simService}
	return p.install(m, engine, rng, algo, []string{simService}, nil, []controllerScope{{}})
}

// buildDSB mirrors internal/bench's DeathStarBench testbed: the whole
// application in every cluster, per-source TrafficSplits, one controller
// per cluster reading its own cluster's proxy metrics.
func (p *simProbe) buildDSB(m *mesh.Mesh, engine *sim.Engine, rng *sim.Rand, algo bench.Algorithm) ([]*core.Controller, error) {
	clusters := []string{"cluster-1", "cluster-2", "cluster-3"}
	app, err := dsb.InstallHotelReservation(m, clusters, rng.Fork(), dsb.WithPerfVariation())
	if err != nil {
		return nil, err
	}
	if err := app.CreateSplits(); err != nil {
		return nil, err
	}
	scopes := make([]controllerScope, 0, len(clusters))
	for _, c := range clusters {
		scopes = append(scopes, controllerScope{
			match:  metrics.Labels{"src": c},
			filter: func(name string) bool { return strings.HasPrefix(name, c+"/") },
		})
	}
	p.backends = p.backends[:0]
	for _, c := range clusters {
		p.backends = append(p.backends, dsb.BackendName(dsb.EntryService, c))
	}
	p.match = metrics.Labels{"service": dsb.EntryService, "src": simSource}
	return p.install(m, engine, rng, algo, app.Services(), dsb.SplitName, scopes)
}

type controllerScope struct {
	match  metrics.Labels
	filter func(name string) bool
}

// install mirrors internal/bench's installAlgorithm for the three
// algorithms the benchmark runs, guard off (as the paper's figures run).
func (p *simProbe) install(m *mesh.Mesh, engine *sim.Engine, rng *sim.Rand, algo bench.Algorithm,
	services []string, splitName func(src, service string) string, scopes []controllerScope) ([]*core.Controller, error) {
	if algo == bench.AlgoRoundRobin {
		for _, svc := range services {
			if err := m.SetPicker(svc, balancer.NewRoundRobin()); err != nil {
				return nil, err
			}
		}
		p.db = nil
		return nil, nil
	}
	for _, svc := range services {
		if err := m.SetPicker(svc, balancer.NewWeightedSplit(m.Splits(), rng.Fork(), splitName)); err != nil {
			return nil, err
		}
	}
	db := timeseries.NewDB(time.Minute)
	p.db, p.window = db, 2*simScrape
	simClock := clock.Sim(engine)
	scrapeClock := tracedClock{inner: simClock, ss: p.ss, name: "core.scrape"}
	core.NewScraperClock(scrapeClock, db, []*metrics.Registry{m.Registry()}, simScrape).Start()

	newAssigner := func() core.Assigner {
		var a core.Assigner
		if algo == bench.AlgoC3 {
			a = c3.New(c3.Config{})
		} else {
			a = core.NewL3Assigner(core.WeightingConfig{Penalty: 600 * time.Millisecond}, core.RateControlConfig{}, true)
		}
		return tracedAssigner{inner: a, ss: p.ss}
	}
	reconcileClock := tracedClock{inner: simClock, ss: p.ss, name: "core.reconcile"}
	var controllers []*core.Controller
	for _, scope := range scopes {
		collector := &core.Collector{DB: db, Window: 2 * simScrape, Percentile: simPercentile, Match: scope.match}
		c := core.NewControllerClock(reconcileClock, m.Splits(), collector, core.ControllerConfig{
			Interval:    simScrape,
			NewAssigner: newAssigner,
			SplitFilter: scope.filter,
		})
		c.Start()
		controllers = append(controllers, c)
	}
	return controllers, nil
}

// layers builds the simulated workloads' ledger. The control plane's share
// is measured (spans on the scrape and reconcile ticks); the data plane's
// is what is left of the engine's run, of which the mesh rig explains a
// part and the rest is reported as unattributed.
func (w *simWorld) layers(sec section, micro map[string]float64) (map[string]float64, []string, error) {
	p := w.probe
	if p == nil {
		return nil, nil, fmt.Errorf("%s: layers on an untraced world", w.name)
	}
	tot := totalsByName(p.tr.snapshot())
	wall := float64(tot["sim.cell"].Total)
	rounds := float64(tot["core.scrape"].Count) // one scrape tick per control round
	if wall <= 0 || rounds == 0 || p.issued == 0 {
		return nil, nil, fmt.Errorf("%s: traced run recorded no work", w.name)
	}
	us := func(ns int64) float64 { return float64(ns) / rounds / 1e3 }
	out := map[string]float64{
		"sim.events_per_op":      float64(p.fired) / float64(p.issued),
		"dsb.calls_per_op":       float64(p.calls) / float64(p.issued),
		"core.scrape_us":         us(tot["core.scrape"].Total),
		"core.reconcile_us":      us(tot["core.reconcile"].Total),
		"core.assign_us":         us(tot["core.assign"].Total),
		"core.collect_us":        us(tot["core.reconcile"].Own),
		"core.updates_per_round": float64(p.updates) / rounds,
		"core.reconcile_share":   float64(tot["core.reconcile"].Total) / wall,
	}

	// Few repetitions where one pass is long (DSB's exposition is ~1 MB).
	reps := 20
	if p.db != nil && p.db.SeriesCount() > 1000 {
		reps = 3
	}
	regOut, samples, err := registryRig(p.reg, reps)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range regOut {
		out[k] = v
	}
	if p.db != nil {
		for k, v := range tsdbRig(p.db, samples, p.now, p.window, p.match, p.backends, 50*reps) {
			out[k] = v
		}
	}

	meshEst := float64(p.calls-p.splitCalls)*micro["mesh.call_ns"] + float64(p.splitCalls)*micro["mesh.call_split_ns"]
	genEst := float64(p.issued) * micro["loadgen.request_ns"]
	modelEst := 0.0
	if w.specs[0].scenario != "" {
		modelEst = float64(p.calls) * micro["trace.sample_ns"]
	}
	dataPlane := float64(tot["engine.run"].Own)
	unattributed := dataPlane - meshEst - genEst - modelEst
	out["ledger.unattributed_share"] = unattributed / wall
	share := func(ns float64) string { return fmt.Sprintf("%5.1f %%", 100*ns/wall) }
	lines := []string{
		fmt.Sprintf("ledger for %s: %d runs, %d requests issued, %d mesh calls, %d engine events, %.0f control rounds",
			w.name, p.cells, p.issued, p.calls, p.fired, rounds),
		"  trace      generate scenario      " + share(float64(tot["trace.generate"].Total)) + "  measured",
		"  bench      build world            " + share(float64(tot["world.build"].Total)) + "  measured",
		"  core       scrape ticks           " + share(float64(tot["core.scrape"].Total)) + "  measured (snapshot + TSDB append)",
		"  core       reconcile ticks        " + share(float64(tot["core.reconcile"].Total)) + "  measured, of which",
		"  core         collector + write    " + share(float64(tot["core.reconcile"].Own)) + "  reconcile minus assigner (TSDB queries dominate)",
		"  core         assigner             " + share(float64(tot["core.assign"].Total)) + "  measured",
		"  loadgen    arrivals x request_ns  " + share(genEst) + "  estimated from the rig",
		"  mesh       calls x mesh.call_ns   " + share(meshEst) + "  estimated from the rigs (round-robin and split-weighted picks apart)",
		"  trace      calls x sample_ns      " + share(modelEst) + "  estimated from the rig (trace scenarios' backend model)",
		"  (rest)     unattributed           " + share(unattributed) + "  engine run minus the lines above: deeper event heap and colder caches than the rigs', backend queues, call graph",
	}
	return out, lines, nil
}
