package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"l3/internal/clock"
	"l3/internal/cluster"
	"l3/internal/core"
	"l3/internal/guard"
	"l3/internal/histogram"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/smi"
	"l3/internal/timeseries"
)

const (
	fleetInterval = 5 * time.Second
	fleetClusters = 3
	fleetSource   = "l3serve"
	fleetScale    = 1000
)

// fleetBackend is one upstream as the control plane sees it: the metric
// series a proxy would export for it, driven by the benchmark.
type fleetBackend struct {
	name, service string
	mean          float64 // injected mean latency, seconds
	ok            *metrics.Counter
	okLatency     *metrics.Histogram
	inflight      *metrics.Gauge
}

// fleetWorld is the control plane alone at fleet scale: no request ever
// flows. Each round the benchmark moves every backend's series forward
// (untimed), then runs what internal/serve's control loop runs each
// interval — text exposition, parse, gated TSDB append, one reconcile of
// every TrafficSplit — on a simulation engine so that the "5 seconds"
// between rounds cost nothing. The wiring follows serve/control.go:
// hygiene gate on the database, guarded L3 assigners, write gate, watchdog,
// a store watch that copies each written split's weights as the router
// rebuild does.
type fleetWorld struct {
	services, rounds int
	tr               *tracer
	ss               *spanStack

	engine     *sim.Engine
	rng        *sim.Rand
	dataReg    *metrics.Registry
	ctrlReg    *metrics.Registry
	db         *timeseries.DB
	gate       *guard.WriteGate
	admitted   *countedGate
	splits     *smi.Store
	controller *core.Controller
	backends   []fleetBackend

	round       int
	text        bytes.Buffer
	exposeBytes int
	samples     []metrics.Sample
	writes      uint64 // split updates seen by the watch
	weights     map[string]int64

	shortRounds []string // timed rounds that wrote fewer splits than expected
}

func newFleet(services, warmRounds int, seed uint64, tr *tracer) (*fleetWorld, error) {
	w := &fleetWorld{
		services: services,
		tr:       tr,
		engine:   sim.NewEngine(),
		rng:      sim.NewRand(seed),
		dataReg:  metrics.NewRegistry(),
		ctrlReg:  metrics.NewRegistry(),
		splits:   smi.NewStore(),
		weights:  make(map[string]int64),
	}
	window := 2 * fleetInterval
	w.db = timeseries.NewDB(2 * window)
	hyg := guard.NewHygiene(guard.Config{}, w.ctrlReg)
	w.gate = guard.NewWriteGate(guard.Config{}, w.ctrlReg)
	var gateSeam timeseries.Gate = hyg
	var writeGuard core.WriteGuard = w.gate
	var ctrlClock clock.Clock = clock.Sim(w.engine)
	if tr != nil {
		w.ss = &spanStack{tr: tr}
		w.admitted = &countedGate{inner: hyg}
		gateSeam = w.admitted
		writeGuard = tracedGuard{inner: w.gate, ss: w.ss}
		ctrlClock = tracedClock{inner: ctrlClock, ss: w.ss, name: "core.reconcile"}
	}
	w.db.SetGate(gateSeam)

	// Within a service the three clusters differ in mean latency by a wide
	// margin, in an order the seed picks — the ranking the final weights
	// must invert.
	factors := []float64{1, 2.5, 6}
	for s := 0; s < services; s++ {
		service := fmt.Sprintf("svc-%02d", s)
		base := 0.010 + 0.020*w.rng.Float64()
		perm := []int{0, 1, 2}
		for i := len(perm) - 1; i > 0; i-- {
			j := w.rng.IntN(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		ts := &smi.TrafficSplit{Name: service, RootService: service}
		for c := 0; c < fleetClusters; c++ {
			name := fmt.Sprintf("%s-cluster-%d", service, c+1)
			labels := metrics.Labels{"service": service, "backend": name, "src": fleetSource}
			okL := labels.With("classification", mesh.ClassSuccess)
			failL := labels.With("classification", mesh.ClassFailure)
			// The failure series exist at zero, as a proxy registers them.
			w.dataReg.Counter(mesh.MetricResponseTotal, failL)
			w.dataReg.Histogram(mesh.MetricResponseLatency, failL, histogram.LinkerdLatencyBounds)
			w.backends = append(w.backends, fleetBackend{
				name: name, service: service, mean: base * factors[perm[c]],
				ok:        w.dataReg.Counter(mesh.MetricResponseTotal, okL),
				okLatency: w.dataReg.Histogram(mesh.MetricResponseLatency, okL, histogram.LinkerdLatencyBounds),
				inflight:  w.dataReg.Gauge(mesh.MetricInflight, labels),
			})
			ts.Backends = append(ts.Backends, smi.Backend{Service: name, Weight: 1})
		}
		if err := w.splits.Create(ts); err != nil {
			return nil, fmt.Errorf("control_fleet: %w", err)
		}
	}

	collector := &core.Collector{DB: w.db, Window: window, Percentile: 0.99, Resets: hyg}
	wcfg := core.WeightingConfig{
		LatencyHalfLife: fleetInterval, InflightHalfLife: fleetInterval,
		SuccessHalfLife: 2 * fleetInterval, RPSHalfLife: 2 * fleetInterval,
	}
	rcfg := core.RateControlConfig{RPSHalfLife: 2 * fleetInterval}
	w.controller = core.NewControllerClock(ctrlClock, w.splits, collector, core.ControllerConfig{
		Interval: fleetInterval,
		NewAssigner: func() core.Assigner {
			var a core.Assigner = guard.NewAssigner(core.NewL3Assigner(wcfg, rcfg, true), guard.Config{}, w.ctrlReg)
			if tr != nil {
				a = tracedAssigner{inner: a, ss: w.ss}
			}
			return a
		},
		SelfRegistry: w.ctrlReg,
		WriteGuard:   writeGuard,
	})
	w.controller.Start()
	guard.NewWatchdog(w.engine, w.splits, guard.Config{}, w.ctrlReg, nil, w.gate).Start()
	// Registered after the controller's own watch, so it runs last and a
	// split write's smi.update span covers the whole fan-out.
	w.splits.Watch(false, func(e cluster.Event[*smi.TrafficSplit]) {
		if e.Type != cluster.Updated {
			return
		}
		for _, b := range e.Object.Backends {
			w.weights[b.Service] = b.Weight
		}
		w.writes++
		if w.ss != nil && w.ss.topIs("smi.update") {
			w.ss.pop()
		}
	})

	for i := 0; i < warmRounds; i++ {
		if _, err := w.runRound(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// advance moves every backend's series forward by one interval of traffic.
func (w *fleetWorld) advance() {
	for i := range w.backends {
		b := &w.backends[i]
		n := 150 + w.rng.IntN(100)
		for k := 0; k < n; k++ {
			b.okLatency.Observe(b.mean * (0.5 + w.rng.Float64()))
		}
		b.ok.Add(float64(n))
		// In flight by Little's law, so that queue depth agrees with the
		// latency ranking the weights are checked against.
		b.inflight.Set(float64(n) / fleetInterval.Seconds() * b.mean)
	}
}

// runRound runs one control round and returns its timed part's wall time.
func (w *fleetWorld) runRound() (time.Duration, error) {
	w.round++
	tick := time.Duration(w.round) * fleetInterval
	scrapeAt := tick - fleetInterval/2
	w.advance()
	w.engine.RunUntil(scrapeAt)
	writes, suppressed := w.writes, w.gate.SuppressedTotal()

	start := time.Now()
	if w.ss != nil {
		w.ss.op = uint64(w.round)
		w.ss.push("round")
		w.ss.push("metrics.expose")
	}
	w.text.Reset()
	if err := w.dataReg.WritePrometheus(&w.text); err != nil {
		return 0, fmt.Errorf("control_fleet: exposition: %w", err)
	}
	if err := w.ctrlReg.WritePrometheus(&w.text); err != nil {
		return 0, fmt.Errorf("control_fleet: exposition: %w", err)
	}
	w.exposeBytes = w.text.Len()
	if w.ss != nil {
		w.ss.pop()
		w.ss.push("metrics.parse")
	}
	samples, err := metrics.ParseExposition(bytes.NewReader(w.text.Bytes()))
	if err != nil {
		return 0, fmt.Errorf("control_fleet: %w", err)
	}
	w.samples = samples
	if w.ss != nil {
		w.ss.pop()
		w.ss.push("timeseries.append")
	}
	for _, s := range samples {
		w.db.AppendSample(s.Name, s.Labels, s.Kind, scrapeAt, s.Value)
	}
	if w.ss != nil {
		w.ss.pop()
	}
	w.engine.RunUntil(tick) // fires the reconcile
	if w.ss != nil {
		w.ss.popTo(0)
	}
	wall := time.Since(start)

	wrote := w.writes - writes
	held := uint64(w.gate.SuppressedTotal() - suppressed)
	if wrote+held != uint64(w.services) {
		w.shortRounds = append(w.shortRounds, fmt.Sprintf("round %d: %d split writes + %d suppressed no-ops, want %d", w.round, wrote, held, w.services))
	}
	return wall, nil
}

func (w *fleetWorld) measure() (ops, failed uint64, slices []slice, err error) {
	w.shortRounds = nil
	for i := 0; i < w.rounds; i++ {
		wall, err := w.runRound()
		if err != nil {
			return 0, 0, nil, err
		}
		slices = append(slices, slice{ops: 1, wall: wall, opMs: wall.Seconds() * 1e3})
	}
	return uint64(w.rounds), uint64(len(w.shortRounds)), slices, nil
}

func (w *fleetWorld) verify() []string {
	bad := append([]string(nil), w.shortRounds...)
	means := make(map[string]float64, len(w.backends))
	for _, b := range w.backends {
		means[b.name] = b.mean
	}
	for _, ts := range w.splits.List() {
		if err := ts.Validate(); err != nil {
			bad = append(bad, fmt.Sprintf("split %s: %v", ts.Name, err))
		}
		if err := ts.CheckScaledSum(fleetScale); err != nil {
			bad = append(bad, fmt.Sprintf("split %s: %v", ts.Name, err))
		}
		bs := append([]smi.Backend(nil), ts.Backends...)
		sort.Slice(bs, func(i, j int) bool { return means[bs[i].Service] < means[bs[j].Service] })
		for i := 1; i < len(bs); i++ {
			if bs[i].Weight >= bs[i-1].Weight {
				bad = append(bad, fmt.Sprintf("split %s: %s (mean %.0f ms) has weight %d, not below %s (mean %.0f ms) at %d",
					ts.Name, bs[i].Service, 1e3*means[bs[i].Service], bs[i].Weight,
					bs[i-1].Service, 1e3*means[bs[i-1].Service], bs[i-1].Weight))
			}
		}
	}
	return bad
}

func (w *fleetWorld) fingerprint() string {
	names := make([]string, 0, len(w.weights))
	for n := range w.weights {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d ", n, w.weights[n])
	}
	return b.String()
}

func (w *fleetWorld) close() error {
	w.controller.Stop()
	return nil
}

// steadyRoundMs is what the scaling rig compares across fleet sizes.
func (w *fleetWorld) steadyRoundMs(rounds int) (float64, error) {
	ms := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		wall, err := w.runRound()
		if err != nil {
			return 0, err
		}
		ms = append(ms, wall.Seconds()*1e3)
	}
	return bestTenth(ms, true), nil
}

func (w *fleetWorld) layers(sec section, micro map[string]float64) (map[string]float64, []string, error) {
	if w.tr == nil {
		return nil, nil, fmt.Errorf("control_fleet: layers on an untraced world")
	}
	tot := totalsByName(w.tr.snapshot())
	round := tot["round"]
	if round.Count == 0 {
		return nil, nil, fmt.Errorf("control_fleet: traced run recorded no rounds")
	}
	rounds := float64(round.Count)
	wall := float64(round.Total)
	perRoundUs := func(name string) float64 { return float64(tot[name].Total) / rounds / 1e3 }
	perCallUs := func(name string) float64 {
		if tot[name].Count == 0 {
			return 0
		}
		return float64(tot[name].Total) / float64(tot[name].Count) / 1e3
	}
	attempts := float64(tot["guard.gate"].Count)
	out := map[string]float64{
		"sim.events_per_op":      float64(w.engine.Fired()) / float64(w.round),
		"metrics.expose_us":      perRoundUs("metrics.expose"),
		"metrics.expose_bytes":   float64(w.exposeBytes),
		"metrics.parse_us":       perRoundUs("metrics.parse"),
		"core.scrape_us":         perRoundUs("metrics.expose") + perRoundUs("metrics.parse") + perRoundUs("timeseries.append"),
		"core.reconcile_us":      perRoundUs("core.reconcile"),
		"core.collect_us":        float64(tot["core.reconcile"].Own) / rounds / 1e3,
		"core.assign_us":         perRoundUs("core.assign"),
		"core.updates_per_round": float64(tot["smi.update"].Count) / rounds,
		"core.reconcile_share":   float64(tot["core.reconcile"].Total) / wall,
		"guard.gate_us":          perCallUs("guard.gate"),
		"smi.update_us":          perCallUs("smi.update"),
	}
	if attempts > 0 {
		out["guard.suppressed_ratio"] = float64(tot["smi.update"].Count) / attempts
	}
	if w.admitted.samples > 0 {
		out["timeseries.append_us"] = float64(tot["timeseries.append"].Total) / float64(w.admitted.samples) / 1e3
	}

	// The scaling exponent: the same world at 8 services (24 backends)
	// against this one, both by their best rounds.
	small, err := newFleet(8, 4, 1, nil)
	if err != nil {
		return nil, nil, err
	}
	smallMs, err := small.steadyRoundMs(8)
	if cerr := small.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	if w.services > 8 && smallMs > 0 {
		out["core.round_scaling_exp"] = math.Log(steadyOpMs(sec.slices)/smallMs) / math.Log(float64(w.services)/8)
	}

	regOut, _, err := registryRig(w.dataReg, 3)
	if err != nil {
		return nil, nil, err
	}
	out["metrics.snapshot_us"] = regOut["metrics.snapshot_us"]
	names := make([]string, len(w.backends))
	for i, b := range w.backends {
		names[i] = b.name
	}
	at := time.Duration(w.round) * fleetInterval
	for k, v := range tsdbRig(w.db, nil, at, 2*fleetInterval, metrics.Labels{}, names, 100) {
		out[k] = v
	}

	stages := float64(tot["metrics.expose"].Total + tot["metrics.parse"].Total + tot["timeseries.append"].Total + tot["core.reconcile"].Total)
	out["ledger.unattributed_share"] = (wall - stages) / wall
	share := func(ns int64) string { return fmt.Sprintf("%5.1f %%", 100*float64(ns)/wall) }
	lines := []string{
		fmt.Sprintf("ledger for control_fleet: %d rounds, %d backends, %d series, %d samples through the gate",
			round.Count, len(w.backends), w.db.SeriesCount(), w.admitted.samples),
		"  metrics    text exposition        " + share(tot["metrics.expose"].Total),
		"  metrics    parse                  " + share(tot["metrics.parse"].Total),
		"  timeseries gated append           " + share(tot["timeseries.append"].Total),
		"  core       reconcile tick         " + share(tot["core.reconcile"].Total) + "  of which",
		"  core         collector (self)     " + share(tot["core.reconcile"].Own) + "  reconcile minus its children",
		"  core         guarded assigner     " + share(tot["core.assign"].Total),
		"  guard        write gate           " + share(tot["guard.gate"].Total),
		"  smi          update + watch       " + share(tot["smi.update"].Total),
		"  (rest)     unattributed           " + share(int64(wall-stages)) + "  round minus its four stages",
	}
	return out, lines, nil
}

// newControlFleet is the control plane at fleet scale: 34 services in
// three clusters.
func newControlFleet(p params, tr *tracer) (world, error) {
	services, warm, rounds := 34, 4, p.scaled(48, 8)
	if p.small {
		services, rounds = 4, 6
	}
	w, err := newFleet(services, warm, p.seed, tr)
	if err != nil {
		return nil, err
	}
	w.rounds = rounds
	return w, nil
}
