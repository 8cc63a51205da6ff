package core

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"l3/internal/backend"
	"l3/internal/balancer"
	"l3/internal/cluster"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/smi"
	"l3/internal/timeseries"
	"l3/internal/wan"
)

// testRig wires a 2-backend mesh, a scraper, a load loop and an L3
// controller together — the full Figure 5 pipeline in miniature.
type testRig struct {
	engine     *sim.Engine
	m          *mesh.Mesh
	db         *timeseries.DB
	controller *Controller
	selfReg    *metrics.Registry
	// latencies holds every completed request's latency, in completion
	// order; a test may truncate it to start a measurement window.
	latencies []time.Duration
}

func newRig(t *testing.T, elector *cluster.Elector, fastLat, slowLat time.Duration) *testRig {
	t.Helper()
	engine := sim.NewEngine()
	rng := sim.NewRand(42)
	m := mesh.New(engine, rng.Fork(), wan.New(wan.DefaultConfig()), metrics.NewRegistry())
	if _, err := m.AddService("api"); err != nil {
		t.Fatal(err)
	}
	mk := func(d time.Duration) backend.Profile {
		return func(time.Duration, *sim.Rand) (time.Duration, bool) { return d, true }
	}
	if _, err := m.AddBackend("api", "api-fast", "cluster-1", backend.Config{}, mk(fastLat)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddBackend("api", "api-slow", "cluster-2", backend.Config{}, mk(slowLat)); err != nil {
		t.Fatal(err)
	}
	if err := m.Splits().Create(&smi.TrafficSplit{
		Name: "api", RootService: "api",
		Backends: []smi.Backend{{Service: "api-fast", Weight: 500}, {Service: "api-slow", Weight: 500}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPicker("api", balancer.NewWeightedSplit(m.Splits(), rng.Fork(), nil)); err != nil {
		t.Fatal(err)
	}

	db := timeseries.NewDB(time.Minute)
	NewScraperClock(engine, db, []*metrics.Registry{m.Registry()}, 5*time.Second).Start()

	selfReg := metrics.NewRegistry()
	ctrl := NewControllerClock(engine, m.Splits(), &Collector{DB: db}, ControllerConfig{
		NewAssigner:  func() Assigner { return NewL3Assigner(WeightingConfig{}, RateControlConfig{}, true) },
		Elector:      elector,
		SelfRegistry: selfReg,
	})
	ctrl.Start()

	r := &testRig{engine: engine, m: m, db: db, controller: ctrl, selfReg: selfReg}
	// Open-loop load: 50 RPS from cluster-1.
	engine.Every(20*time.Millisecond, func() {
		_ = m.Call("cluster-1", "api", func(res mesh.Result) { r.latencies = append(r.latencies, res.Latency) })
	})
	return r
}

func (r *testRig) weights(t *testing.T) (fast, slow int64) {
	t.Helper()
	ts, ok := r.m.Splits().Get("api")
	if !ok {
		t.Fatal("split vanished")
	}
	for _, b := range ts.Backends {
		switch b.Service {
		case "api-fast":
			fast = b.Weight
		case "api-slow":
			slow = b.Weight
		}
	}
	return fast, slow
}

func TestControllerShiftsWeightToFastBackend(t *testing.T) {
	r := newRig(t, nil, 20*time.Millisecond, 400*time.Millisecond)
	r.engine.RunUntil(2 * time.Minute)

	fast, slow := r.weights(t)
	if fast <= slow {
		t.Fatalf("weights fast=%d slow=%d, want fast > slow", fast, slow)
	}
	if float64(fast)/float64(slow) < 3 {
		t.Fatalf("fast/slow = %d/%d, want a strong (≥3x) skew for a 20x latency gap", fast, slow)
	}
	if r.controller.Updates() == 0 {
		t.Fatal("controller performed no updates")
	}
}

// TestControllerSkewedFleetBeatsRoundRobin runs a 5 ms backend against a
// 1 s one. L3 must push the slow weight below a fifth of the fast one, and
// its p99 over the second minute must be at most a third of round-robin's
// over the same minute of the same rig.
func TestControllerSkewedFleetBeatsRoundRobin(t *testing.T) {
	run := func(l3 bool) (r *testRig, p99 time.Duration) {
		r = newRig(t, nil, 5*time.Millisecond, time.Second)
		if !l3 {
			r.controller.Stop()
			if err := r.m.SetPicker("api", balancer.NewRoundRobin()); err != nil {
				t.Fatal(err)
			}
		}
		r.engine.RunUntil(time.Minute)
		r.latencies = r.latencies[:0]
		r.engine.RunUntil(2 * time.Minute)
		lat := slices.Clone(r.latencies)
		slices.Sort(lat)
		return r, lat[(len(lat)*99+99)/100-1]
	}
	l3, l3P99 := run(true)
	_, rrP99 := run(false)

	fast, slow := l3.weights(t)
	if slow >= fast/5 {
		t.Errorf("weights fast=%d slow=%d, want slow < fast/5 for a 200x latency gap", fast, slow)
	}
	if l3P99 > rrP99/3 {
		t.Errorf("p99 l3 %v, rr %v: want l3 <= rr/3", l3P99, rrP99)
	}
	t.Logf("weights fast=%d slow=%d; p99 l3 %v, rr %v", fast, slow, l3P99, rrP99)
}

func TestControllerTracksSplitLifecycle(t *testing.T) {
	r := newRig(t, nil, 20*time.Millisecond, 40*time.Millisecond)
	r.engine.RunUntil(10 * time.Second)
	if got := r.controller.Tracked(); len(got) != 1 || got[0] != "api" {
		t.Fatalf("Tracked = %v", got)
	}
	if _, ok := r.controller.Assigner("api"); !ok {
		t.Fatal("assigner missing for tracked split")
	}
	if err := r.m.Splits().Delete("api"); err != nil {
		t.Fatal(err)
	}
	r.engine.RunUntil(20 * time.Second)
	if len(r.controller.Tracked()) != 0 {
		t.Fatal("deleted split still tracked")
	}
}

func TestControllerForgetsRemovedBackends(t *testing.T) {
	r := newRig(t, nil, 20*time.Millisecond, 40*time.Millisecond)
	r.engine.RunUntil(30 * time.Second)
	a, _ := r.controller.Assigner("api")
	l3 := a.(*L3Assigner)
	if _, ok := l3.Weighter().View("api-slow"); !ok {
		t.Fatal("api-slow has no state before removal")
	}
	stored, _ := r.m.Splits().Get("api")
	ts := stored.Clone()
	ts.Backends = ts.Backends[:1] // drop api-slow
	if err := r.m.Splits().Update(ts); err != nil {
		t.Fatal(err)
	}
	if _, ok := l3.Weighter().View("api-slow"); ok {
		t.Fatal("api-slow state not forgotten after removal from split")
	}
}

func TestControllerNonLeaderDoesNotWrite(t *testing.T) {
	engine := sim.NewEngine()
	lock := cluster.NewLeaseLock()
	// Another replica holds the lease forever.
	if !lock.TryAcquire("other", 0, time.Hour) {
		t.Fatal("setup: could not seed lease")
	}
	elector := cluster.NewElector(engine, lock, "standby")

	r := newRigWithEngine(t, engine, elector)
	r.engine.RunUntil(2 * time.Minute)
	fast, slow := r.weights(t)
	if fast != 500 || slow != 500 {
		t.Fatalf("standby wrote weights: fast=%d slow=%d", fast, slow)
	}
	if r.controller.Updates() != 0 {
		t.Fatalf("standby counted %d updates", r.controller.Updates())
	}
}

// newRigWithEngine is newRig with a caller-provided engine (so tests can
// pre-arrange elector state on the same virtual clock).
func newRigWithEngine(t *testing.T, engine *sim.Engine, elector *cluster.Elector) *testRig {
	t.Helper()
	rng := sim.NewRand(42)
	m := mesh.New(engine, rng.Fork(), wan.New(wan.DefaultConfig()), metrics.NewRegistry())
	_, _ = m.AddService("api")
	mk := func(d time.Duration) backend.Profile {
		return func(time.Duration, *sim.Rand) (time.Duration, bool) { return d, true }
	}
	_, _ = m.AddBackend("api", "api-fast", "cluster-1", backend.Config{}, mk(20*time.Millisecond))
	_, _ = m.AddBackend("api", "api-slow", "cluster-2", backend.Config{}, mk(400*time.Millisecond))
	_ = m.Splits().Create(&smi.TrafficSplit{
		Name: "api", RootService: "api",
		Backends: []smi.Backend{{Service: "api-fast", Weight: 500}, {Service: "api-slow", Weight: 500}},
	})
	_ = m.SetPicker("api", balancer.NewWeightedSplit(m.Splits(), rng.Fork(), nil))
	db := timeseries.NewDB(time.Minute)
	NewScraperClock(engine, db, []*metrics.Registry{m.Registry()}, 5*time.Second).Start()
	ctrl := NewControllerClock(engine, m.Splits(), &Collector{DB: db}, ControllerConfig{
		NewAssigner: func() Assigner { return NewL3Assigner(WeightingConfig{}, RateControlConfig{}, true) },
		Elector:     elector,
	})
	ctrl.Start()
	engine.Every(20*time.Millisecond, func() {
		_ = m.Call("cluster-1", "api", func(mesh.Result) {})
	})
	return &testRig{engine: engine, m: m, db: db, controller: ctrl}
}

func TestControllerLeaderFailover(t *testing.T) {
	engine := sim.NewEngine()
	lock := cluster.NewLeaseLock()
	leaderElector := cluster.NewElector(engine, lock, "leader")
	standbyElector := cluster.NewElector(engine, lock, "standby")

	// The "leader" elector campaigns but has no controller; the controller
	// under test runs as the standby.
	leaderElector.Run()
	r := newRigWithEngine(t, engine, standbyElector)
	r.engine.RunUntil(time.Minute)
	if r.controller.Updates() != 0 {
		t.Fatal("standby wrote while leader alive")
	}
	leaderElector.Stop() // resign
	r.engine.RunUntil(2 * time.Minute)
	if r.controller.Updates() == 0 {
		t.Fatal("standby never took over after leader resigned")
	}
	fast, slow := r.weights(t)
	if fast <= slow {
		t.Fatalf("post-failover weights fast=%d slow=%d", fast, slow)
	}
}

func TestControllerSelfMetricsExported(t *testing.T) {
	r := newRig(t, nil, 20*time.Millisecond, 400*time.Millisecond)
	r.engine.RunUntil(time.Minute)
	w := r.selfReg.Gauge(MetricWeight, metrics.Labels{"split": "api", "backend": "api-fast"})
	if w.Value() <= 0 {
		t.Fatalf("self weight gauge = %v", w.Value())
	}
	p99 := r.selfReg.Gauge(MetricFilteredP99, metrics.Labels{"split": "api", "backend": "api-slow"})
	if p99.Value() < 0.3 || p99.Value() > 1 {
		t.Fatalf("filtered P99 gauge = %v, want ~0.4s", p99.Value())
	}
	leader := r.selfReg.Gauge(MetricLeader, nil)
	if leader.Value() != 1 {
		t.Fatalf("leader gauge = %v, want 1 (no elector => always leader)", leader.Value())
	}
	updates := r.selfReg.Counter(MetricUpdatesTotal, metrics.Labels{"split": "api"})
	if updates.Value() == 0 {
		t.Fatal("updates counter not incremented")
	}
}

// The controller keeps the self-metric series it found; they must follow the
// split. A backend that leaves stops reading as live (its gauges drop to 0
// instead of holding their last value), one that comes back is written
// again, and a deleted split takes all of its gauges down with it.
// The collector's selector cache follows the split: a backend that leaves, a
// split that changes its root service and a split that is deleted take their
// entries with them. It only ever grew before — each entry now holds eight
// series lists.
func TestControllerBoundsCollectorSelectors(t *testing.T) {
	engine := sim.NewEngine()
	splits := smi.NewStore()
	slots := []smi.Backend{{Service: "b-0", Weight: 1}, {Service: "b-1", Weight: 1}, {Service: "b-2", Weight: 1}}
	if err := splits.Create(&smi.TrafficSplit{Name: "api", RootService: "api", Backends: slots}); err != nil {
		t.Fatal(err)
	}
	collector := &Collector{DB: timeseries.NewDB(time.Minute)}
	ctrl := NewControllerClock(engine, splits, collector, ControllerConfig{
		NewAssigner: func() Assigner { return NewL3Assigner(WeightingConfig{}, RateControlConfig{}, true) },
	})
	ctrl.Start()
	update := func(change func(ts *smi.TrafficSplit)) {
		t.Helper()
		stored, ok := splits.Get("api")
		if !ok {
			t.Fatal("split vanished")
		}
		ts := stored.Clone()
		change(ts)
		if err := splits.Update(ts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 3; i < 1000; i++ { // a new name takes over one of the three slots, every round
		update(func(ts *smi.TrafficSplit) { ts.Backends[i%3].Service = fmt.Sprintf("b-%d", i) })
		engine.RunUntil(engine.Now() + 5*time.Second)
		if n := len(collector.selectors); n != 3 {
			t.Fatalf("after %d backend names through 3 slots the collector caches %d backends' selectors, want 3", i+1, n)
		}
	}
	update(func(ts *smi.TrafficSplit) { ts.RootService = "api-v2" })
	engine.RunUntil(engine.Now() + 5*time.Second)
	for key := range collector.selectors {
		if key.service != "api-v2" {
			t.Errorf("selectors of %v outlived the split's move to api-v2", key)
		}
	}
	if err := splits.Delete("api"); err != nil {
		t.Fatal(err)
	}
	if n := len(collector.selectors); n != 0 {
		t.Errorf("%d backends' selectors outlived their split", n)
	}
}

func TestControllerSelfMetricsFollowTheSplit(t *testing.T) {
	r := newRig(t, nil, 20*time.Millisecond, 400*time.Millisecond)
	r.engine.RunUntil(time.Minute)
	gauge := func(family, backend string) float64 {
		return r.selfReg.Gauge(family, metrics.Labels{"split": "api", "backend": backend}).Value()
	}
	for _, family := range []string{MetricWeight, MetricFilteredP99, MetricFilteredRPS} {
		if gauge(family, "api-slow") <= 0 {
			t.Fatalf("%s{api-slow} = %v before the change, want it live", family, gauge(family, "api-slow"))
		}
	}
	series := len(r.selfReg.Snapshot())

	setBackends := func(backends ...smi.Backend) {
		t.Helper()
		stored, ok := r.m.Splits().Get("api")
		if !ok {
			t.Fatal("split vanished")
		}
		ts := stored.Clone()
		ts.Backends = backends
		if err := r.m.Splits().Update(ts); err != nil {
			t.Fatal(err)
		}
	}
	setBackends(smi.Backend{Service: "api-fast", Weight: 1000})
	for _, family := range []string{MetricWeight, MetricFilteredP99, MetricFilteredRPS} {
		if v := gauge(family, "api-slow"); v != 0 {
			t.Errorf("%s{api-slow} = %v after the backend left the split, want 0", family, v)
		}
	}
	r.engine.RunUntil(2 * time.Minute)
	if v := gauge(MetricWeight, "api-slow"); v != 0 {
		t.Errorf("weight gauge of the departed backend moved to %v", v)
	}
	if gauge(MetricWeight, "api-fast") <= 0 || gauge(MetricFilteredRPS, "api-fast") <= 0 {
		t.Error("the remaining backend's gauges stopped updating")
	}

	setBackends(smi.Backend{Service: "api-fast", Weight: 500}, smi.Backend{Service: "api-slow", Weight: 500})
	r.engine.RunUntil(3 * time.Minute)
	for _, family := range []string{MetricWeight, MetricFilteredP99, MetricFilteredRPS} {
		if gauge(family, "api-slow") <= 0 {
			t.Errorf("%s{api-slow} = %v after the backend came back, want it live again", family, gauge(family, "api-slow"))
		}
	}
	if gauge(MetricWeight, "api-fast") <= gauge(MetricWeight, "api-slow") {
		t.Errorf("weights fast=%v slow=%v after re-adding, want fast > slow", gauge(MetricWeight, "api-fast"), gauge(MetricWeight, "api-slow"))
	}
	if got := len(r.selfReg.Snapshot()); got != series {
		t.Errorf("self registry grew from %d to %d series across remove/re-add", series, got)
	}

	if err := r.m.Splits().Delete("api"); err != nil {
		t.Fatal(err)
	}
	for _, s := range r.selfReg.Snapshot() {
		if s.Kind == metrics.KindGauge && s.Name != MetricLeader && s.Value != 0 {
			t.Errorf("%s%v = %v after its split was deleted, want 0", s.Name, s.Labels, s.Value)
		}
	}
}

func TestControllerRequiresDeps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewControllerClock without deps did not panic")
		}
	}()
	NewControllerClock(sim.NewEngine(), nil, nil, ControllerConfig{})
}

func TestScaleWeight(t *testing.T) {
	if got, ok := scaleWeight(2.5, 1000); !ok || got != 2500 {
		t.Fatalf("scaleWeight = %d, %v", got, ok)
	}
	if got, ok := scaleWeight(0.0001, 1000); !ok || got != 1 {
		t.Fatalf("tiny weight = %d, want floor 1", got)
	}
	if got, ok := scaleWeight(1e300, 1000); !ok || got <= 0 {
		t.Fatalf("huge weight overflowed: %d", got)
	}
	if _, ok := scaleWeight(math.NaN(), 1000); ok {
		t.Fatal("NaN weight scaled instead of being rejected")
	}
	if _, ok := scaleWeight(math.Inf(1), 1000); ok {
		t.Fatal("Inf weight scaled instead of being rejected")
	}
}

// A reconcile round walks its splits in name order — writes, watch events
// and first-round self-metric registration — not in Go map order, which
// differed from run to run.
func TestControllerUpdatesSplitsInNameOrder(t *testing.T) {
	engine := sim.NewEngine()
	splits := smi.NewStore()
	names := []string{"m", "c", "x", "a", "q", "f", "z", "b"}
	for _, n := range names {
		if err := splits.Create(&smi.TrafficSplit{Name: n, RootService: n,
			Backends: []smi.Backend{{Service: n + "-2", Weight: 1}, {Service: n + "-1", Weight: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	selfReg := metrics.NewRegistry()
	ctrl := NewControllerClock(engine, splits, &Collector{DB: timeseries.NewDB(time.Minute)}, ControllerConfig{
		NewAssigner:  func() Assigner { return NewL3Assigner(WeightingConfig{}, RateControlConfig{}, true) },
		SelfRegistry: selfReg,
	})
	var written []string
	splits.Watch(false, func(e cluster.Event[*smi.TrafficSplit]) {
		if e.Type == cluster.Updated {
			written = append(written, e.Object.Name)
		}
	})
	ctrl.Start()
	if err := splits.Delete("q"); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(5 * time.Second) // one round

	want := []string{"a", "b", "c", "f", "m", "x", "z"}
	if got := ctrl.Tracked(); !equalStrings(got, want) {
		t.Fatalf("Tracked() = %v, want %v", got, want)
	}
	if !equalStrings(written, want) {
		t.Fatalf("round wrote splits in order %v, want %v", written, want)
	}
	// Self-metrics register split by split, backends in split order.
	var weightSeries []string
	for _, s := range selfReg.Snapshot() {
		if s.Name == MetricWeight {
			weightSeries = append(weightSeries, s.Labels["backend"])
		}
	}
	var wantSeries []string
	for _, n := range want {
		wantSeries = append(wantSeries, n+"-2", n+"-1")
	}
	if !equalStrings(weightSeries, wantSeries) {
		t.Fatalf("weight gauges registered in order %v, want %v", weightSeries, wantSeries)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
