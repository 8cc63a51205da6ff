package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

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

const roundInterval = 5 * time.Second

// controlRound is the control plane's per-interval work at fleet scale,
// built from the public constructors only and wired as the repo benchmark's
// control_fleet is: a data-plane registry of three backends per service,
// text exposition, parse, gated append, then one reconcile — collect, the
// guard's assigner over L3's, the write gate and a split write — per
// service, each write fanned out to the controller's own watch and a second
// watcher that reads the written weights, as a router rebuild does.
type controlRound struct {
	engine  *sim.Engine
	reg     *metrics.Registry
	db      *timeseries.DB
	splits  *smi.Store
	ok      []*metrics.Counter
	latency []*metrics.Histogram
	text    bytes.Buffer
	round   int
	// writes counts split writes the second watcher saw, suppressed the
	// no-op writes the gate held back: every round ends one or the other
	// for every service.
	writes   int
	gate     *guard.WriteGate
	services int
	weights  map[string]int64
}

func newControlRound(tb testing.TB, backends int) *controlRound {
	tb.Helper()
	r := &controlRound{
		engine:  sim.NewEngine(),
		reg:     metrics.NewRegistry(),
		db:      timeseries.NewDB(4 * roundInterval),
		splits:  smi.NewStore(),
		gate:    guard.NewWriteGate(guard.Config{}, nil),
		weights: make(map[string]int64),
	}
	hyg := guard.NewHygiene(guard.Config{}, nil)
	r.db.SetGate(hyg)
	var ts *smi.TrafficSplit
	for i := 0; i < backends; i++ {
		service := fmt.Sprintf("svc-%04d", i/3)
		name := fmt.Sprintf("%s-cluster-%d", service, i%3+1)
		if i%3 == 0 {
			ts = &smi.TrafficSplit{Name: service, RootService: service}
			r.services++
		}
		ts.Backends = append(ts.Backends, smi.Backend{Service: name, Weight: 1})
		if i%3 == 2 || i == backends-1 {
			if err := r.splits.Create(ts); err != nil {
				tb.Fatal(err)
			}
		}
		labels := metrics.Labels{"service": service, "backend": name, "src": "bench"}
		okL := labels.With("classification", mesh.ClassSuccess)
		failL := labels.With("classification", mesh.ClassFailure)
		r.reg.Counter(mesh.MetricResponseTotal, failL)
		r.reg.Histogram(mesh.MetricResponseLatency, failL, histogram.LinkerdLatencyBounds)
		r.ok = append(r.ok, r.reg.Counter(mesh.MetricResponseTotal, okL))
		r.latency = append(r.latency, r.reg.Histogram(mesh.MetricResponseLatency, okL, histogram.LinkerdLatencyBounds))
		r.reg.Gauge(mesh.MetricInflight, labels).Set(float64(i%7 + 1))
	}
	interval := roundInterval
	collector := &core.Collector{DB: r.db, Window: 2 * interval, Percentile: 0.99, Resets: hyg}
	wcfg := core.WeightingConfig{LatencyHalfLife: interval, InflightHalfLife: interval, SuccessHalfLife: 2 * interval, RPSHalfLife: 2 * interval}
	rcfg := core.RateControlConfig{RPSHalfLife: 2 * interval}
	selfReg := metrics.NewRegistry()
	core.NewControllerClock(r.engine, r.splits, collector, core.ControllerConfig{
		Interval: interval,
		NewAssigner: func() core.Assigner {
			return guard.NewAssigner(core.NewL3Assigner(wcfg, rcfg, true), guard.Config{}, selfReg)
		},
		SelfRegistry: selfReg,
		WriteGuard:   r.gate,
	}).Start()
	r.splits.Watch(false, func(e cluster.Event[*smi.TrafficSplit]) {
		for _, b := range e.Object.Backends {
			r.weights[b.Service] = b.Weight
		}
		r.writes++
	})
	return r
}

// run advances every backend by one interval of traffic — a load that moves
// from round to round, so the weights keep moving — and runs the round.
func (r *controlRound) run(tb testing.TB) {
	r.round++
	at := time.Duration(r.round) * roundInterval
	for i := range r.ok {
		r.ok[i].Add(float64(100 + 40*((r.round+i)%3)))
		r.latency[i].Observe(0.004 * float64(i%9+1))
	}
	r.text.Reset()
	if err := r.reg.WritePrometheus(&r.text); err != nil {
		tb.Fatal(err)
	}
	samples, err := metrics.ParseExposition(bytes.NewReader(r.text.Bytes()))
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range samples {
		r.db.AppendSample(s.Name, s.Labels, s.Kind, at, s.Value)
	}
	writes, suppressed := r.writes, r.gate.SuppressedTotal()
	r.engine.RunUntil(at) // the reconcile
	if got := r.writes - writes + int(r.gate.SuppressedTotal()-suppressed); got != r.services {
		tb.Fatalf("round %d wrote or suppressed %d splits, want %d", r.round, got, r.services)
	}
}

// TestControlRoundMallocs guards the numbers the repo benchmark reports as
// control_fleet allocs_per_op and alloc_bytes_per_op. A warm round re-reads
// series it has seen before and reuses every reconcile's scratch, so what it
// allocates is the parse's result slice and reader and each written split's
// next version (the split and its backends): at most 2 a written split plus
// 10, at 102 backends (34 services, 9 600 samples) and at 1 020, where a
// scrape spells 96 000 series, past the parse table's 65 536-series floor —
// the table holds every series a scrape spells, so no sample comes with a
// fresh label map. A warm 102-backend round also allocates fewer than 700 000
// bytes: the parse's result slice and no copy of the 1.1 MB text.
func TestControlRoundMallocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, backends := range []int{102, 1020} {
		r := newControlRound(t, backends)
		for i := 0; i < 8; i++ { // until retention trims every series and its points stop growing
			r.run(t)
		}
		const runs = 10
		writes := r.writes
		perRound := testing.AllocsPerRun(runs, func() { r.run(t) })
		perRoundWrites := float64(r.writes-writes) / (runs + 1)
		t.Logf("%.0f mallocs per warm round at %d backends, %.1f split writes of %d", perRound, backends, perRoundWrites, r.services)
		if perRoundWrites < float64(r.services)/2 {
			t.Errorf("%.1f split writes a round of %d splits: the fixture no longer exercises the write", perRoundWrites, r.services)
		}
		if limit := 2*perRoundWrites + 10; perRound > limit {
			t.Errorf("%.0f mallocs per warm round at %d backends, want <= %.0f (2 a written split + 10)", perRound, backends, limit)
		}
		if backends != 102 {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			r.run(t)
		}
		runtime.ReadMemStats(&after)
		perRoundBytes := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%d bytes allocated per warm round at 102 backends", perRoundBytes)
		if perRoundBytes >= 700_000 {
			t.Errorf("%d bytes allocated per warm round, want < 700 000", perRoundBytes)
		}
	}
}

// A warm scrape pass — every position's series ref resolved, every series'
// window past retention — allocates nothing, raw or through the hygiene
// gate, across several registries; and a registry that gains a series costs
// that series' first sight, once.
func TestWarmScrapeTickDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, gated := range []bool{false, true} {
		engine := sim.NewEngine()
		regs := []*metrics.Registry{metrics.NewRegistry(), metrics.NewRegistry()}
		var counters []*metrics.Counter
		for i, reg := range regs {
			for b := 0; b < 4; b++ {
				l := metrics.Labels{"backend": fmt.Sprintf("b%d-%d", i, b), "classification": "success"}
				counters = append(counters, reg.Counter("response_total", l))
				reg.Histogram("response_latency", l, histogram.LinkerdLatencyBounds).Observe(0.01)
				reg.Gauge("request_inflight", l).Set(1)
			}
		}
		db := timeseries.NewDB(20 * time.Second)
		if gated {
			db.SetGate(guard.NewHygiene(guard.Config{}, nil))
		}
		core.NewScraperClock(engine, db, regs, 5*time.Second).Start()
		pass := func() { // one scrape tick
			for _, c := range counters {
				c.Inc()
			}
			engine.RunUntil(engine.Now() + 5*time.Second)
		}
		for i := 0; i < 24; i++ { // past retention: compaction now reuses each series' points
			pass()
		}
		if n := testing.AllocsPerRun(20, pass); n != 0 {
			t.Errorf("gated=%v: warm scrape tick: %v allocs, want 0", gated, n)
		}
		regs[0].Counter("response_total", metrics.Labels{"backend": "late"}) // shifts every later position of a merged buffer
		pass()
		if n := testing.AllocsPerRun(20, pass); n != 0 {
			t.Errorf("gated=%v: scrape tick after a registry grew: %v allocs, want 0", gated, n)
		}
		if got, want := db.SeriesCount(), len(regs[0].Snapshot())+len(regs[1].Snapshot()); got != want {
			t.Errorf("gated=%v: database holds %d series, the registries %d", gated, got, want)
		}
	}
}

// BenchmarkControlRound is ROADMAP item 3's sweep (`make sweep` runs the
// first three sizes): a whole round, exposition to split writes and their
// fan-out. ns/op divided by the backend count should stay flat from 102 to
// 10 200 backends. B/series is the heap in use after the timed rounds and a
// collection — registry, text, parse table and database — over the series
// the database stores. The last size holds 950 000 series and is for
// `go test -bench` only.
func BenchmarkControlRound(b *testing.B) {
	for _, n := range []int{102, 1020, 3060, 10200} {
		b.Run(fmt.Sprintf("backends=%d", n), func(b *testing.B) {
			r := newControlRound(b, n)
			for i := 0; i < 3; i++ { // fill the query window and every cache
				r.run(b)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.run(b)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/backend")
			b.StopTimer()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapInuse)/float64(r.db.SeriesCount()), "B/series")
		})
	}
}

// BenchmarkExpositionChurn is the round in which a series appears, at the
// sweep's fleet sizes: one registration, then the WritePrometheus that lays
// the text out again. ns/sample is the figure DESIGN.md quotes; next to a
// warm round's it says how much a registration adds.
func BenchmarkExpositionChurn(b *testing.B) {
	for _, n := range []int{102, 1020, 3060} {
		b.Run(fmt.Sprintf("backends=%d", n), func(b *testing.B) {
			r := newControlRound(b, n)
			r.run(b)
			samples := len(r.reg.Snapshot())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.reg.Counter(mesh.MetricResponseTotal, metrics.Labels{"service": "churn", "backend": fmt.Sprintf("churn-%d", i), "classification": mesh.ClassFailure})
				r.text.Reset()
				if err := r.reg.WritePrometheus(&r.text); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(samples), "ns/sample")
		})
	}
}

// scrapeRegistry is a data-plane registry of exactly n samples shaped like
// the simulator's: per backend a success counter, a success latency
// histogram and an in-flight gauge (47 samples), then failure counters up to
// n. 612 is what a sim_trace world scrapes, 6 909 a sim_dsb one.
func scrapeRegistry(n int) *metrics.Registry {
	reg := metrics.NewRegistry()
	perBackend := 1 + len(histogram.LinkerdLatencyBounds) + 3 + 1
	for i := 0; n >= perBackend; i, n = i+1, n-perBackend {
		labels := metrics.Labels{"service": fmt.Sprintf("svc-%02d", i/3), "backend": fmt.Sprintf("svc-%02d-cluster-%d", i/3, i%3+1), "src": "cluster-1"}
		okL := labels.With("classification", mesh.ClassSuccess)
		reg.Counter(mesh.MetricResponseTotal, okL).Add(100)
		reg.Histogram(mesh.MetricResponseLatency, okL, histogram.LinkerdLatencyBounds).Observe(0.004 * float64(i%9+1))
		reg.Gauge(mesh.MetricInflight, labels).Set(float64(i%7 + 1))
	}
	for ; n > 0; n-- {
		reg.Counter(mesh.MetricResponseTotal, metrics.Labels{"backend": fmt.Sprintf("failing-%d", n), "classification": mesh.ClassFailure})
	}
	return reg
}

// BenchmarkScrapeTick is one simulated scrape pass over a warm database
// that retains what a plane does, four intervals: refs is core.Scraper,
// which remembers each snapshot position's series; labels is the pass it
// replaced, every sample found again by name, label hash and label
// comparison.
func BenchmarkScrapeTick(b *testing.B) {
	for _, n := range []int{612, 6909} {
		reg := scrapeRegistry(n)
		if got := len(reg.Snapshot()); got != n {
			b.Fatalf("registry has %d samples, want %d", got, n)
		}
		b.Run(fmt.Sprintf("series=%d/refs", n), func(b *testing.B) {
			engine := sim.NewEngine()
			core.NewScraperClock(engine, timeseries.NewDB(4*roundInterval), []*metrics.Registry{reg}, roundInterval).Start()
			engine.RunUntil(16 * roundInterval) // every ref resolved, every window past retention
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engine.RunUntil(engine.Now() + roundInterval)
			}
		})
		b.Run(fmt.Sprintf("series=%d/labels", n), func(b *testing.B) {
			db := timeseries.NewDB(4 * roundInterval)
			var buf []metrics.Sample
			at := time.Duration(0)
			tick := func() {
				at += roundInterval
				buf = reg.SnapshotAppend(buf[:0])
				for _, s := range buf {
					db.AppendSample(s.Name, s.Labels, s.Kind, at, s.Value)
				}
			}
			for i := 0; i < 16; i++ {
				tick()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick()
			}
		})
	}
}
