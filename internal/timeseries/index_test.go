package timeseries_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"l3/internal/core"
	"l3/internal/guard"
	"l3/internal/histogram"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/timeseries"
)

// Rates 0.1, 0.2 and 0.3 sum to a different float depending on the order:
// (0.1+0.2)+0.3 != 0.1+(0.2+0.3). The old database matched series in Go map
// order, so the same query could return either; postings return insertion
// order, always.
func TestMultiSeriesSumsAreOneBitPattern(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	for i, perSecond := range []float64{0.1, 0.2, 0.3} {
		l := metrics.Labels{"backend": fmt.Sprintf("b%d", i), "le": "1"}
		for _, name := range []string{"requests_total", "inflight", "latency_bucket"} {
			db.Append(name, l, 0, 0)
			db.Append(name, l, time.Second, perSecond)
		}
	}
	a, b, c := 0.1, 0.2, 0.3 // variables: constant arithmetic would be exact
	sum := (a + b) + c
	want := math.Float64bits(sum)
	if want == math.Float64bits(a+(b+c)) {
		t.Fatal("the three rates no longer distinguish summation orders")
	}
	for i := 0; i < 200; i++ {
		rate, ok := db.Rate("requests_total", nil, time.Second, 10*time.Second)
		if !ok || math.Float64bits(rate) != want {
			t.Fatalf("query %d: Rate = %v (%x), want insertion-order sum %x", i, rate, math.Float64bits(rate), want)
		}
		// GaugeAvg adds the zero samples in between: 0+0.1+0+0.2+0+0.3.
		avg, ok := db.GaugeAvg("inflight", nil, time.Second, 10*time.Second)
		if !ok || math.Float64bits(avg) != math.Float64bits(sum/6) {
			t.Fatalf("query %d: GaugeAvg = %v, want the insertion-order sum over 6", i, avg)
		}
		latest, ok := db.Latest("inflight", nil, time.Second)
		if !ok || math.Float64bits(latest) != want {
			t.Fatalf("query %d: Latest = %v, want insertion-order sum", i, latest)
		}
		// One bucket fed by three series: the merged rate decides the estimate.
		q, ok := db.HistogramQuantile(0.5, "latency", nil, time.Second, 10*time.Second)
		if !ok || q != 0.5 {
			t.Fatalf("query %d: HistogramQuantile = (%v, %v), want (0.5, true)", i, q, ok)
		}
	}
}

// fleetDB is a database holding two scrapes of n backends' proxy series
// (three backends a service, as benchmark/fleet.go builds them) behind a
// hygiene gate.
func fleetDB(tb testing.TB, n int) (db *timeseries.DB, hyg *guard.Hygiene, services []string, backends map[string][]string, samples []metrics.Sample) {
	tb.Helper()
	reg := metrics.NewRegistry()
	backends = make(map[string][]string)
	var counters []*metrics.Counter
	var hists []*metrics.Histogram
	for i := 0; i < n; i++ {
		service := fmt.Sprintf("svc-%04d", i/3)
		name := fmt.Sprintf("%s-cluster-%d", service, i%3+1)
		if i%3 == 0 {
			services = append(services, service)
		}
		backends[service] = append(backends[service], name)
		labels := metrics.Labels{"service": service, "backend": name, "src": "test"}
		okL := labels.With("classification", mesh.ClassSuccess)
		failL := labels.With("classification", mesh.ClassFailure)
		reg.Counter(mesh.MetricResponseTotal, failL)
		reg.Histogram(mesh.MetricResponseLatency, failL, histogram.LinkerdLatencyBounds)
		counters = append(counters, reg.Counter(mesh.MetricResponseTotal, okL))
		hists = append(hists, reg.Histogram(mesh.MetricResponseLatency, okL, histogram.LinkerdLatencyBounds))
		reg.Gauge(mesh.MetricInflight, labels).Set(2)
	}
	db = timeseries.NewDB(time.Minute)
	hyg = guard.NewHygiene(guard.Config{}, nil)
	db.SetGate(hyg)
	for round := 1; round <= 2; round++ {
		for i := range counters {
			counters[i].Add(50)
			hists[i].Observe(0.004 * float64(i%9+1))
		}
		db.Scrape(time.Duration(round)*5*time.Second, reg)
	}
	return db, hyg, services, backends, reg.Snapshot()
}

// A collect round that meets its backends for the first time must examine a
// number of series proportional to the backends it asks about, whatever the
// size of the fleet around them: the old linear scan examined every series
// of the family for every query.
func TestCollectVisitsAreLinearInBackends(t *testing.T) {
	perBackend := func(n int) float64 {
		db, hyg, services, backends, _ := fleetDB(t, n)
		c := &core.Collector{DB: db, Window: 10 * time.Second, Resets: hyg}
		round := func() uint64 {
			before := timeseries.Visited(db)
			for _, s := range services {
				if m := c.Collect(10*time.Second, s, backends[s]); !m[backends[s][0]].P99Valid {
					t.Fatalf("%d backends: %s collected no P99", n, backends[s][0])
				}
			}
			return timeseries.Visited(db) - before
		}
		first := round()
		// The collector's selectors now stand: with no family grown, a round
		// examines no series at all.
		if again := round(); again != 0 {
			t.Errorf("%d backends: second collect round examined %d series, want 0", n, again)
		}
		return float64(first) / float64(n)
	}
	base := perBackend(102)
	if base == 0 {
		t.Fatal("no series visited at 102 backends")
	}
	for _, n := range []int{1020, 3060} {
		if got := perBackend(n); got > base*1.05 {
			t.Errorf("%d backends: %.1f series visited per backend, %.1f at 102 — more than 5 %% growth", n, got, base)
		}
	}
	t.Logf("%.1f series visited per backend per round", base)
}

// The steady-state ingest and query paths allocate nothing: an existing
// series is found by hash, a selector by postings into reused scratch.
func TestWarmPathsDoNotAllocate(t *testing.T) {
	db, _, _, backends, samples := fleetDB(t, 12)
	at := 10 * time.Second
	scrape := func() {
		at += 5 * time.Second
		for _, s := range samples {
			db.AppendSample(s.Name, s.Labels, s.Kind, at, s.Value+at.Seconds())
		}
	}
	for i := 0; i < 16; i++ { // past retention: compaction now reuses each series' points
		scrape()
	}
	if n := testing.AllocsPerRun(20, scrape); n != 0 {
		t.Errorf("AppendSample through Hygiene onto existing series: %v allocs per pass, want 0", n)
	}
	match := metrics.Labels{"backend": backends["svc-0000"][0], "classification": mesh.ClassSuccess}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := db.Rate(mesh.MetricResponseTotal, match, at, 10*time.Second); !ok {
			t.Fatal("Rate: no data")
		}
	}); n != 0 {
		t.Errorf("Rate on a warm database: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := db.HistogramQuantile(0.99, mesh.MetricResponseLatency, match, at, 10*time.Second); !ok {
			t.Fatal("HistogramQuantile: no data")
		}
	}); n != 0 {
		t.Errorf("HistogramQuantile on a warm database: %v allocs, want 0", n)
	}
}
