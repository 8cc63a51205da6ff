package timeseries_test

import (
	"fmt"
	"testing"
	"time"

	"l3/internal/histogram"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/plane"
	"l3/internal/sim"
	"l3/internal/smi"
	"l3/internal/timeseries"
)

// A control plane's retention fits the window a series starts with: at 1 s,
// 5 s and 15 s intervals, run past retention, no series a plane stores grows
// its points onto the heap. A series kept for a minute of 5 s scrapes does,
// so the count is not blind.
func TestPlaneSeriesStayInTheirWindow(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	for p := 1; p <= 13; p++ {
		db.Append("response_total", metrics.Labels{"backend": "a"}, time.Duration(p)*5*time.Second, float64(p))
	}
	if n := timeseries.Spilled(db); n != 1 {
		t.Fatalf("a series of 13 points: %d spilled, want 1", n)
	}
	backends := []string{"api-a", "api-b", "api-c"}
	for _, interval := range []time.Duration{time.Second, 5 * time.Second, 15 * time.Second} {
		t.Run(fmt.Sprint(interval), func(t *testing.T) {
			engine, reg, splits := sim.NewEngine(), metrics.NewRegistry(), smi.NewStore()
			ts := &smi.TrafficSplit{Name: "api", RootService: "api"}
			for _, b := range backends {
				ts.Backends = append(ts.Backends, smi.Backend{Service: b, Weight: 500})
			}
			if err := splits.Create(ts); err != nil {
				t.Fatal(err)
			}
			p := plane.New(engine, splits, plane.Config{Interval: interval, Guard: true, Registry: reg, Specs: []plane.Spec{{}}})
			p.Start()
			const rounds = 16 // four intervals of retention, four times over
			for round := 1; round <= rounds; round++ {
				for i, b := range backends {
					l := metrics.Labels{"service": "api", "backend": b, "src": "cluster-1"}
					reg.Gauge(mesh.MetricInflight, l).Set(float64(i + round%3))
					l = l.With("classification", mesh.ClassSuccess)
					reg.Counter(mesh.MetricResponseTotal, l).Add(float64(40 * (i + 1)))
					reg.Histogram(mesh.MetricResponseLatency, l, histogram.LinkerdLatencyBounds).Observe(0.004 * float64(i+1))
				}
				engine.RunUntil(time.Duration(round) * interval)
			}
			p.Stop()
			series := p.DB.SeriesCount()
			if series == 0 {
				t.Fatal("the plane stored no series")
			}
			if n := timeseries.Spilled(p.DB); n != 0 {
				t.Errorf("%d of %d series grew past their window over %d rounds", n, series, rounds)
			}
			for key, points := range timeseries.Dump(p.DB) {
				if len(points) != 5 {
					t.Fatalf("%s holds %d points, want the 5 that four intervals of retention keep", key, len(points))
				}
			}
		})
	}
}
