package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"l3/internal/core"
	"l3/internal/guard"
	"l3/internal/histogram"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/timeseries"
)

const roundInterval = 5 * time.Second

// controlRound is the control plane's per-interval work at fleet scale,
// built from the public constructors only: a data-plane registry of three
// backends per service, text exposition, parse, gated append, and one
// Collect per service.
type controlRound struct {
	reg       *metrics.Registry
	db        *timeseries.DB
	collector *core.Collector
	services  []string
	backends  map[string][]string
	ok        []*metrics.Counter
	latency   []*metrics.Histogram
	text      bytes.Buffer
	round     int
}

func newControlRound(tb testing.TB, backends int) *controlRound {
	tb.Helper()
	r := &controlRound{
		reg:      metrics.NewRegistry(),
		db:       timeseries.NewDB(4 * roundInterval),
		backends: make(map[string][]string),
	}
	hyg := guard.NewHygiene(guard.Config{}, nil)
	r.db.SetGate(hyg)
	r.collector = &core.Collector{DB: r.db, Window: 2 * roundInterval, Percentile: 0.99, Resets: hyg}
	for i := 0; i < backends; i++ {
		service := fmt.Sprintf("svc-%04d", i/3)
		name := fmt.Sprintf("%s-cluster-%d", service, i%3+1)
		if i%3 == 0 {
			r.services = append(r.services, service)
		}
		r.backends[service] = append(r.backends[service], name)
		labels := metrics.Labels{"service": service, "backend": name, "src": "bench"}
		okL := labels.With("classification", mesh.ClassSuccess)
		failL := labels.With("classification", mesh.ClassFailure)
		r.reg.Counter(mesh.MetricResponseTotal, failL)
		r.reg.Histogram(mesh.MetricResponseLatency, failL, histogram.LinkerdLatencyBounds)
		r.ok = append(r.ok, r.reg.Counter(mesh.MetricResponseTotal, okL))
		r.latency = append(r.latency, r.reg.Histogram(mesh.MetricResponseLatency, okL, histogram.LinkerdLatencyBounds))
		r.reg.Gauge(mesh.MetricInflight, labels).Set(float64(i%7 + 1))
	}
	return r
}

// run advances every backend by one interval of traffic and runs the round.
func (r *controlRound) run(tb testing.TB) map[string]core.BackendMetrics {
	r.round++
	at := time.Duration(r.round) * roundInterval
	for i := range r.ok {
		r.ok[i].Add(100)
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
	var last map[string]core.BackendMetrics
	for _, service := range r.services {
		last = r.collector.Collect(at, service, r.backends[service])
	}
	return last
}

// TestControlRoundMallocs guards the number the repo benchmark reports as
// control_fleet allocs_per_op: a warm round at 102 backends re-reads 9 600
// samples whose series it has seen before, so it must not allocate per
// sample. Two allocations per sample (a label map each) were 19 000 of the
// 21 000 a round made before the parser remembered its series.
func TestControlRoundMallocs(t *testing.T) {
	r := newControlRound(t, 102)
	for i := 0; i < 8; i++ { // until retention trims every series and its points stop growing
		r.run(t)
	}
	perRound := testing.AllocsPerRun(10, func() { r.run(t) })
	t.Logf("%.0f mallocs per warm round at 102 backends", perRound)
	if perRound >= 500 {
		t.Errorf("%.0f mallocs per warm round, want < 500", perRound)
	}
}

// BenchmarkControlRound is ROADMAP item 1's sweep: ns/op divided by the
// backend count should stay flat from 102 to 10 200 backends. The last size
// holds 950 000 series in 4.5 GB and is for `go test -bench` only.
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
				m := r.run(b)
				if len(m) != 3 {
					b.Fatalf("last service collected %d backends, want 3", len(m))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/backend")
		})
	}
}
