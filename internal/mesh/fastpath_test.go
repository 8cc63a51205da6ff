package mesh

import (
	"sort"
	"testing"
	"time"

	"l3/internal/backend"
	"l3/internal/histogram"
	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/wan"
)

// span is one completed request as a SpanRecorder sees it — enough to replay
// the exact metric updates the pre-fast-path labelled API performed.
type span struct {
	service, backendName, src string
	start, end, serverDur     time.Duration
	success                   bool
}

type spanLog struct{ spans []span }

func (l *spanLog) RecordSpan(service, backendName, src string, start, end, serverDuration time.Duration, success bool) {
	l.spans = append(l.spans, span{service, backendName, src, start, end, serverDuration, success})
}

// TestRouteCachedMetricsMatchLabelledReplay is the metric-equivalence pin for
// the fast path: a seeded run recorded through the route-cached handles must
// produce exactly the samples that replaying the same responses through the
// old labelled get-or-create API produces — same series set, same values,
// bit-identical float sums.
func TestRouteCachedMetricsMatchLabelledReplay(t *testing.T) {
	e := sim.NewEngine()
	m := New(e, sim.NewRand(7), wan.New(wan.DefaultConfig()), metrics.NewRegistry())
	log := &spanLog{}
	m.SetSpanRecorder(log)
	if _, err := m.AddService("api"); err != nil {
		t.Fatal(err)
	}
	flaky := func(d time.Duration) backend.Profile {
		return func(_ time.Duration, r *sim.Rand) (time.Duration, bool) {
			return d, r.Float64() < 0.7
		}
	}
	addSpanBackend := func(name, cluster string, d time.Duration) {
		if _, err := m.AddBackend("api", name, cluster, backend.Config{}, flaky(d)); err != nil {
			t.Fatal(err)
		}
	}
	addSpanBackend("api-c1", "cluster-1", 5*time.Millisecond)
	addSpanBackend("api-c2", "cluster-2", 9*time.Millisecond)
	addSpanBackend("api-c3", "cluster-3", 3*time.Millisecond)

	// Seeded mixed workload: every source cluster calls into the random
	// fallback picker, staggered so requests interleave in flight.
	srcs := []string{"cluster-1", "cluster-2", "cluster-3"}
	for i := 0; i < 120; i++ {
		src := srcs[i%len(srcs)]
		at := time.Duration(i) * 2 * time.Millisecond
		e.At(at, func() {
			if err := m.Call(src, "api", func(Result) {}); err != nil {
				t.Error(err)
			}
		})
	}
	e.Run()
	if len(log.spans) != 120 {
		t.Fatalf("recorded %d spans, want 120", len(log.spans))
	}

	// Replay each response through the labelled API, in completion order —
	// exactly what the pre-fast-path finish() did per response.
	ref := metrics.NewRegistry()
	for _, s := range log.spans {
		labels := metrics.Labels{"service": s.service, "backend": s.backendName, "src": s.src}
		g := ref.Gauge(MetricInflight, labels)
		g.Inc()
		g.Dec()
		class := ClassFailure
		if s.success {
			class = ClassSuccess
		}
		cl := labels.With("classification", class)
		ref.Counter(MetricResponseTotal, cl).Inc()
		ref.Histogram(MetricResponseLatency, cl, histogram.LinkerdLatencyBounds).
			Observe((s.end - s.start).Seconds())
	}

	// The replay cannot reproduce interleaved registration order, so compare
	// canonically sorted samples. Values must match exactly: per-series the
	// replay applies the same float additions in the same order.
	got, want := sortedSamples(m.Registry()), sortedSamples(ref)
	if len(got) != len(want) {
		t.Fatalf("sample counts differ: fast path %d, labelled replay %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Name != want[i].Name || got[i].Labels.Key() != want[i].Labels.Key() {
			t.Fatalf("series %d differs: %s%s vs %s%s",
				i, got[i].Name, got[i].Labels, want[i].Name, want[i].Labels)
		}
		if got[i].Value != want[i].Value {
			t.Fatalf("series %s%s = %v via fast path, %v via labelled replay",
				got[i].Name, got[i].Labels, got[i].Value, want[i].Value)
		}
	}
}

func sortedSamples(r *metrics.Registry) []metrics.Sample {
	s := r.Snapshot()
	sort.Slice(s, func(i, j int) bool {
		if s[i].Name != s[j].Name {
			return s[i].Name < s[j].Name
		}
		return s[i].Labels.Key() < s[j].Labels.Key()
	})
	return s
}

// TestPickerSwapMidFlightKeepsObserverBinding pins the Call-time binding fix:
// a response must report to the picker that made the pick, even if SetPicker
// swapped the strategy while the request was in flight.
func TestPickerSwapMidFlightKeepsObserverBinding(t *testing.T) {
	m, e := newTestMesh(t)
	_, _ = m.AddService("api")
	addBackend(t, m, "api", "b", "cluster-1", 50*time.Millisecond, true)
	old := &recordingPicker{}
	_ = m.SetPicker("api", old)
	if err := m.Call("cluster-1", "api", func(Result) {}); err != nil {
		t.Fatal(err)
	}
	// Swap strategies while the request is mid-flight.
	replacement := &recordingPicker{}
	_ = m.SetPicker("api", replacement)
	e.RunUntil(time.Second)
	if len(old.observed) != 1 {
		t.Fatalf("original picker saw %d responses, want 1 (its own pick)", len(old.observed))
	}
	if len(replacement.observed) != 0 {
		t.Fatalf("replacement picker saw %d responses for picks it never made", len(replacement.observed))
	}
	// And the new picker owns subsequent requests.
	if err := m.Call("cluster-1", "api", func(Result) {}); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(2 * time.Second)
	if len(old.observed) != 1 || len(replacement.observed) != 1 {
		t.Fatalf("post-swap feedback routing wrong: old=%d new=%d",
			len(old.observed), len(replacement.observed))
	}
}

// TestRouteCacheResolvesOncePerRoute checks the per-backend cache: repeated
// calls over the same (service, backend, src) route reuse one routeStats, and
// distinct source clusters get distinct entries.
func TestRouteCacheResolvesOncePerRoute(t *testing.T) {
	m, e := newTestMesh(t)
	_, _ = m.AddService("api")
	b := addBackend(t, m, "api", "b", "cluster-1", time.Millisecond, true)
	_ = m.SetPicker("api", pickFirst{})
	for i := 0; i < 5; i++ {
		_ = m.Call("cluster-1", "api", func(Result) {})
	}
	e.RunUntil(time.Second)
	if len(b.routes[0]) != 1 {
		t.Fatalf("route cache has %d entries after one route, want 1", len(b.routes[0]))
	}
	_ = m.Call("cluster-2", "api", func(Result) {})
	e.RunUntil(2 * time.Second)
	if len(b.routes[0]) != 2 {
		t.Fatalf("route cache has %d entries after two routes, want 2", len(b.routes[0]))
	}
	if b.routes[0][0] == b.routes[0][1] {
		t.Fatal("distinct source clusters share a routeStats")
	}
}
