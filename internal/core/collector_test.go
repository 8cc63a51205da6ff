package core

import (
	"math"
	"testing"
	"time"

	"l3/internal/histogram"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/timeseries"
)

// scrape appends one snapshot of reg at time t, sample by sample by labels.
func scrape(db *timeseries.DB, t time.Duration, reg *metrics.Registry) {
	for _, s := range reg.Snapshot() {
		db.AppendSample(s.Name, s.Labels, s.Kind, t, s.Value)
	}
}

// seedMetrics simulates two scrape intervals of traffic for one backend:
// reqs requests at the given success fraction, successes spread across a
// latency histogram centred on latSeconds, and a constant inflight gauge.
func seedMetrics(t *testing.T, db *timeseries.DB, service, backendName string, reqs int, successFrac, latSeconds, inflight float64) {
	t.Helper()
	reg := metrics.NewRegistry()
	base := metrics.Labels{"service": service, "backend": backendName}
	succ := base.With("classification", mesh.ClassSuccess)
	fail := base.With("classification", mesh.ClassFailure)

	scrape(db, 0, reg) // empty baseline would create no series; scrape after registration instead

	nSucc := int(float64(reqs) * successFrac)
	h := reg.Histogram(mesh.MetricResponseLatency, succ, histogram.LinkerdLatencyBounds)
	reg.Counter(mesh.MetricResponseTotal, succ).Add(0)
	reg.Counter(mesh.MetricResponseTotal, fail).Add(0)
	reg.Gauge(mesh.MetricInflight, base).Set(inflight)
	scrape(db, 5*time.Second, reg)

	reg.Counter(mesh.MetricResponseTotal, succ).Add(float64(nSucc))
	reg.Counter(mesh.MetricResponseTotal, fail).Add(float64(reqs - nSucc))
	for i := 0; i < nSucc; i++ {
		h.Observe(latSeconds)
	}
	scrape(db, 10*time.Second, reg)
}

func TestCollectorBasics(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	// 100 requests over the 5s between scrapes => 20 RPS, 90% success.
	seedMetrics(t, db, "api", "b1", 100, 0.9, 0.045, 3)

	c := &Collector{DB: db}
	m := c.Collect(10*time.Second, "api", []string{"b1", "ghost"})

	b1 := m["b1"]
	if !b1.HasTraffic {
		t.Fatal("b1 should have traffic")
	}
	if math.Abs(b1.RPS-20) > 0.01 {
		t.Fatalf("RPS = %v, want 20", b1.RPS)
	}
	if math.Abs(b1.SuccessRate-0.9) > 0.01 {
		t.Fatalf("SuccessRate = %v, want 0.9", b1.SuccessRate)
	}
	if !b1.P99Valid || b1.P99 < 0.040 || b1.P99 > 0.051 {
		t.Fatalf("P99 = %v (valid=%v), want ~45ms bucket", b1.P99, b1.P99Valid)
	}
	if !b1.MeanValid || math.Abs(b1.MeanLatency-0.045) > 0.002 {
		t.Fatalf("MeanLatency = %v (valid=%v)", b1.MeanLatency, b1.MeanValid)
	}
	if math.Abs(b1.Inflight-3) > 0.01 {
		t.Fatalf("Inflight = %v, want 3", b1.Inflight)
	}

	ghost := m["ghost"]
	if ghost.HasTraffic {
		t.Fatal("ghost backend reported traffic")
	}
}

func TestCollectorAllFailuresNoP99(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	seedMetrics(t, db, "api", "dead", 50, 0, 0.1, 0)
	c := &Collector{DB: db}
	m := c.Collect(10*time.Second, "api", []string{"dead"})
	dead := m["dead"]
	if !dead.HasTraffic {
		t.Fatal("dead backend has traffic (all failing)")
	}
	if dead.SuccessRate != 0 {
		t.Fatalf("SuccessRate = %v, want 0", dead.SuccessRate)
	}
	if dead.P99Valid {
		t.Fatal("P99 should be invalid with zero successful responses")
	}
}

func TestCollectorServiceScoping(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	seedMetrics(t, db, "api", "b", 100, 1, 0.05, 0)
	seedMetrics(t, db, "web", "b", 200, 1, 0.05, 0)
	c := &Collector{DB: db}

	api := c.Collect(10*time.Second, "api", []string{"b"})["b"]
	if math.Abs(api.RPS-20) > 0.01 {
		t.Fatalf("scoped RPS = %v, want 20 (api only)", api.RPS)
	}
	all := c.Collect(10*time.Second, "", []string{"b"})["b"]
	if math.Abs(all.RPS-60) > 0.01 {
		t.Fatalf("unscoped RPS = %v, want 60 (both services)", all.RPS)
	}
}

func TestCollectorStaleWindow(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	seedMetrics(t, db, "api", "b", 100, 1, 0.05, 0)
	c := &Collector{DB: db}
	// 30s later, the 10s window holds at most one sample: no traffic.
	m := c.Collect(40*time.Second, "api", []string{"b"})
	if m["b"].HasTraffic {
		t.Fatal("stale backend still reports traffic")
	}
}

// The standing selectors are bound to a database: a collector pointed at
// another one answers from it, as a new collector would.
func TestCollectorFollowsItsDB(t *testing.T) {
	busy, idle := timeseries.NewDB(time.Minute), timeseries.NewDB(time.Minute)
	seedMetrics(t, busy, "api", "b", 100, 1, 0.05, 0)
	c := &Collector{DB: busy}
	if m := c.Collect(10*time.Second, "api", []string{"b"}); !m["b"].HasTraffic {
		t.Fatal("no traffic collected from the seeded database")
	}
	c.DB = idle
	if m := c.Collect(10*time.Second, "api", []string{"b"}); m["b"].HasTraffic || m["b"].LastSample != 0 {
		t.Fatalf("collected %+v from an empty database: selectors still read the old one", m["b"])
	}
	seedMetrics(t, idle, "api", "b", 50, 1, 0.05, 0)
	got, want := c.Collect(10*time.Second, "api", []string{"b"})["b"], (&Collector{DB: idle}).Collect(10*time.Second, "api", []string{"b"})["b"]
	if got != want || !got.HasTraffic {
		t.Fatalf("after the swap collected %+v, a new collector %+v", got, want)
	}
}

func TestCollectorDefaultsAndClamps(t *testing.T) {
	c := &Collector{DB: timeseries.NewDB(time.Minute)}
	if c.window() != 10*time.Second {
		t.Fatalf("window default = %v", c.window())
	}
	if c.percentile() != 0.99 {
		t.Fatalf("percentile default = %v", c.percentile())
	}
	c.Percentile = 1.5
	if c.percentile() != 0.99 {
		t.Fatalf("percentile clamp = %v", c.percentile())
	}
}

func TestTotalRPS(t *testing.T) {
	m := map[string]BackendMetrics{
		"a": {RPS: 10, HasTraffic: true},
		"b": {RPS: 20, HasTraffic: true},
		"c": {RPS: 99, HasTraffic: false}, // stale, excluded
	}
	if got := TotalRPS(m, []string{"a", "b", "c"}); got != 30 {
		t.Fatalf("TotalRPS = %v, want 30", got)
	}
}

func TestCollectorFailureMeanLatency(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	reg := metrics.NewRegistry()
	base := metrics.Labels{"service": "api", "backend": "b"}
	fail := base.With("classification", mesh.ClassFailure)
	h := reg.Histogram(mesh.MetricResponseLatency, fail, histogram.LinkerdLatencyBounds)
	reg.Counter(mesh.MetricResponseTotal, fail).Add(0)
	scrape(db, 5*time.Second, reg)
	for i := 0; i < 10; i++ {
		h.Observe(0.2)
	}
	reg.Counter(mesh.MetricResponseTotal, fail).Add(10)
	scrape(db, 10*time.Second, reg)

	c := &Collector{DB: db}
	m := c.Collect(10*time.Second, "api", []string{"b"})["b"]
	if !m.FailureMeanValid || math.Abs(m.FailureMeanLatency-0.2) > 1e-9 {
		t.Fatalf("FailureMeanLatency = %v (valid=%v), want 0.2", m.FailureMeanLatency, m.FailureMeanValid)
	}
	if m.P99Valid {
		t.Fatal("P99 should be invalid with zero successes")
	}
}

func TestCollectorSingleScrapeWindowIsStarved(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	reg := metrics.NewRegistry()
	base := metrics.Labels{"service": "api", "backend": "b"}
	succ := base.With("classification", mesh.ClassSuccess)
	reg.Counter(mesh.MetricResponseTotal, succ).Add(100)
	scrape(db, 5*time.Second, reg)

	c := &Collector{DB: db}
	m := c.Collect(10*time.Second, "api", []string{"b"})["b"]
	// One sample cannot produce a rate; but a sample exists, so this is a
	// data gap, not idleness.
	if m.HasTraffic {
		t.Fatal("single-sample window reported traffic")
	}
	if !m.Starved {
		t.Fatal("single-sample window not marked Starved")
	}
	if m.LastSample != 5*time.Second {
		t.Fatalf("LastSample = %v, want 5s", m.LastSample)
	}
}

func TestCollectorNeverScrapedIsNotStarved(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	c := &Collector{DB: db}
	m := c.Collect(10*time.Second, "api", []string{"ghost"})["ghost"]
	if m.Starved || m.LastSample != 0 {
		t.Fatalf("never-scraped backend: Starved=%v LastSample=%v, want false/0", m.Starved, m.LastSample)
	}
}

func TestCollectorOutOfOrderScrapesDoNotCorruptWindow(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	reg := metrics.NewRegistry()
	base := metrics.Labels{"service": "api", "backend": "b"}
	succ := base.With("classification", mesh.ClassSuccess)
	ctr := reg.Counter(mesh.MetricResponseTotal, succ)
	ctr.Add(0)
	scrape(db, 5*time.Second, reg)
	ctr.Add(100)
	scrape(db, 10*time.Second, reg)
	// A late, back-dated scrape (clock skew) carries a value the series
	// already moved past; the DB drops it, so the window stays clean.
	ctr.Add(50)
	scrape(db, 7*time.Second, reg)

	c := &Collector{DB: db}
	m := c.Collect(10*time.Second, "api", []string{"b"})["b"]
	if !m.HasTraffic || math.Abs(m.RPS-20) > 0.01 {
		t.Fatalf("RPS = %v (traffic=%v), want 20 (out-of-order scrape dropped)", m.RPS, m.HasTraffic)
	}
	if m.LastSample != 10*time.Second {
		t.Fatalf("LastSample = %v, want 10s (frontier unmoved)", m.LastSample)
	}
}

func TestCollectorDuplicateTimestampScrapes(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	reg := metrics.NewRegistry()
	base := metrics.Labels{"service": "api", "backend": "b"}
	succ := base.With("classification", mesh.ClassSuccess)
	ctr := reg.Counter(mesh.MetricResponseTotal, succ)
	ctr.Add(0)
	scrape(db, 5*time.Second, reg)
	ctr.Add(100)
	scrape(db, 10*time.Second, reg)
	// The same instant scraped again (double-fire) must not double the rate:
	// equal timestamps are not "newer", so the duplicate is dropped.
	ctr.Add(100)
	scrape(db, 10*time.Second, reg)

	c := &Collector{DB: db}
	m := c.Collect(10*time.Second, "api", []string{"b"})["b"]
	if !m.HasTraffic || math.Abs(m.RPS-20) > 0.01 {
		t.Fatalf("RPS = %v (traffic=%v), want 20 (duplicate-timestamp scrape dropped)", m.RPS, m.HasTraffic)
	}
}

// fixedResets is a ResetSource reporting one splice time for every series.
type fixedResets struct {
	at time.Duration
	ok bool
}

func (f fixedResets) LastReset(match metrics.Labels) (time.Duration, bool) { return f.at, f.ok }

func TestCollectorResetSeen(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	seedMetrics(t, db, "api", "b", 100, 1, 0.05, 0)
	c := &Collector{DB: db}

	m := c.Collect(10*time.Second, "api", []string{"b"})["b"]
	if m.ResetSeen {
		t.Fatal("ResetSeen without a ResetSource")
	}

	c.Resets = fixedResets{at: 8 * time.Second, ok: true}
	m = c.Collect(10*time.Second, "api", []string{"b"})["b"]
	if !m.ResetSeen {
		t.Fatal("in-window reset not flagged")
	}
	// A reset older than the window no longer taints it.
	m = c.Collect(30*time.Second, "api", []string{"b"})["b"]
	if m.ResetSeen {
		t.Fatal("out-of-window reset still flagged")
	}
}

// Collect allocates its result map once, on the first call: a warm Collect —
// selectors cached, database scratch sized, the map refilled — allocates
// nothing.
func TestCollectAllocatesOnlyItsResult(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	backends := []string{"api-cluster-1", "api-cluster-2", "api-cluster-3"}
	for _, b := range backends {
		seedMetrics(t, db, "api", b, 100, 0.9, 0.05, 3)
	}
	c := &Collector{DB: db}
	c.Match = metrics.Labels{"service": "api"}
	if m := c.Collect(10*time.Second, "api", backends); !m["api-cluster-2"].P99Valid || !m["api-cluster-2"].MeanValid {
		t.Fatalf("seeded backend not fully collected: %+v", m["api-cluster-2"])
	}
	if got := testing.AllocsPerRun(100, func() { c.Collect(10*time.Second, "api", backends) }); got != 0 {
		t.Errorf("warm Collect: %v allocs, want 0", got)
	}
	if m := c.Collect(10*time.Second, "api", backends[:1]); len(m) != 1 {
		t.Errorf("a Collect of one backend returned %d, want the refilled map to hold only it", len(m))
	}
}

// The cached selectors follow Match: a collector re-scoped to another source
// cluster must not keep answering for the old one.
func TestCollectorSelectorsFollowMatch(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	for _, src := range []string{"cluster-1", "cluster-2"} {
		l := metrics.Labels{"service": "api", "backend": "b", "src": src, "classification": mesh.ClassSuccess}
		db.Append(mesh.MetricResponseTotal, l, time.Second, 0)
		db.Append(mesh.MetricResponseTotal, l, 6*time.Second, map[string]float64{"cluster-1": 50, "cluster-2": 500}[src])
	}
	c := &Collector{DB: db}
	for src, want := range map[string]float64{"cluster-1": 10, "cluster-2": 100} {
		c.Match = metrics.Labels{"src": src}
		if got := c.Collect(10*time.Second, "api", []string{"b"})["b"].RPS; got != want {
			t.Fatalf("Match src=%s: RPS %v, want %v", src, got, want)
		}
	}
	c.Match = nil
	if got := c.Collect(10*time.Second, "api", []string{"b"})["b"].RPS; got != 110 {
		t.Fatalf("no Match: RPS %v, want 110", got)
	}
}
