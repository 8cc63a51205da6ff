package timeseries

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"l3/internal/histogram"
	"l3/internal/metrics"
	"l3/internal/sim"
)

func TestAppendAndLatest(t *testing.T) {
	db := NewDB(time.Minute)
	db.Append("x", metrics.Labels{"a": "1"}, 5*time.Second, 10)
	db.Append("x", metrics.Labels{"a": "1"}, 10*time.Second, 20)
	v, ok := db.Latest("x", nil, 12*time.Second)
	if !ok || v != 20 {
		t.Fatalf("Latest = %v,%v want 20,true", v, ok)
	}
	v, ok = db.Latest("x", nil, 7*time.Second)
	if !ok || v != 10 {
		t.Fatalf("Latest at 7s = %v,%v want 10,true", v, ok)
	}
	if _, ok := db.Latest("x", nil, time.Second); ok {
		t.Fatal("Latest before first sample should be !ok")
	}
	if _, ok := db.Latest("missing", nil, time.Minute); ok {
		t.Fatal("Latest of unknown family should be !ok")
	}
}

func TestLatestSumsAcrossSeries(t *testing.T) {
	db := NewDB(time.Minute)
	db.Append("g", metrics.Labels{"b": "1"}, time.Second, 3)
	db.Append("g", metrics.Labels{"b": "2"}, time.Second, 4)
	v, ok := db.Latest("g", nil, 2*time.Second)
	if !ok || v != 7 {
		t.Fatalf("Latest sum = %v, want 7", v)
	}
	v, ok = db.Latest("g", metrics.Labels{"b": "2"}, 2*time.Second)
	if !ok || v != 4 {
		t.Fatalf("Latest matched = %v, want 4", v)
	}
}

func TestOutOfOrderAppendDropped(t *testing.T) {
	db := NewDB(time.Minute)
	db.Append("x", nil, 10*time.Second, 1)
	db.Append("x", nil, 5*time.Second, 99)
	v, ok := db.Latest("x", nil, time.Minute)
	if !ok || v != 1 {
		t.Fatalf("out-of-order sample accepted: %v", v)
	}
}

func TestRateBasic(t *testing.T) {
	db := NewDB(time.Minute)
	// Counter increasing 10/s sampled every 5s.
	for i := 0; i <= 4; i++ {
		db.Append("req_total", nil, time.Duration(i)*5*time.Second, float64(i)*50)
	}
	r, ok := db.Rate("req_total", nil, 20*time.Second, 10*time.Second)
	if !ok || math.Abs(r-10) > 1e-9 {
		t.Fatalf("Rate = %v,%v want 10,true", r, ok)
	}
}

func TestRateNeedsTwoSamples(t *testing.T) {
	db := NewDB(time.Minute)
	db.Append("c", nil, 5*time.Second, 100)
	if _, ok := db.Rate("c", nil, 10*time.Second, 10*time.Second); ok {
		t.Fatal("rate with one sample in window should be !ok")
	}
	// Second sample outside the window does not help.
	db.Append("c", nil, 30*time.Second, 300)
	if _, ok := db.Rate("c", nil, 31*time.Second, 5*time.Second); ok {
		t.Fatal("rate with one in-window sample should be !ok")
	}
}

func TestRateSumsAcrossSeries(t *testing.T) {
	db := NewDB(time.Minute)
	for i := 0; i <= 2; i++ {
		ts := time.Duration(i) * 5 * time.Second
		db.Append("c", metrics.Labels{"b": "east"}, ts, float64(i*10))
		db.Append("c", metrics.Labels{"b": "west"}, ts, float64(i*30))
	}
	r, ok := db.Rate("c", nil, 10*time.Second, 10*time.Second)
	if !ok || math.Abs(r-8) > 1e-9 { // 2/s + 6/s
		t.Fatalf("summed rate = %v, want 8", r)
	}
	r, ok = db.Rate("c", metrics.Labels{"b": "west"}, 10*time.Second, 10*time.Second)
	if !ok || math.Abs(r-6) > 1e-9 {
		t.Fatalf("matched rate = %v, want 6", r)
	}
}

func TestRateHandlesCounterReset(t *testing.T) {
	db := NewDB(time.Minute)
	db.Append("c", nil, time.Second, 100)
	db.Append("c", nil, 6*time.Second, 150)
	db.Append("c", nil, 11*time.Second, 20) // reset, +20
	r, ok := db.Rate("c", nil, 11*time.Second, 11*time.Second)
	if !ok || math.Abs(r-7) > 1e-9 { // (50+20)/10s elapsed
		t.Fatalf("rate with reset = %v, want 7", r)
	}
}

func TestWindowIsHalfOpen(t *testing.T) {
	db := NewDB(time.Minute)
	db.Append("c", nil, 0, 0)
	db.Append("c", nil, 5*time.Second, 50)
	db.Append("c", nil, 10*time.Second, 100)
	// Window (0, 10]: the t=0 sample is excluded, leaving 2 samples.
	r, ok := db.Rate("c", nil, 10*time.Second, 10*time.Second)
	if !ok || math.Abs(r-10) > 1e-9 {
		t.Fatalf("half-open window rate = %v, want 10", r)
	}
}

func TestGaugeAvg(t *testing.T) {
	db := NewDB(time.Minute)
	db.Append("inflight", nil, 5*time.Second, 4)
	db.Append("inflight", nil, 10*time.Second, 8)
	v, ok := db.GaugeAvg("inflight", nil, 10*time.Second, 10*time.Second)
	if !ok || v != 6 {
		t.Fatalf("GaugeAvg = %v, want 6", v)
	}
	if _, ok := db.GaugeAvg("inflight", nil, 3*time.Second, time.Second); ok {
		t.Fatal("GaugeAvg with empty window should be !ok")
	}
}

func TestRetentionCompaction(t *testing.T) {
	db := NewDB(10 * time.Second)
	for i := 0; i < 100; i++ {
		db.Append("c", nil, time.Duration(i)*time.Second, float64(i))
	}
	// Old samples must be gone: a rate query over a huge window sees only
	// recent points, and Latest at an old timestamp fails.
	if _, ok := db.Latest("c", nil, 50*time.Second); ok {
		t.Fatal("sample older than retention still present")
	}
	v, ok := db.Latest("c", nil, 99*time.Second)
	if !ok || v != 99 {
		t.Fatalf("recent sample lost: %v %v", v, ok)
	}
}

func TestScrapeRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("req_total", metrics.Labels{"b": "x"}).Add(5)
	reg.Gauge("inflight", nil).Set(2)
	db := NewDB(time.Minute)
	db.Scrape(5*time.Second, reg)
	reg.Counter("req_total", metrics.Labels{"b": "x"}).Add(45)
	db.Scrape(10*time.Second, reg)

	r, ok := db.Rate("req_total", nil, 10*time.Second, 10*time.Second)
	if !ok || math.Abs(r-9) > 1e-9 {
		t.Fatalf("scraped rate = %v, want 9", r)
	}
	v, ok := db.Latest("inflight", nil, 10*time.Second)
	if !ok || v != 2 {
		t.Fatalf("scraped gauge = %v, want 2", v)
	}
}

func TestHistogramQuantileThroughScrapes(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("lat", metrics.Labels{"b": "east"}, histogram.LinkerdLatencyBounds)
	db := NewDB(time.Minute)
	db.Scrape(0, reg)
	// Observe 100 values around 40-50ms and 1 outlier at 2s between scrapes.
	for i := 0; i < 99; i++ {
		h.Observe(0.045)
	}
	h.Observe(2.0)
	db.Scrape(5*time.Second, reg)

	p50, ok := db.HistogramQuantile(0.5, "lat", nil, 5*time.Second, 10*time.Second)
	if !ok {
		t.Fatal("quantile !ok")
	}
	if p50 < 0.030 || p50 > 0.050 {
		t.Fatalf("p50 = %v, want within the 30-50ms bucket range", p50)
	}
	p999, ok := db.HistogramQuantile(0.999, "lat", nil, 5*time.Second, 10*time.Second)
	if !ok || p999 < 1 || p999 > 2 {
		t.Fatalf("p99.9 = %v, want in (1,2]", p999)
	}
}

func TestHistogramQuantileNoIncreaseIsNotOK(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("lat", nil, []float64{0.1, 1})
	h.Observe(0.05)
	db := NewDB(time.Minute)
	db.Scrape(0, reg)
	db.Scrape(5*time.Second, reg) // no new observations between scrapes
	if _, ok := db.HistogramQuantile(0.99, "lat", nil, 5*time.Second, 10*time.Second); ok {
		t.Fatal("quantile over zero-increase window should be !ok")
	}
}

func TestHistogramQuantileMergesSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	he := reg.Histogram("lat", metrics.Labels{"b": "east"}, []float64{0.1, 1, 10})
	hw := reg.Histogram("lat", metrics.Labels{"b": "west"}, []float64{0.1, 1, 10})
	db := NewDB(time.Minute)
	db.Scrape(0, reg)
	for i := 0; i < 50; i++ {
		he.Observe(0.05) // fast east
		hw.Observe(5.0)  // slow west
	}
	db.Scrape(5*time.Second, reg)

	// Merged median must land between the two clusters' buckets.
	p50, ok := db.HistogramQuantile(0.5, "lat", nil, 5*time.Second, 10*time.Second)
	if !ok || p50 > 1.0 {
		t.Fatalf("merged p50 = %v, want <= 1.0 (east bucket boundary)", p50)
	}
	p99, ok := db.HistogramQuantile(0.99, "lat", nil, 5*time.Second, 10*time.Second)
	if !ok || p99 < 1.0 {
		t.Fatalf("merged p99 = %v, want > 1.0 (west bucket)", p99)
	}
	// Per-backend query isolates east.
	p99e, ok := db.HistogramQuantile(0.99, "lat", metrics.Labels{"b": "east"}, 5*time.Second, 10*time.Second)
	if !ok || p99e > 0.2 {
		t.Fatalf("east p99 = %v, want <= 0.1-ish", p99e)
	}
}

func TestSeriesCount(t *testing.T) {
	db := NewDB(time.Minute)
	db.Append("a", metrics.Labels{"x": "1"}, 0, 1)
	db.Append("a", metrics.Labels{"x": "2"}, 0, 1)
	db.Append("b", nil, 0, 1)
	if got := db.SeriesCount(); got != 3 {
		t.Fatalf("SeriesCount = %d, want 3", got)
	}
}

func TestRateNonNegativeForMonotoneCountersProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rr := sim.NewRand(seed)
		db := NewDB(time.Minute)
		v := 0.0
		for i := 0; i <= 12; i++ {
			v += float64(rr.IntN(100))
			db.Append("c", nil, time.Duration(i)*5*time.Second, v)
		}
		for at := 10 * time.Second; at <= 60*time.Second; at += 5 * time.Second {
			if r, ok := db.Rate("c", nil, at, 10*time.Second); ok && r < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileMonotoneInQProperty(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("lat", nil, histogram.LinkerdLatencyBounds)
	db := NewDB(time.Minute)
	db.Scrape(0, reg)
	rr := sim.NewRand(7)
	for i := 0; i < 500; i++ {
		h.Observe(float64(rr.IntN(2000)) / 1000)
	}
	db.Scrape(5*time.Second, reg)
	prev := -1.0
	for q := 0.05; q < 1.0; q += 0.05 {
		v, ok := db.HistogramQuantile(q, "lat", nil, 5*time.Second, 10*time.Second)
		if !ok {
			t.Fatalf("quantile %v not ok", q)
		}
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

// rejectOddGate admits even values, rejects odd ones, and doubles what it
// admits — enough behaviour to prove both the reject and the adjust path.
type rejectOddGate struct{ rejected int }

func (g *rejectOddGate) Admit(name string, labels metrics.Labels, kind metrics.Kind, t time.Duration, v float64) (float64, bool) {
	if int64(v)%2 != 0 {
		g.rejected++
		return 0, false
	}
	return v * 2, true
}

func TestAppendSampleRoutesThroughGate(t *testing.T) {
	db := NewDB(time.Minute)
	g := &rejectOddGate{}
	db.SetGate(g)
	db.AppendSample("c", nil, metrics.KindCounter, 5*time.Second, 10)
	db.AppendSample("c", nil, metrics.KindCounter, 10*time.Second, 11) // rejected
	db.AppendSample("c", nil, metrics.KindCounter, 15*time.Second, 20)
	if g.rejected != 1 {
		t.Fatalf("gate rejected %d, want 1", g.rejected)
	}
	v, ok := db.Latest("c", nil, time.Minute)
	if !ok || v != 40 { // adjusted: 20*2
		t.Fatalf("Latest = %v,%v want 40 (gate-adjusted)", v, ok)
	}
	// The rejected sample left no trace: only two points stored.
	if at, ok := db.NewestSample("c", nil); !ok || at != 15*time.Second {
		t.Fatalf("NewestSample = %v,%v want 15s", at, ok)
	}
}

func TestAppendSampleWithoutGateIsAppend(t *testing.T) {
	db := NewDB(time.Minute)
	db.AppendSample("c", nil, metrics.KindCounter, 5*time.Second, 7)
	v, ok := db.Latest("c", nil, time.Minute)
	if !ok || v != 7 {
		t.Fatalf("Latest = %v,%v want 7 (ungated passthrough)", v, ok)
	}
}

func TestNewestSample(t *testing.T) {
	db := NewDB(time.Minute)
	if _, ok := db.NewestSample("c", nil); ok {
		t.Fatal("NewestSample of unknown family should be !ok")
	}
	db.Append("c", metrics.Labels{"b": "east"}, 5*time.Second, 1)
	db.Append("c", metrics.Labels{"b": "west"}, 9*time.Second, 1)
	at, ok := db.NewestSample("c", nil)
	if !ok || at != 9*time.Second {
		t.Fatalf("NewestSample all = %v,%v want 9s", at, ok)
	}
	at, ok = db.NewestSample("c", metrics.Labels{"b": "east"})
	if !ok || at != 5*time.Second {
		t.Fatalf("NewestSample east = %v,%v want 5s", at, ok)
	}
	if _, ok := db.NewestSample("c", metrics.Labels{"b": "north"}); ok {
		t.Fatal("NewestSample of unmatched labels should be !ok")
	}
}

func TestScrapeRoutesThroughGate(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("req_total", nil).Add(4)
	db := NewDB(time.Minute)
	db.SetGate(&rejectOddGate{})
	db.Scrape(5*time.Second, reg)
	v, ok := db.Latest("req_total", nil, time.Minute)
	if !ok || v != 8 { // 4 doubled by the gate
		t.Fatalf("gated scrape stored %v,%v want 8", v, ok)
	}
}

// Filing a family's series allocates only when the family's ordinals or a
// label's next array fill up, each doubling, or a label's map of values
// grows, doubling too: inserting N series with L labels costs O(L·log N)
// allocations. A list per value, grown an entry at a time, costs
// allocations for every value's list: over two thousand here, where the
// backend label alone has 512 values.
func TestFamilyInsertAllocsAreLogarithmic(t *testing.T) {
	const n, labels = 4096, 5
	var ix metrics.Index[seriesData]
	ss := make([]*series, n)
	for i := range ss {
		s, _ := ix.Resolve("response_latency_bucket", metrics.Labels{
			"service":        "svc",
			"cluster":        strconv.Itoa(i % 4),
			"classification": strconv.Itoa(i / 4 % 2),
			"le":             strconv.Itoa(i / 8 % 16),
			"backend":        strconv.Itoa(i/128*16 + i%16),
		})
		ss[i] = s
	}
	var f *family
	allocs := testing.AllocsPerRun(1, func() {
		f = &family{postings: make(map[string]*postings)}
		for _, s := range ss {
			f.insert(s)
		}
	})
	if len(f.series) != n || len(f.postings) != labels {
		t.Fatalf("family holds %d series under %d labels, want %d under %d", len(f.series), len(f.postings), n, labels)
	}
	bound := 2 * labels * math.Log2(n)
	t.Logf("%v allocations to file %d series with %d labels (bound %v)", allocs, n, labels, bound)
	if allocs > bound {
		t.Errorf("filing %d series with %d labels: %v allocations, want at most %v", n, labels, allocs, bound)
	}
}
