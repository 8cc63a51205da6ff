package timeseries_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"l3/internal/core"
	"l3/internal/guard"
	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/timeseries"
)

// sameCounters compares two registries' samples value for value: the
// hygiene gates' rejection and reset counters, reason by reason.
func sameCounters(got, want *metrics.Registry) error {
	g, w := got.Snapshot(), want.Snapshot()
	if len(g) != len(w) {
		return fmt.Errorf("%d counters, oracle has %d", len(g), len(w))
	}
	for i := range w {
		if g[i].Name != w[i].Name || !g[i].Labels.Equal(w[i].Labels) || g[i].Value != w[i].Value {
			return fmt.Errorf("%s%v = %v, oracle has %s%v = %v", g[i].Name, g[i].Labels, g[i].Value, w[i].Name, w[i].Labels, w[i].Value)
		}
	}
	return nil
}

// A registry hands a histogram's _sum and _count samples one label map. The
// hygiene gate indexes maps per metric name, so each keeps its own state: an
// index keyed by the map alone sends _count to _sum's state from the second
// scrape on, where it is rejected as a duplicate timestamp.
func TestHistogramSumAndCountKeepTheirOwnHygieneState(t *testing.T) {
	engine := sim.NewEngine()
	reg, hygReg := metrics.NewRegistry(), metrics.NewRegistry()
	h := reg.Histogram("response_latency", metrics.Labels{"backend": "b"}, []float64{0.1, 1})
	db := timeseries.NewDB(time.Minute)
	hyg := guard.NewHygiene(guard.Config{}, hygReg)
	db.SetGate(hyg)
	core.NewScraperClock(engine, db, []*metrics.Registry{reg}, 5*time.Second).Start()
	engine.Every(time.Second, func() { h.Observe(0.25) })
	const ticks = 8
	engine.RunUntil(ticks*5*time.Second + time.Second)

	if dup := hygReg.Counter(guard.MetricRejectedTotal, metrics.Labels{"reason": "duplicate"}).Value(); dup != 0 || hyg.RejectedTotal() != 0 {
		t.Fatalf("%v duplicate rejections, %v in all; want none", dup, hyg.RejectedTotal())
	}
	dump := timeseries.Dump(db)
	sum, count := dump[`response_latency_sum{backend=b}`], dump[`response_latency_count{backend=b}`]
	if len(sum) != ticks || len(count) != ticks {
		t.Fatalf("_sum holds %d points, _count %d; want %d each", len(sum), len(count), ticks)
	}
	for i := range sum {
		if sum[i].V != 0.25*count[i].V || count[i].V == 0 {
			t.Fatalf("point %d: _sum %v, _count %v; want _sum a quarter of a non-zero _count", i, sum[i].V, count[i].V)
		}
	}
}

// parsedFleet is one scrape of a small fleet's text, parsed: every sample's
// labels come from the parse table, one shared map per series.
func parsedFleet(tb testing.TB) []metrics.Sample {
	tb.Helper()
	reg := metrics.NewRegistry()
	for i := 0; i < 6; i++ {
		l := metrics.Labels{"backend": fmt.Sprintf("identity-b%d", i), "classification": "success"}
		reg.Counter("response_total", l).Add(float64(i))
		reg.Histogram("response_latency", l, []float64{0.1, 1}).Observe(0.5)
		reg.Gauge("request_inflight", l).Set(1)
	}
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		tb.Fatal(err)
	}
	samples, err := metrics.ParseExposition(&text)
	if err != nil {
		tb.Fatal(err)
	}
	return samples
}

// The database resolves each appended sample once, through a gate that
// resolves it in its own index, so its index entry is made once per series,
// on the second sighting of its map, never once per sample: the third pass
// over the same parsed samples resolves nothing by hash, and nothing through
// the map step either — each series is the predicted successor of the one
// before. A fresh map per sample — a parse table past its capacity — takes
// the hash path every time and makes no entry. The rule itself is
// metrics.TestIndexIsMadeOncePerSeries's to check.
func TestIndexIsMadeOncePerSeries(t *testing.T) {
	samples := parsedFleet(t)
	n := uint64(len(samples))
	db := timeseries.NewDB(time.Minute)
	db.SetGate(guard.NewHygiene(guard.Config{}, nil))
	at := time.Duration(0)
	pass := func(clone bool) (hashed, mapped uint64, indexed int) {
		at += 5 * time.Second
		mappedBefore, hashedBefore, _ := timeseries.IndexCounts(db)
		var clones []metrics.Labels // alive for the pass: no address is reused
		for _, s := range samples {
			l := s.Labels
			if clone {
				l = l.Clone()
				clones = append(clones, l)
			}
			db.AppendSample(s.Name, l, s.Kind, at, s.Value)
		}
		runtime.KeepAlive(clones)
		mapped, hashed, indexed = timeseries.IndexCounts(db)
		return hashed - hashedBefore, mapped - mappedBefore, indexed
	}
	for i, want := range []struct {
		clone          bool
		hashed, mapped uint64
		indexed        int
	}{
		{false, n, n, 0},      // first sight: created
		{false, n, n, int(n)}, // second sight of the same maps: indexed
		{false, 0, 0, int(n)}, // every sample predicted
		{true, n, n, 0},       // the series arrive under other maps: entries dropped
		{true, n, n, 0},       // and fresh maps make none
		{false, n, n, 0},      // back to the table's maps
		{false, n, n, int(n)},
		{false, 0, 0, int(n)},
	} {
		if hashed, mapped, indexed := pass(want.clone); hashed != want.hashed || mapped != want.mapped || indexed != want.indexed {
			t.Fatalf("pass %d (clone %v): %d hash-path and %d map-path resolutions, %d indexed maps; want %d, %d and %d",
				i+1, want.clone, hashed, mapped, indexed, want.hashed, want.mapped, want.indexed)
		}
	}
	if got := db.SeriesCount(); got != len(samples) {
		t.Fatalf("%d series stored, want %d", got, len(samples))
	}
}

// Several scrapers append through one database and one hygiene gate while a
// collector queries: each index is the database's or the gate's, under its
// owner's lock, so this is the test -race has to pass. Some scrapers hand out the
// shared maps, one clones per sample, one turns its maps over every few
// passes, as a parse table does.
func TestIndexedAppendsRaceWithQueries(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	db.SetGate(guard.NewHygiene(guard.Config{}, nil))
	labels := make([]metrics.Labels, 24)
	for i := range labels {
		labels[i] = metrics.Labels{"backend": fmt.Sprintf("b%d", i%8), "classification": []string{"success", "failure", "x"}[i/8]}
	}
	names := []string{"response_total", "response_latency_sum", "response_latency_count"}
	const passes = 150
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := labels
			for pass := 1; pass <= passes; pass++ {
				if w == 3 && pass%7 == 0 {
					own = make([]metrics.Labels, len(labels))
					for i, l := range labels {
						own[i] = l.Clone()
					}
				}
				at := time.Duration(pass) * time.Second
				for i, l := range own {
					if w == 2 {
						l = l.Clone()
					}
					for _, name := range names {
						db.AppendSample(name, l, metrics.KindCounter, at, float64(pass*(i+1)))
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // the collector
		defer wg.Done()
		sel := timeseries.NewSelector(db, "response_total", metrics.Labels{"classification": "success"})
		for i := 0; i < passes; i++ {
			sel.Rate(time.Duration(passes)*time.Second, time.Minute)
			db.Rate("response_latency_sum", labels[i%len(labels)], time.Duration(passes)*time.Second, time.Minute)
			db.SeriesCount()
		}
	}()
	wg.Wait()
	if got := db.SeriesCount(); got != len(labels)*len(names) {
		t.Fatalf("%d series stored, want %d", got, len(labels)*len(names))
	}
	for key, pts := range timeseries.Dump(db) {
		if last := pts[len(pts)-1]; last.T != passes*time.Second {
			t.Errorf("%s: newest point at %v, want %v", key, last.T, passes*time.Second)
		}
	}
}
