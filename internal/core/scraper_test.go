package core

import (
	"errors"
	"testing"
	"time"

	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/timeseries"
)

func TestScraperScrapesAtInterval(t *testing.T) {
	engine := sim.NewEngine()
	reg := metrics.NewRegistry()
	counter := reg.Counter("reqs", nil)
	db := timeseries.NewDB(time.Minute)

	s := NewScraperClock(engine, db, []*metrics.Registry{reg}, 5*time.Second)
	s.Start()
	engine.Every(time.Second, func() { counter.Add(10) })

	engine.RunUntil(30 * time.Second)
	rate, ok := db.Rate("reqs", nil, 30*time.Second, 10*time.Second)
	if !ok {
		t.Fatal("no rate after six scrapes")
	}
	if rate < 9 || rate > 11 {
		t.Fatalf("rate = %v, want ~10/s", rate)
	}
}

func TestScraperStop(t *testing.T) {
	engine := sim.NewEngine()
	reg := metrics.NewRegistry()
	reg.Counter("x", nil).Inc()
	db := timeseries.NewDB(time.Minute)
	s := NewScraperClock(engine, db, []*metrics.Registry{reg}, 5*time.Second)
	s.Start()
	engine.RunUntil(12 * time.Second)
	s.Stop()
	engine.RunUntil(time.Minute)
	// After stop, no samples past 12s: Latest at 60s equals Latest at 12s
	// and a rate query over recent window fails.
	if _, ok := db.Rate("x", nil, time.Minute, 10*time.Second); ok {
		t.Fatal("samples kept arriving after Stop")
	}
}

func TestScraperDefaultInterval(t *testing.T) {
	engine := sim.NewEngine()
	reg := metrics.NewRegistry()
	reg.Gauge("g", nil).Set(1)
	db := timeseries.NewDB(time.Minute)
	NewScraperClock(engine, db, []*metrics.Registry{reg}, 0).Start() // default 5s
	engine.RunUntil(6 * time.Second)
	if _, ok := db.Latest("g", nil, 6*time.Second); !ok {
		t.Fatal("default-interval scraper produced no samples by 6s")
	}
}

// A text pass that fails stores nothing, counts as dropped and leaves the
// last-ingest time where it was; a pass still out when the next tick comes
// makes that tick a drop, and lands stamped with its own tick's time.
func TestTextSourceFailuresAndPendingPasses(t *testing.T) {
	engine := sim.NewEngine()
	db := timeseries.NewDB(time.Minute)
	s := NewScraperClock(engine, db, nil, 5*time.Second)
	var fail error
	var hold bool
	var held func([]metrics.Sample, error)
	up := func(v float64) []metrics.Sample {
		return []metrics.Sample{{Name: "up", Kind: metrics.KindGauge, Value: v}}
	}
	s.SetSource(func(done func([]metrics.Sample, error)) {
		if hold {
			held = done // the fetch is still out
			return
		}
		done(up(1), fail)
	})
	s.Start()
	engine.RunUntil(5 * time.Second)
	if s.Ingests() != 1 || s.LastIngest() != 5*time.Second || s.Dropped() != 0 {
		t.Fatalf("after one pass: ingests %d, last ingest %v, dropped %d", s.Ingests(), s.LastIngest(), s.Dropped())
	}

	fail = errors.New("scrape refused")
	engine.RunUntil(15 * time.Second)
	if s.Ingests() != 1 || s.LastIngest() != 5*time.Second || s.Dropped() != 2 {
		t.Fatalf("after two failed passes: ingests %d, last ingest %v, dropped %d", s.Ingests(), s.LastIngest(), s.Dropped())
	}
	if at, ok := db.NewestSample("up", nil); !ok || at != 5*time.Second {
		t.Fatalf("newest sample at %v, %v; a failed pass stored something", at, ok)
	}

	fail, hold = nil, true
	engine.RunUntil(25 * time.Second) // the 20 s pass is held; the 25 s tick drops
	if held == nil || s.Dropped() != 3 || s.Ingests() != 1 {
		t.Fatalf("held %v, dropped %d, ingests %d; want the 25 s tick dropped behind the held pass", held != nil, s.Dropped(), s.Ingests())
	}
	held(up(2), nil)
	if s.Ingests() != 2 || s.LastIngest() != 25*time.Second {
		t.Fatalf("after the held pass: ingests %d, last ingest %v", s.Ingests(), s.LastIngest())
	}
	if at, ok := db.NewestSample("up", nil); !ok || at != 20*time.Second {
		t.Fatalf("held pass stored at %v, %v; want its tick's 20 s", at, ok)
	}
}

func TestL3AssignerPipelinesWeightingAndRateControl(t *testing.T) {
	a := NewL3Assigner(WeightingConfig{}, RateControlConfig{}, true)
	if a.RateController() == nil {
		t.Fatal("rate controller missing when enabled")
	}
	m := map[string]BackendMetrics{
		"fast": observed(0.050, 1, 100, 0),
		"slow": observed(0.500, 1, 100, 0),
	}
	var w map[string]float64
	for i := 0; i < 30; i++ {
		w = a.Assign(time.Duration(i)*5*time.Second, m)
	}
	if w["fast"] <= w["slow"] {
		t.Fatalf("weights: %v", w)
	}
	// Steady total RPS: rate controller must not disturb the ratios much.
	ratio := w["fast"] / w["slow"]
	if ratio < 5 || ratio > 15 {
		t.Fatalf("ratio = %v, want near the 10x latency gap", ratio)
	}
	// Surge: weights compress toward the mean.
	surged := map[string]BackendMetrics{
		"fast": observed(0.050, 1, 400, 0),
		"slow": observed(0.500, 1, 400, 0),
	}
	w2 := a.Assign(200*time.Second, surged)
	if r2 := w2["fast"] / w2["slow"]; r2 >= ratio {
		t.Fatalf("surge did not compress weights: before %v after %v", ratio, r2)
	}
}

func TestL3AssignerWithoutRateControl(t *testing.T) {
	a := NewL3Assigner(WeightingConfig{}, RateControlConfig{}, false)
	if a.RateController() != nil {
		t.Fatal("rate controller present when disabled")
	}
	m := map[string]BackendMetrics{"b": observed(0.1, 1, 100, 0)}
	if w := a.Assign(0, m); w["b"] <= 0 {
		t.Fatalf("weight = %v", w["b"])
	}
	a.Forget("b")
	if _, ok := a.Weighter().View("b"); ok {
		t.Fatal("Forget did not clear state")
	}
}
