package timeseries_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/timeseries"
)

// standing is one selector kept across a whole stream, over a family by name
// and over the buckets of the histogram of that name, next to what their
// label-taking twins are asked.
type standing struct {
	db      *timeseries.DB
	name    string
	match   metrics.Labels
	series  timeseries.Selector
	buckets timeseries.Selector
}

func newStanding(db *timeseries.DB, name string, match metrics.Labels) *standing {
	return &standing{
		db: db, name: name, match: match,
		series:  timeseries.NewSelector(db, name, match),
		buckets: timeseries.NewSelector(db, name+"_bucket", match),
	}
}

// check asks every selector query and its label-taking twin the same
// question and reports the first pair of answers that differ in any bit.
func (s *standing) check(q float64, at, window time.Duration) error {
	same := func(what string, got float64, gotOK bool, want float64, wantOK bool) error {
		if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("%s(%s%v at=%v window=%v): selector (%v, %v), labels (%v, %v)",
				what, s.name, s.match, at, window, got, gotOK, want, wantOK)
		}
		return nil
	}
	g, gok := s.series.Rate(at, window)
	w, wok := s.db.Rate(s.name, s.match, at, window)
	if err := same("Rate", g, gok, w, wok); err != nil {
		return err
	}
	g, gok = s.series.GaugeAvg(at, window)
	w, wok = s.db.GaugeAvg(s.name, s.match, at, window)
	if err := same("GaugeAvg", g, gok, w, wok); err != nil {
		return err
	}
	gt, gok := s.series.NewestSample()
	wt, wok := s.db.NewestSample(s.name, s.match)
	if err := same("NewestSample", float64(gt), gok, float64(wt), wok); err != nil {
		return err
	}
	g, gok = s.buckets.HistogramQuantile(q, at, window)
	w, wok = s.db.HistogramQuantile(q, s.name, s.match, at, window)
	return same(fmt.Sprintf("HistogramQuantile q=%v", q), g, gok, w, wok)
}

// TestSelectorsMatchLabelQueries keeps selectors standing over seeded
// streams — made before any family exists, so every family appears only
// later; families growing between queries; empty-value pairs, which match
// series lacking the label — and requires each selector query to return the bits its label-taking twin
// does, which TestQueriesMatchLinearScanOracle ties to the linear scan. The
// same label sets stand over a second database fed a different stream: a
// selector answers from the database it was made for.
func TestSelectorsMatchLabelQueries(t *testing.T) {
	const cases = 300
	queries := 0
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		dbs := []*timeseries.DB{timeseries.NewDB(time.Duration(10+rng.Intn(50)) * time.Second), timeseries.NewDB(time.Minute)}
		var selectors []*standing
		stand := func() {
			match := randomSelector(rng)
			name := "response_latency" // a histogram's name: only its buckets are a family
			if rng.Intn(2) == 0 {
				name = diffFamilies[rng.Intn(len(diffFamilies))].name
			}
			for _, db := range dbs {
				selectors = append(selectors, newStanding(db, name, match))
			}
		}
		for i := 0; i < 8; i++ {
			stand()
		}
		type live struct {
			family int
			labels metrics.Labels
			value  float64
		}
		var series []*live
		now := time.Duration(0)
		for step := 0; step < 12+rng.Intn(20); step++ {
			now += time.Duration(1+rng.Intn(9)) * time.Second
			for n := rng.Intn(4); n > 0; n-- { // series created mid-stream
				series = append(series, &live{family: rng.Intn(len(diffFamilies)), labels: randomSeriesLabels(rng)})
			}
			for i, s := range series {
				f := diffFamilies[s.family]
				if f.kind == metrics.KindGauge {
					s.value = float64(rng.Intn(50)) / 7
				} else {
					s.value += float64(rng.Intn(1000)) / 9
				}
				db := dbs[0]
				if i%3 == 0 { // the second database sees a third of the series, late
					db = dbs[1]
				}
				db.AppendSample(f.name, s.labels, f.kind, now, s.value)
			}
			if rng.Intn(4) == 0 {
				stand() // one made mid-stream, over families already there
			}
			for _, sel := range selectors {
				at := now + time.Duration(rng.Intn(12)-4)*time.Second
				window := time.Duration(1+rng.Intn(40)) * time.Second
				if err := sel.check(rng.Float64(), at, window); err != nil {
					t.Fatalf("case %d step %d: %v", c, step, err)
				}
				queries += 4
			}
		}
	}
	t.Logf("%d cases, %d selector queries bit-identical to their label-taking twins", cases, queries)
}

// Standing selectors examine series only when their family has grown, and
// then only the entries appended to the list each walks; the first query
// examines as many as a label-taking query does; a warm query of either kind
// allocates nothing.
func TestStandingSelectorsResolveOncePerGrowth(t *testing.T) {
	db, _, _, backends, samples := fleetDB(t, 12)
	at := 10 * time.Second
	match := metrics.Labels{"backend": backends["svc-0000"][0], "classification": mesh.ClassSuccess}
	total := timeseries.NewSelector(db, mesh.MetricResponseTotal, match)
	inflight := timeseries.NewSelector(db, mesh.MetricInflight, metrics.Labels{"backend": backends["svc-0000"][0]})
	latency := timeseries.NewSelector(db, mesh.MetricResponseLatency+"_bucket", match)
	query := func() {
		if _, ok := total.Rate(at, 10*time.Second); !ok {
			t.Fatal("Rate: no data")
		}
		if _, ok := total.NewestSample(); !ok {
			t.Fatal("NewestSample: no data")
		}
		if _, ok := inflight.GaugeAvg(at, 10*time.Second); !ok {
			t.Fatal("GaugeAvg: no data")
		}
		if _, ok := latency.HistogramQuantile(0.99, at, 10*time.Second); !ok {
			t.Fatal("HistogramQuantile: no data")
		}
	}
	visits := func(f func()) uint64 {
		before := timeseries.Visited(db)
		f()
		return timeseries.Visited(db) - before
	}

	adHoc := visits(func() {
		db.Rate(mesh.MetricResponseTotal, match, at, 10*time.Second)
		db.GaugeAvg(mesh.MetricInflight, metrics.Labels{"backend": backends["svc-0000"][0]}, at, 10*time.Second)
		db.HistogramQuantile(0.99, mesh.MetricResponseLatency, match, at, 10*time.Second)
	})
	if first := visits(query); first != adHoc || first == 0 {
		t.Errorf("first selector queries examined %d series, the label-taking ones %d", first, adHoc)
	}
	if again := visits(query); again != 0 {
		t.Errorf("standing selectors examined %d series with no family grown, want 0", again)
	}

	// One series joins the posting list the total selector walks (its
	// backend's), another joins the family but not that list: the selector
	// examines the one entry its list gained, then nothing.
	joined := metrics.Labels{"service": "svc-0000", "backend": match["backend"], "src": "late", "classification": mesh.ClassSuccess}
	db.AppendSample(mesh.MetricResponseTotal, joined, metrics.KindCounter, at, 1)
	if after := visits(query); after != 1 {
		t.Errorf("after one series joined its list, selectors examined %d series, want 1", after)
	}
	db.AppendSample(mesh.MetricResponseTotal, samples[0].Labels.With("backend", "late"), metrics.KindCounter, at, 1)
	if after := visits(query); after != 0 {
		t.Errorf("after a series joined the family outside its list, selectors examined %d series, want 0", after)
	}
	if again := visits(query); again != 0 {
		t.Errorf("standing selectors examined %d series on the query after, want 0", again)
	}

	if n := testing.AllocsPerRun(100, query); n != 0 {
		t.Errorf("warm selector queries: %v allocs, want 0", n)
	}
}
