package timeseries_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"l3/internal/guard"
	"l3/internal/histogram"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/timeseries"
)

// TestSummaryQuantileIsNotSpliced: a scraped summary's quantile goes up and
// down. Through a hygiene-gated DB, a shallow fall and a deep one are stored
// as they were scraped: neither rejected as an anomaly nor spliced as a
// counter reset. Its _count stays a counter, and a restart of it splices.
func TestSummaryQuantileIsNotSpliced(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	hygiene := guard.NewHygiene(guard.Config{}, nil)
	db.SetGate(hygiene)
	for i, scrape := range []struct{ quantile, count float64 }{{0.5, 10}, {0.4, 12}, {0.1, 1}} {
		at := time.Duration(i+1) * 5 * time.Second
		text := fmt.Sprintf("# TYPE rpc summary\nrpc{quantile=\"0.99\"} %v\nrpc_sum 3.5\nrpc_count %v\n", scrape.quantile, scrape.count)
		samples, err := metrics.ParseExposition(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			db.AppendSample(s.Name, s.Labels, s.Kind, at, s.Value)
		}
		if v, ok := db.Latest("rpc", nil, at); !ok || v != scrape.quantile {
			t.Fatalf("scrape %d: the quantile reads %v, %v; want %v as scraped", i, v, ok, scrape.quantile)
		}
	}
	if v, ok := db.Latest("rpc_count", nil, time.Minute); !ok || v != 13 {
		t.Fatalf("rpc_count reads %v, %v; want 13, the restart spliced onto 12", v, ok)
	}
	if hygiene.RejectedTotal() != 0 || hygiene.ResetsTotal() != 1 {
		t.Fatalf("the gate rejected %v samples and spliced %v resets; want 0 and 1 (rpc_count's)", hygiene.RejectedTotal(), hygiene.ResetsTotal())
	}
}

// TestPredictedSeriesMatchesClonedTwin drives three databases through the
// same seeded passes. The first gets one label map per series, in the case's
// order: forward every pass, reversed every pass, or alternating, so its
// index's successor predictions hit, hit backwards, or mostly miss. The
// second gets the same maps in a fresh shuffle every pass, where a prediction
// rarely hits. The third clones every sample's labels, so its index resolves
// each by hash. Series are skipped now and then, appear mid-stream, turn
// their maps over one at a time or all at once, and some maps serve two
// names. After every pass the three must store the same points bit for bit,
// and each series must hold the very map it was last handed. How the index
// resolved them is metrics.TestIndexMatchesClonedTwin's to check.
func TestPredictedSeriesMatchesClonedTwin(t *testing.T) {
	const cases = 300
	appends := 0
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		order := []string{"forward", "reversed", "alternating"}[c%3]
		pred, shuffled, clone := timeseries.NewDB(time.Minute), timeseries.NewDB(time.Minute), timeseries.NewDB(time.Minute)
		type live struct {
			family int
			labels metrics.Labels
			value  float64
		}
		var series []*live
		known := make(map[string]bool) // name{labels}: one live per stored series
		now := time.Duration(0)
		for pass := 0; pass < 20+rng.Intn(20); pass++ {
			now += 5 * time.Second
			for n := rng.Intn(4); n > 0; n-- { // series created mid-stream
				s := &live{family: rng.Intn(len(diffFamilies)), labels: randomSeriesLabels(rng)}
				switch {
				case len(s.labels) == 0 && rng.Intn(2) == 0:
					s.labels = nil
				case len(series) > 0 && rng.Intn(3) == 0: // one map, two names
					other := series[rng.Intn(len(series))]
					s.family, s.labels = (other.family+1+rng.Intn(len(diffFamilies)-1))%len(diffFamilies), other.labels
				}
				if key := diffFamilies[s.family].name + s.labels.String(); !known[key] {
					known[key] = true
					series = append(series, s)
				}
			}
			turnAll := rng.Intn(15) == 0 // the parse table turned over
			var samples []*live
			for _, s := range series {
				if rng.Intn(10) == 0 {
					continue // missing from this scrape
				}
				if s.labels != nil && (turnAll || rng.Intn(25) == 0) {
					s.labels = s.labels.Clone()
				}
				s.value += float64(rng.Intn(1000)) / 9
				samples = append(samples, s)
			}
			if order == "reversed" || order == "alternating" && pass%2 == 1 {
				slices.Reverse(samples)
			}
			clones := make([]metrics.Labels, len(samples))
			for i, s := range samples {
				f := diffFamilies[s.family]
				pred.AppendSample(f.name, s.labels, f.kind, now, s.value)
				clones[i] = s.labels.Clone()
				clone.AppendSample(f.name, clones[i], f.kind, now, s.value)
			}
			for i, s := range samples { // each series holds the very map it was last handed
				if f := diffFamilies[s.family]; !timeseries.Holds(pred, f.name, s.labels) || !timeseries.Holds(clone, f.name, clones[i]) {
					t.Fatalf("case %d (%s) pass %d: %s%v does not hold the map it was handed", c, order, pass, f.name, s.labels)
				}
			}
			rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
			for _, s := range samples {
				f := diffFamilies[s.family]
				shuffled.AppendSample(f.name, s.labels, f.kind, now, s.value)
			}
			appends += len(samples)

			want := timeseries.Dump(clone)
			if err := sameDump(timeseries.Dump(pred), want); err != nil {
				t.Fatalf("case %d (%s) pass %d: %v", c, order, pass, err)
			}
			if err := sameDump(timeseries.Dump(shuffled), want); err != nil {
				t.Fatalf("case %d (%s) pass %d: shuffled: %v", c, order, pass, err)
			}
		}
	}
	t.Logf("%d cases, %d appends bit-identical to the cloning twin", cases, appends)

	// 10 000 samples over 100 series, a fresh Clone for every one: each series
	// holds the clone it was last handed, and the points are those of a twin
	// handed one map per series.
	fresh, shared := timeseries.NewDB(time.Minute), timeseries.NewDB(time.Minute)
	labels := make([]metrics.Labels, 100)
	for i := range labels {
		labels[i] = metrics.Labels{"backend": fmt.Sprintf("b%d", i%50), "classification": []string{"success", "failure"}[i/50]}
	}
	for pass := 1; pass <= 100; pass++ {
		at := time.Duration(pass) * 5 * time.Second
		for i, l := range labels {
			own := l.Clone()
			fresh.AppendSample("response_total", own, metrics.KindCounter, at, float64(pass*i))
			shared.AppendSample("response_total", l, metrics.KindCounter, at, float64(pass*i))
			if !timeseries.Holds(fresh, "response_total", own) {
				t.Fatalf("pass %d: series %v does not hold the clone it was handed", pass, own)
			}
		}
	}
	if n, m := fresh.SeriesCount(), shared.SeriesCount(); n != len(labels) || m != len(labels) {
		t.Fatalf("%d series for a clone per sample, %d for one map per series; want %d", n, m, len(labels))
	}
	if err := sameDump(timeseries.Dump(fresh), timeseries.Dump(shared)); err != nil {
		t.Fatalf("a clone per sample: %v", err)
	}
}

// A series, the index's fields and its six-point window stay 160 bytes, 102
// to a chunk: one more field moves every stored series to 176 bytes and 93 to
// a chunk.
func TestSeriesFitsItsSizeClass(t *testing.T) {
	if n := timeseries.SeriesSize; n > 160 {
		t.Fatalf("a series is %d bytes, want at most 160", n)
	}
}

// Series carved from one chunk keep their own point windows, past the
// capacity a series starts with and across chunks.
func TestSeriesSharingAChunkStayApart(t *testing.T) {
	db := timeseries.NewDB(time.Hour)
	n := int(timeseries.SeriesChunk) + 3
	labels := make([]metrics.Labels, n)
	for i := range labels {
		labels[i] = metrics.Labels{"backend": fmt.Sprint(i)}
	}
	const points = 3 * 6
	for p := 1; p <= points; p++ {
		for i, l := range labels {
			db.Append("response_total", l, time.Duration(p)*time.Second, float64(1000*i+p))
		}
	}
	dump := timeseries.Dump(db)
	for i, l := range labels {
		got := dump["response_total"+l.String()]
		if len(got) != points {
			t.Fatalf("series %d holds %d points, want %d", i, len(got), points)
		}
		for p, pt := range got {
			if pt.T != time.Duration(p+1)*time.Second || pt.V != float64(1000*i+p+1) {
				t.Fatalf("series %d point %d is %v, want its own", i, p, pt)
			}
		}
	}
}

// BenchmarkGatedAppend is a control round's gated append alone: the parsed
// text of a 102-backend fleet, shaped as core's BenchmarkControlRound
// exposes it, every sample through a guard.Hygiene gate and DB.AppendSample,
// with every map indexed and every window past retention. ns/sample is the
// figure to quote.
func BenchmarkGatedAppend(b *testing.B) {
	reg := metrics.NewRegistry()
	for i := 0; i < 102; i++ {
		service := fmt.Sprintf("svc-%04d", i/3)
		labels := metrics.Labels{"service": service, "backend": fmt.Sprintf("%s-cluster-%d", service, i%3+1), "src": "bench"}
		for _, class := range []string{mesh.ClassFailure, mesh.ClassSuccess} {
			l := labels.With("classification", class)
			reg.Counter(mesh.MetricResponseTotal, l).Add(100)
			reg.Histogram(mesh.MetricResponseLatency, l, histogram.LinkerdLatencyBounds).Observe(0.004 * float64(i%9+1))
		}
		reg.Gauge(mesh.MetricInflight, labels).Set(float64(i%7 + 1))
	}
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		b.Fatal(err)
	}
	samples, err := metrics.ParseExposition(&text)
	if err != nil {
		b.Fatal(err)
	}
	db := timeseries.NewDB(20 * time.Second)
	db.SetGate(guard.NewHygiene(guard.Config{}, nil))
	at := time.Duration(0)
	pass := func() {
		at += 5 * time.Second
		for _, s := range samples {
			db.AppendSample(s.Name, s.Labels, s.Kind, at, s.Value)
		}
	}
	for i := 0; i < 8; i++ {
		pass()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(samples)), "ns/sample")
}
