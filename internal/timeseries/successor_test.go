package timeseries_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"l3/internal/guard"
	"l3/internal/histogram"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/timeseries"
)

// TestPredictedSeriesMatchesClonedTwin drives three databases through the
// same seeded passes. The first gets one label map per series, in the case's
// order: forward every pass, reversed every pass, or alternating, so its
// successor predictions hit, hit backwards, or mostly miss. The second gets
// the same maps in a fresh shuffle every pass, where a prediction rarely
// hits. The third clones every sample's labels and resolves each by hash.
// Series are skipped now and then, appear mid-stream, turn their maps over
// one at a time or all at once, and some maps serve two names. After every
// pass the three must store the same points bit for bit, and the first two
// must have made the same hash-path resolutions and index entries: a
// prediction neither makes nor drops an entry.
func TestPredictedSeriesMatchesClonedTwin(t *testing.T) {
	const cases = 300
	appends, steady, mapped := 0, 0, uint64(0) // steady: appends in the forward and reversed cases
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
		add := func(s *live) {
			if key := diffFamilies[s.family].name + s.labels.String(); !known[key] {
				known[key] = true
				series = append(series, s)
			}
		}
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
				add(s)
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
			if order != "alternating" {
				steady += len(samples)
			}

			want := timeseries.Dump(clone)
			if err := sameDump(timeseries.Dump(pred), want); err != nil {
				t.Fatalf("case %d (%s) pass %d: %v", c, order, pass, err)
			}
			if err := sameDump(timeseries.Dump(shuffled), want); err != nil {
				t.Fatalf("case %d (%s) pass %d: shuffled: %v", c, order, pass, err)
			}
			if p, s := timeseries.HashResolved(pred), timeseries.HashResolved(shuffled); p != s {
				t.Fatalf("case %d (%s) pass %d: %d hash-path resolutions, shuffled twin %d", c, order, pass, p, s)
			}
			if p, s := timeseries.Indexed(pred), timeseries.Indexed(shuffled); p != s {
				t.Fatalf("case %d (%s) pass %d: %d indexed maps, shuffled twin %d", c, order, pass, p, s)
			}
			if n := timeseries.Indexed(clone); n != 0 {
				t.Fatalf("case %d (%s) pass %d: a clone per sample made %d index entries", c, order, pass, n)
			}
		}
		if order != "alternating" {
			mapped += timeseries.MapPathResolved(pred)
		}
	}
	if mapped > uint64(steady)/2 {
		t.Fatalf("%d of %d appends in a steady order missed the prediction: the successor rule is barely exercised", mapped, steady)
	}
	t.Logf("%d cases, %d appends bit-identical to the cloning twin; %d of %d in a steady order missed the prediction", cases, appends, mapped, steady)

	// 10 000 samples over 100 series, a fresh Clone for every one: each series
	// holds the clone it was last handed, the index stays within one entry a
	// series, and the points are those of a twin handed one map per series.
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
	if n, m := timeseries.Indexed(fresh), timeseries.Indexed(shared); n > len(labels) || m != len(labels) {
		t.Fatalf("%d index entries for a clone per sample, %d for one map per series; want at most and exactly %d", n, m, len(labels))
	}
	if err := sameDump(timeseries.Dump(fresh), timeseries.Dump(shared)); err != nil {
		t.Fatalf("a clone per sample: %v", err)
	}
}

// A series and its first point window stay one allocation of the 320-byte
// class: one more field moves every stored series to 352 bytes.
func TestSeriesFitsItsSizeClass(t *testing.T) {
	if n := timeseries.SeriesSize; n > 320 {
		t.Fatalf("a series is %d bytes, want at most 320", n)
	}
}

// New series are carved from chunks that fill the 16 KiB size class: a
// chunk costs the heap at most 16 384 bytes, with no room left in it for one
// more series beside the 8-byte header, and no series is handed out twice. A
// chunk that spilled into the next class, or left a series' worth of its
// class unused, fails.
func TestSeriesChunkFillsItsSizeClass(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	cost := uint64(math.MaxUint64)
	seen := make(map[unsafe.Pointer]bool)
	handed := make([]unsafe.Pointer, timeseries.SeriesChunk)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range handed {
			handed[i] = timeseries.NewSeries(db)
		}
		runtime.ReadMemStats(&after)
		cost = min(cost, after.TotalAlloc-before.TotalAlloc)
		for _, p := range handed {
			if seen[p] {
				t.Fatalf("chunk %d hands out a series twice", try+1)
			}
			seen[p] = true
		}
	}
	want := uint64(timeseries.SeriesChunk) * uint64(timeseries.SeriesSize)
	if cost < want || cost-want >= uint64(timeseries.SeriesSize)+8 || cost > 16<<10 {
		t.Fatalf("a chunk of %d series costs %d bytes, want %d to %d and at most 16 384",
			timeseries.SeriesChunk, cost, want, want+uint64(timeseries.SeriesSize)+7)
	}
	t.Logf("a chunk of %d series costs %d bytes", timeseries.SeriesChunk, cost)
}

// Series carved from one chunk keep their own point windows, past the
// capacity a series starts with and across chunks.
func TestSeriesSharingAChunkStayApart(t *testing.T) {
	db := timeseries.NewDB(time.Hour)
	n := timeseries.SeriesChunk + 3
	labels := make([]metrics.Labels, n)
	for i := range labels {
		labels[i] = metrics.Labels{"backend": fmt.Sprint(i)}
	}
	const points = 3 * 16
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
