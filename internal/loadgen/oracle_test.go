package loadgen

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"l3/internal/histogram"
)

// oracleRecorder is the recorder as it was before outcomes were written
// once: every Record writes the overall histogram, the successes-only one
// and the time bucket's, and keeps success/failure counts beside them.
type oracleRecorder struct {
	overall     *histogram.Histogram
	successOnly *histogram.Histogram
	buckets     []*histogram.Histogram
	bucketOK    []uint64
	bucketAll   []uint64
	successes   uint64
	failures    uint64
}

func newOracleRecorder() *oracleRecorder {
	return &oracleRecorder{overall: histogram.New(), successOnly: histogram.New()}
}

func (r *oracleRecorder) grow(i int) {
	for len(r.buckets) <= i {
		r.buckets = append(r.buckets, histogram.New())
		r.bucketOK = append(r.bucketOK, 0)
		r.bucketAll = append(r.bucketAll, 0)
	}
}

func (r *oracleRecorder) Record(at, latency time.Duration, success bool) {
	r.overall.Record(latency)
	if success {
		r.successes++
		r.successOnly.Record(latency)
	} else {
		r.failures++
	}
	i := int(at / BucketWidth)
	r.grow(i)
	r.buckets[i].Record(latency)
	r.bucketAll[i]++
	if success {
		r.bucketOK[i]++
	}
}

func (r *oracleRecorder) Count() uint64 { return r.successes + r.failures }

func (r *oracleRecorder) SuccessRate() float64 {
	if r.Count() == 0 {
		return 1
	}
	return float64(r.successes) / float64(r.Count())
}

func (r *oracleRecorder) WindowQuantile(q float64, from, to time.Duration) time.Duration {
	merged := histogram.New()
	lo := max(int(from/BucketWidth), 0)
	for i := lo; i < int(to/BucketWidth) && i < len(r.buckets); i++ {
		merged.Merge(r.buckets[i])
	}
	return merged.Quantile(q)
}

func (r *oracleRecorder) QuantileSeries(q float64) []float64 {
	out := make([]float64, len(r.buckets))
	for i, h := range r.buckets {
		out[i] = h.Quantile(q).Seconds()
	}
	return out
}

func (r *oracleRecorder) RPSSeries() []float64 {
	out := make([]float64, len(r.buckets))
	for i, n := range r.bucketAll {
		out[i] = float64(n) / BucketWidth.Seconds()
	}
	return out
}

func (r *oracleRecorder) SuccessRateSeries() []float64 {
	out := make([]float64, len(r.buckets))
	for i := range r.buckets {
		if r.bucketAll[i] == 0 {
			out[i] = 1
			continue
		}
		out[i] = float64(r.bucketOK[i]) / float64(r.bucketAll[i])
	}
	return out
}

func (r *oracleRecorder) Merge(o *oracleRecorder) {
	r.overall.Merge(o.overall)
	r.successOnly.Merge(o.successOnly)
	r.successes += o.successes
	r.failures += o.failures
	for i, h := range o.buckets {
		r.grow(i)
		r.buckets[i].Merge(h)
		r.bucketOK[i] += o.bucketOK[i]
		r.bucketAll[i] += o.bucketAll[i]
	}
}

var oracleQuantiles = []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1}

// requireSameReads compares every read method of the recorder with the
// oracle's, exactly.
func requireSameReads(t *testing.T, where string, got *Recorder, want *oracleRecorder) {
	t.Helper()
	if got.Count() != want.Count() || got.SuccessRate() != want.SuccessRate() ||
		got.Buckets() != len(want.buckets) || got.Mean() != want.overall.Mean() {
		t.Fatalf("%s: count %d rate %v buckets %d mean %v, oracle %d %v %d %v", where,
			got.Count(), got.SuccessRate(), got.Buckets(), got.Mean(),
			want.Count(), want.SuccessRate(), len(want.buckets), want.overall.Mean())
	}
	if !slices.Equal(got.RPSSeries(), want.RPSSeries()) || !slices.Equal(got.SuccessRateSeries(), want.SuccessRateSeries()) {
		t.Fatalf("%s: rate series differ:\n%v\n%v\noracle\n%v\n%v", where,
			got.RPSSeries(), got.SuccessRateSeries(), want.RPSSeries(), want.SuccessRateSeries())
	}
	for _, q := range []float64{0.5, 0.99} {
		if !slices.Equal(got.QuantileSeries(q), want.QuantileSeries(q)) {
			t.Fatalf("%s: q%v series %v, oracle %v", where, q, got.QuantileSeries(q), want.QuantileSeries(q))
		}
	}
	const w = BucketWidth
	windows := [][2]time.Duration{{0, 1 << 62}, {-w, 3 * w}, {2 * w, 7 * w}, {5*w + w/2, 9 * w}, {4 * w, 4 * w}}
	for _, q := range oracleQuantiles {
		if got.Quantile(q) != want.overall.Quantile(q) || got.SuccessQuantile(q) != want.successOnly.Quantile(q) {
			t.Fatalf("%s: q%v = %v / success %v, oracle %v / %v", where, q,
				got.Quantile(q), got.SuccessQuantile(q), want.overall.Quantile(q), want.successOnly.Quantile(q))
		}
		for _, win := range windows {
			if g, o := got.WindowQuantile(q, win[0], win[1]), want.WindowQuantile(q, win[0], win[1]); g != o {
				t.Fatalf("%s: q%v over %v = %v, oracle %v", where, q, win, g, o)
			}
		}
	}
}

// feed records one seeded outcome stream into both recorders: bursts of
// failures, empty buckets and jumps past warm-up-sized gaps, latencies from
// below the histogram's floor to minutes.
func feed(rng *rand.Rand, n int, got *Recorder, want *oracleRecorder) {
	const width = BucketWidth
	at := time.Duration(rng.Int64N(int64(5 * width)))
	failRate := rng.IntN(4) // 0: no failures at all
	for i := 0; i < n; i++ {
		switch rng.IntN(50) {
		case 0:
			at += time.Duration(rng.Int64N(int64(6 * width))) // empty buckets
		case 1:
			failRate = rng.IntN(4)
		}
		at += time.Duration(rng.Int64N(int64(width / 20)))
		var latency time.Duration
		switch rng.IntN(10) {
		case 0:
			latency = time.Duration(rng.Int64N(int64(20 * time.Microsecond)))
		case 1:
			latency = time.Duration(rng.Int64N(int64(3 * time.Minute)))
		default:
			latency = time.Duration(rng.NormFloat64()*float64(15*time.Millisecond)) + 40*time.Millisecond
		}
		success := rng.IntN(8) >= failRate*2
		got.Record(at, latency, success)
		want.Record(at, latency, success)
	}
}

// TestRecorderMatchesThreeHistogramOracle drives seeded outcome streams into
// the recorder and the three-histogram oracle, reads every method between
// writes (so the cached aggregates are rebuilt and reused), and folds other
// recorders in, some carrying merges of their own; every read must be equal.
func TestRecorderMatchesThreeHistogramOracle(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x10ad))
		got, want := NewRecorder(), newOracleRecorder()
		requireSameReads(t, "empty", got, want)
		for round := 0; round < 4; round++ {
			feed(rng, rng.IntN(1500), got, want)
			requireSameReads(t, "recorded", got, want)

			// A second recorder merged in.
			og, ow := NewRecorder(), newOracleRecorder()
			feed(rng, rng.IntN(1000), og, ow)
			if rng.IntN(3) == 0 {
				// The merged-in recorder itself carries a merge.
				mg, mw := NewRecorder(), newOracleRecorder()
				feed(rng, 200, mg, mw)
				og.Merge(mg)
				ow.Merge(mw)
			}
			requireSameReads(t, "merged-in", og, ow)
			got.Merge(og)
			want.Merge(ow)
			got.Merge(nil)
			requireSameReads(t, "merged", got, want)
		}
	}
}
