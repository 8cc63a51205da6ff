package loadgen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"
	"time"

	"l3/internal/histogram"
)

// flatRecorder is the recorder as it was before its buckets were carved in
// chunks: one slice of every bucket, grown by append. It is the oracle the
// chunked recorder must match bit for bit.
type flatRecorder struct {
	buckets []outcomes
	sums    *totals
}

func newFlatRecorder() *flatRecorder { return &flatRecorder{} }

// Record adds one outcome observed for a request that started at virtual
// time at.
func (r *flatRecorder) Record(at, latency time.Duration, success bool) {
	b, k := r.bucket(int(at/BucketWidth)), 0
	if success {
		k = 1
	}
	b[k].Record(latency)
	r.sums = nil
}

// bucket returns time bucket i, growing the series to hold it.
func (r *flatRecorder) bucket(i int) *outcomes {
	if n := i + 1 - len(r.buckets); n > 0 {
		r.buckets = append(r.buckets, make([]outcomes, n)...)
	}
	return &r.buckets[i]
}

// totals returns the aggregates, merging them if a write dropped them.
func (r *flatRecorder) totals() *totals {
	if r.sums == nil {
		r.sums = new(totals)
		for i := range r.buckets {
			r.sums.add(&r.buckets[i])
		}
	}
	return r.sums
}

// Count returns the number of recorded requests.
func (r *flatRecorder) Count() uint64 { return r.count(0) + r.count(1) }

// SuccessRate returns successes/total, or 1 when nothing was recorded.
func (r *flatRecorder) SuccessRate() float64 {
	if n := r.Count(); n > 0 {
		return float64(r.count(1)) / float64(n)
	}
	return 1
}

// count sums one kind of outcome, [0] or [1], without the aggregates.
func (r *flatRecorder) count(k int) uint64 {
	var n uint64
	for i := range r.buckets {
		n += r.buckets[i][k].Count()
	}
	return n
}

// Quantile returns the latency quantile over all recorded requests.
func (r *flatRecorder) Quantile(q float64) time.Duration { return r.totals().all.Quantile(q) }

// SuccessQuantile returns the latency quantile over successful requests.
func (r *flatRecorder) SuccessQuantile(q float64) time.Duration { return r.totals().ok.Quantile(q) }

// Mean returns the mean latency over all recorded requests.
func (r *flatRecorder) Mean() time.Duration { return r.totals().all.Mean() }

// Buckets returns the number of time buckets with data capacity.
func (r *flatRecorder) Buckets() int { return len(r.buckets) }

// WindowQuantile returns the latency quantile over requests that started
// in [from, to) — e.g. the P99 of just a surge window.
func (r *flatRecorder) WindowQuantile(q float64, from, to time.Duration) time.Duration {
	var merged histogram.Histogram
	hi := int(to / BucketWidth)
	for i := max(int(from/BucketWidth), 0); i < hi && i < len(r.buckets); i++ {
		merged.Merge(&r.buckets[i][0])
		merged.Merge(&r.buckets[i][1])
	}
	return merged.Quantile(q)
}

// QuantileSeries returns the per-bucket latency quantile in seconds
// (0 for empty buckets) — the series behind the paper's
// percentile-over-time plots.
func (r *flatRecorder) QuantileSeries(q float64) []float64 {
	out := make([]float64, len(r.buckets))
	var both histogram.Histogram
	for i := range r.buckets {
		both.Reset()
		both.Merge(&r.buckets[i][0])
		both.Merge(&r.buckets[i][1])
		out[i] = both.Quantile(q).Seconds()
	}
	return out
}

// RPSSeries returns the per-bucket request rate.
func (r *flatRecorder) RPSSeries() []float64 {
	out := make([]float64, len(r.buckets))
	w := BucketWidth.Seconds()
	for i := range r.buckets {
		b := &r.buckets[i]
		out[i] = float64(b[0].Count()+b[1].Count()) / w
	}
	return out
}

// SuccessRateSeries returns the per-bucket success rate (1 for empty
// buckets).
func (r *flatRecorder) SuccessRateSeries() []float64 {
	out := make([]float64, len(r.buckets))
	for i := range r.buckets {
		b := &r.buckets[i]
		out[i] = 1
		if all := b[0].Count() + b[1].Count(); all > 0 {
			out[i] = float64(b[1].Count()) / float64(all)
		}
	}
	return out
}

// Merge folds another recorder's outcomes into this one, bucket by bucket.
func (r *flatRecorder) Merge(o *flatRecorder) {
	if o == nil {
		return
	}
	r.sums = nil
	for i := range o.buckets {
		r.bucket(i).merge(&o.buckets[i])
	}
}

// chunkSeconds are the buckets the flat comparisons record into: either side
// of the first three chunk edges, and one far past them.
var chunkSeconds = []int{0, 1, 127, 128, 129, 255, 256, 257, 383, 384, 1000}

// sameBits reports whether two series are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameAsFlat fails unless the chunked recorder answers every read as the
// flat one does, bit for bit; where names the step.
func sameAsFlat(t testing.TB, where string, got *Recorder, want *flatRecorder) {
	t.Helper()
	if got.Count() != want.Count() || math.Float64bits(got.SuccessRate()) != math.Float64bits(want.SuccessRate()) ||
		got.Mean() != want.Mean() || got.Buckets() != want.Buckets() {
		t.Fatalf("%s: count %d rate %v mean %v buckets %d, flat %d %v %v %d", where,
			got.Count(), got.SuccessRate(), got.Mean(), got.Buckets(),
			want.Count(), want.SuccessRate(), want.Mean(), want.Buckets())
	}
	if !sameBits(got.RPSSeries(), want.RPSSeries()) || !sameBits(got.SuccessRateSeries(), want.SuccessRateSeries()) {
		t.Fatalf("%s: rate series differ from the flat recorder's", where)
	}
	const w = BucketWidth
	windows := [][2]time.Duration{{0, 1 << 62}, {-w, 3 * w}, {127*w + w/2, 129*w + w/3},
		{255 * w, 257 * w}, {w / 2, 1000*w + w/2}, {1000 * w, 1001 * w}, {4 * w, 4 * w}}
	for _, q := range oracleQuantiles {
		if got.Quantile(q) != want.Quantile(q) || got.SuccessQuantile(q) != want.SuccessQuantile(q) {
			t.Fatalf("%s: q%v = %v / success %v, flat %v / %v", where, q,
				got.Quantile(q), got.SuccessQuantile(q), want.Quantile(q), want.SuccessQuantile(q))
		}
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if !sameBits(got.QuantileSeries(q), want.QuantileSeries(q)) {
			t.Fatalf("%s: q%v series differs from the flat recorder's", where, q)
		}
		for _, win := range windows {
			if g, f := got.WindowQuantile(q, win[0], win[1]), want.WindowQuantile(q, win[0], win[1]); g != f {
				t.Fatalf("%s: q%v over %v = %v, flat %v", where, q, win, g, f)
			}
		}
	}
}

// recordBoth records n seeded outcomes into both recorders, each at a random
// instant of one of chunkSeconds' buckets, latencies from below the
// histogram's floor to minutes.
func recordBoth(rng *rand.Rand, n int, got *Recorder, want *flatRecorder) {
	const w = BucketWidth
	for range n {
		at := time.Duration(chunkSeconds[rng.IntN(len(chunkSeconds))])*w + time.Duration(rng.Int64N(int64(w)))
		latency := time.Duration(rng.NormFloat64()*float64(15*time.Millisecond)) + 40*time.Millisecond
		switch rng.IntN(10) {
		case 0:
			latency = time.Duration(rng.Int64N(int64(20 * time.Microsecond)))
		case 1:
			latency = time.Duration(rng.Int64N(int64(3 * time.Minute)))
		}
		success := rng.IntN(4) != 0
		got.Record(at, latency, success)
		want.Record(at, latency, success)
	}
}

// TestRecorderMatchesFlat drives seeded streams of Record and Merge across
// four chunks into the chunked recorder and the flat oracle, merging in
// other recorders, the recorder itself and empty ones, and compares every
// read after every step.
func TestRecorderMatchesFlat(t *testing.T) {
	t.Run("window rounds down to buckets", func(t *testing.T) {
		got, want := NewRecorder(), newFlatRecorder()
		for _, o := range []struct{ at, latency time.Duration }{
			{400 * time.Millisecond, time.Millisecond},      // before from, in from's bucket: counted
			{1600 * time.Millisecond, 2 * time.Millisecond}, // inside the window
			{2400 * time.Millisecond, time.Second},          // before to, in to's bucket: left out
		} {
			got.Record(o.at, o.latency, true)
			want.Record(o.at, o.latency, true)
		}
		from, to := 500*time.Millisecond, 2500*time.Millisecond
		for _, r := range []interface {
			WindowQuantile(q float64, from, to time.Duration) time.Duration
		}{got, want} {
			if lo, hi := r.WindowQuantile(0, from, to), r.WindowQuantile(1, from, to); lo != time.Millisecond || hi != 2*time.Millisecond {
				t.Fatalf("%T: window [%v, %v) spans %v..%v, want the buckets [0 s, 2 s): 1ms..2ms", r, from, to, lo, hi)
			}
		}
		sameAsFlat(t, "rounding", got, want)
	})
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xc4))
		got, want := NewRecorder(), newFlatRecorder()
		sameAsFlat(t, "empty", got, want)
		for round := range 6 {
			where := fmt.Sprintf("seed %d round %d", seed, round)
			recordBoth(rng, rng.IntN(3000), got, want)
			sameAsFlat(t, where+" recorded", got, want)
			switch round % 4 {
			case 0, 1:
				og, ow := NewRecorder(), newFlatRecorder()
				recordBoth(rng, rng.IntN(2000), og, ow)
				got.Merge(og)
				want.Merge(ow)
				sameAsFlat(t, where+" merged a recorder", got, want)
			case 2:
				got.Merge(got)
				want.Merge(want)
				sameAsFlat(t, where+" merged itself", got, want)
			default:
				got.Merge(NewRecorder())
				want.Merge(newFlatRecorder())
				got.Merge(nil)
				want.Merge(nil)
				sameAsFlat(t, where+" merged an empty recorder", got, want)
			}
		}
	}
}

// FuzzRecorderMatchesFlat decodes its input into Record and Merge calls over
// three chunked recorders and their flat oracles, and wants every read to
// agree after every call. An
// operation is three bytes: the call and its target; then, for a Record,
// the bucket (one of chunkSeconds, or arg × 4) and the instant within it,
// latency and outcome; for a Merge, the source, which may be the target.
func FuzzRecorderMatchesFlat(f *testing.F) {
	f.Add([]byte{0, 1, 10, 1, 2, 200, 3, 3, 99, 9, 1, 0, 12, 0, 0})
	f.Add([]byte{0, 250, 7, 2, 131, 40, 9, 2, 0, 10, 0, 0, 11, 1, 0, 0, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		type pair struct {
			got  *Recorder
			want *flatRecorder
		}
		var ps [3]pair
		for i := range ps {
			ps[i] = pair{NewRecorder(), newFlatRecorder()}
		}
		for ; len(data) >= 3; data = data[3:] {
			op, arg, pos := data[0], data[1], data[2]
			p := ps[op%3]
			switch op / 3 % 5 {
			case 0, 1, 2:
				const w = BucketWidth
				second := int(arg) * 4
				if arg < 128 {
					second = chunkSeconds[int(arg)%len(chunkSeconds)]
				}
				at := time.Duration(second)*w + time.Duration(pos)*w/256
				latency := time.Duration(arg) * time.Duration(pos) * 37 * time.Microsecond
				p.got.Record(at, latency, pos&1 == 0)
				p.want.Record(at, latency, pos&1 == 0)
			case 3:
				o := ps[int(arg)%len(ps)]
				p.got.Merge(o.got)
				p.want.Merge(o.want)
			default:
				p.got.Merge(NewRecorder())
				p.want.Merge(newFlatRecorder())
			}
			sameAsFlat(t, fmt.Sprintf("recorder %d after %v", op%3, data[:3]), p.got, p.want)
		}
	})
}

// TestRecorderSecondsAreChunked pins how a recorder holds its seconds: a
// 640-second series makes exactly five chunk allocations, each in the
// 24 576 B size class (the flat series grown by doubling made none there),
// and a Record into a second that has a window covering the latency
// allocates nothing.
func TestRecorderSecondsAreChunked(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const chunkClass = 24576
	chunkMallocs := func() uint64 {
		// An allocator cache counts a span's objects when it hands the
		// span back; ReadMemStats flushes the caches, metrics.Read does not.
		var flush runtime.MemStats
		runtime.ReadMemStats(&flush)
		s := []metrics.Sample{{Name: "/gc/heap/allocs-by-size:bytes"}}
		metrics.Read(s)
		h := s[0].Value.Float64Histogram()
		for i, c := range h.Counts {
			if h.Buckets[i] <= chunkClass && chunkClass < h.Buckets[i+1] {
				return c
			}
		}
		t.Fatalf("no bucket holds the %d B size class", chunkClass)
		return 0
	}
	r := NewRecorder()
	before := chunkMallocs()
	for s := range 640 {
		r.Record(time.Duration(s)*time.Second, 40*time.Millisecond, true)
	}
	if n := chunkMallocs() - before; n != 5 || r.Buckets() != 640 {
		t.Fatalf("a %d-second recorder made %d allocations of %d B, want 5", r.Buckets(), n, chunkClass)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(300*time.Second+time.Second/3, 41*time.Millisecond, true)
	})
	if allocs != 0 {
		t.Fatalf("a Record into an allocated second allocates %.1f objects, want 0", allocs)
	}
}
