package histogram

import (
	"fmt"
	"math"
	"testing"
	"time"

	"l3/internal/sim"
)

// denseHistogram is the histogram as it was before its counts became a
// window of widening counts: one 64-bit count per bucket of the whole
// layout, allocated by the first Record or Merge. It is the oracle the
// windowed histogram, narrow or wide, must match bit for bit.
type denseHistogram struct {
	counts []uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

func (h *denseHistogram) Record(v time.Duration) {
	if v < 0 {
		v = 0
	}
	if h.counts == nil {
		h.counts = make([]uint64, numBuckets)
	}
	i := bucketIndex(v)
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.total++
	h.sum += v
	if h.total == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

func (h *denseHistogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

func (h *denseHistogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketUpper(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

func (h *denseHistogram) Merge(o *denseHistogram) {
	if o == nil || o.total == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, numBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
	h.sum += o.sum
}

func (h *denseHistogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum, h.min, h.max = 0, 0, 0, 0
}

func (h *denseHistogram) Snapshot() *denseHistogram {
	c := *h
	if h.counts != nil {
		c.counts = append([]uint64(nil), h.counts...)
	}
	return &c
}

// oracleQuantiles are the quantiles every comparison reads.
var oracleQuantiles = []float64{0, 0.001, 0.01, 0.5, 0.9, 0.99, 0.999, 1}

// pair is one windowed histogram and the dense oracle fed the same calls.
type pair struct {
	h *Histogram
	d *denseHistogram
}

func newPair() pair { return pair{New(), &denseHistogram{}} }

// check fails unless h answers every query as d does, bit for bit, and its
// window lies inside the layout and holds every observation; the step
// named by format and args is what the failure reports.
func check(t testing.TB, h *Histogram, d *denseHistogram, format string, args ...any) {
	t.Helper()
	step := func() string { return fmt.Sprintf(format, args...) }
	if h.Count() != d.total || h.Sum() != d.sum || h.Min() != d.min || h.Max() != d.max || h.Mean() != d.Mean() {
		t.Fatalf("%s: count/sum/min/max/mean %d/%v/%v/%v/%v, dense oracle %d/%v/%v/%v/%v",
			step(), h.Count(), h.Sum(), h.Min(), h.Max(), h.Mean(), d.total, d.sum, d.min, d.max, d.Mean())
	}
	for _, q := range oracleQuantiles {
		if got, want := h.Quantile(q), d.Quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %v, dense oracle %v", step(), q, got, want)
		}
	}
	if h.counts != nil && h.wide != nil {
		t.Fatalf("%s: a window of both widths, %d narrow and %d wide buckets", step(), len(h.counts), len(h.wide))
	}
	if h.wide == nil && h.total > maxNarrow {
		t.Fatalf("%s: %d observations counted in 16 bits", step(), h.total)
	}
	n := len(h.counts) + len(h.wide)
	if h.lo < 0 || h.lo+n > numBuckets {
		t.Fatalf("%s: window [%d, %d) outside the %d-bucket layout", step(), h.lo, h.lo+n, numBuckets)
	}
	if (h.counts != nil || h.wide != nil) && n < firstWindow {
		t.Fatalf("%s: window of %d buckets, narrower than the first window %d", step(), n, firstWindow)
	}
	var inWindow uint64
	for _, c := range h.counts {
		inWindow += uint64(c)
	}
	for _, c := range h.wide {
		inWindow += c
	}
	if inWindow != h.total {
		t.Fatalf("%s: window holds %d observations, histogram counts %d", step(), inWindow, h.total)
	}
}

// oracleValue draws a value from one of the regions the window arithmetic
// treats differently: at or below zero, within the first bucket, on an exact
// bucket edge or a tick either side, clustered around a centre (so two
// histograms' windows may be disjoint, overlap or nest), anywhere in the
// layout, or past 1000 s in the clamped last bucket.
func oracleValue(r *sim.Rand, centre int) time.Duration {
	switch r.IntN(8) {
	case 0:
		return -time.Duration(r.IntN(1000))
	case 1:
		return time.Duration(r.IntN(int(minTrackable) + 1))
	case 2:
		return bucketStarts[1+r.IntN(numBuckets-1)] + time.Duration(r.IntN(3)-1)
	case 3:
		return 1000*time.Second + time.Duration(r.Uint64()>>2)
	case 4:
		return time.Duration(r.Uint64() >> uint(r.IntN(64)))
	default:
		i := min(max(centre+r.IntN(61)-30, 1), numBuckets-1)
		return bucketStarts[i] + time.Duration(r.IntN(int(bucketStarts[i]/50)+1))
	}
}

// TestHistogramMatchesDenseOracle runs seeded streams of Record, Merge,
// Reset and Snapshot over a few histograms and their dense oracles, and
// compares every query after every step.
func TestHistogramMatchesDenseOracle(t *testing.T) {
	t.Run("named merges", func(t *testing.T) {
		fill := func(p pair, from, to int) pair {
			for i := from; i <= to; i += 7 {
				p.h.Record(bucketStarts[i])
				p.d.Record(bucketStarts[i])
			}
			return p
		}
		at := func(i int) pair { return fill(newPair(), i, i+40) }
		merge := func(name string, dst, src pair) {
			dst.h.Merge(src.h)
			dst.d.Merge(src.d)
			check(t, dst.h, dst.d, "%s", name)
		}
		merge("disjoint window above", at(100), at(700))
		merge("disjoint window below", at(700), at(100))
		merge("overlapping window", at(300), at(320))
		merge("window nested inside", fill(newPair(), 100, 500), at(300))
		merge("window spanning both sides", at(400), fill(newPair(), 1, numBuckets-1))
		merge("empty source", at(300), newPair())
		merge("into empty", newPair(), at(300))
		merge("last bucket", at(200), fill(newPair(), numBuckets-1, numBuckets-1))
		nilSource := at(300)
		nilSource.h.Merge(nil)
		nilSource.d.Merge(nil)
		check(t, nilSource.h, nilSource.d, "nil source")
		reset := at(300)
		reset.h.Reset()
		reset.d.Reset()
		check(t, reset.h, reset.d, "reset")
		merge("reset target", reset, at(800))
		merge("reset source", at(300), func() pair { p := at(500); p.h.Reset(); p.d.Reset(); return p }())
		self := at(300)
		merge("self-merge", self, self)
	})
	t.Run("named widths", func(t *testing.T) {
		// burst records n observations spread over 40 buckets from i.
		burst := func(p pair, i, n int) pair {
			for k := 0; k < n; k++ {
				v := bucketStarts[i+k%40]
				p.h.Record(v)
				p.d.Record(v)
			}
			return p
		}
		merge := func(name string, dst, src pair) {
			dst.h.Merge(src.h)
			dst.d.Merge(src.d)
			check(t, dst.h, dst.d, "%s", name)
		}
		edge := burst(newPair(), 300, maxNarrow)
		check(t, edge.h, edge.d, "%d observations", maxNarrow)
		if edge.h.wide != nil {
			t.Fatalf("%d observations widened the histogram", maxNarrow)
		}
		burst(edge, 300, 1)
		check(t, edge.h, edge.d, "%d observations", maxNarrow+1)
		if edge.h.wide == nil {
			t.Fatalf("%d observations left the histogram narrow", maxNarrow+1)
		}
		merge("narrow and narrow across the threshold", burst(newPair(), 300, 40000), burst(newPair(), 320, 30000))
		refilled := burst(newPair(), 500, maxNarrow+1)
		refilled.h.Reset()
		refilled.d.Reset()
		burst(refilled, 520, 300)
		merge("narrow target, wide source refilled after a Reset", burst(newPair(), 300, 100), refilled)
		merge("empty target, wide source", newPair(), refilled)
		self := burst(newPair(), 300, 40000)
		merge("self-merge across the threshold", self, self)
		wide := burst(newPair(), 200, 70000)
		snap := pair{wide.h.Snapshot(), wide.d.Snapshot()}
		check(t, snap.h, snap.d, "snapshot of a wide histogram")
		burst(wide, 250, 10)
		check(t, snap.h, snap.d, "snapshot after its source recorded on")
		wide.h.Reset()
		wide.d.Reset()
		check(t, wide.h, wide.d, "reset of a wide histogram")
		if wide.h.wide == nil {
			t.Fatal("Reset dropped the width")
		}
		burst(wide, 700, 50)
		check(t, wide.h, wide.d, "a wide histogram refilled after a Reset")
	})
	for seed := uint64(1); seed <= 40; seed++ {
		r := sim.NewRand(seed)
		ps := make([]pair, 4)
		centres := make([]int, len(ps))
		for i := range ps {
			ps[i] = newPair()
			centres[i] = 1 + r.IntN(numBuckets-1)
		}
		for step := 0; step < 400; step++ {
			i := r.IntN(len(ps))
			p := ps[i]
			switch op := r.IntN(20); {
			case op < 14:
				v := oracleValue(r, centres[i])
				p.h.Record(v)
				p.d.Record(v)
			case op < 17:
				o := ps[r.IntN(len(ps))]
				p.h.Merge(o.h)
				p.d.Merge(o.d)
			case op == 17:
				p.h.Merge(nil)
				p.d.Merge(nil)
			case op == 18:
				p.h.Reset()
				p.d.Reset()
				centres[i] = 1 + r.IntN(numBuckets-1)
			default:
				j := r.IntN(len(ps))
				ps[j] = pair{p.h.Snapshot(), p.d.Snapshot()}
				centres[j] = centres[i]
			}
			for k, q := range ps {
				check(t, q.h, q.d, "seed %d step %d histogram %d", seed, step, k)
			}
		}
	}
}

// FuzzHistogramMatchesDense decodes its input into a sequence of Record,
// Merge, Reset and Snapshot calls over three histograms and their dense
// oracles, and wants every query to agree after every call. An operation
// is three bytes: the call and its target, an argument, and for a Record
// where the value lies — on a bucket edge or a tick either side, inside the
// bucket, at or below zero, within the first bucket, or past 1000 s. A
// burst records one such value arg × 1 024 times, so that a few operations
// take a histogram past the 65 535 observations it counts in 16 bits.
func FuzzHistogramMatchesDense(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 200, 1, 12, 0, 0})
	f.Add([]byte{0, 233, 2, 1, 0, 3, 13, 0, 0, 18, 0, 0, 21, 1, 0, 12, 2, 0})
	f.Add([]byte{0, 3, 160, 1, 240, 5, 13, 0, 0, 19, 0, 0, 12, 1, 0, 0, 250, 4})
	f.Add([]byte{24, 40, 0, 24, 25, 2, 25, 64, 0, 12, 1, 0, 18, 0, 0, 24, 1, 0, 14, 0, 0, 13, 0, 0, 12, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ps [3]pair
		for i := range ps {
			ps[i] = newPair()
		}
		for ; len(data) >= 3; data = data[3:] {
			op, arg, pos := data[0], data[1], data[2]
			p := ps[op%3]
			switch kind := op / 3 % 9; kind {
			case 0, 1, 2, 3, 8:
				i := (int(arg)*4 + int(pos>>6)) % numBuckets
				var v time.Duration
				switch pos & 7 {
				case 0:
					v = bucketStarts[i]
				case 1:
					v = bucketStarts[i] - 1
				case 2:
					v = bucketStarts[i] + 1
				case 3:
					v = -time.Duration(arg)
				case 4:
					v = time.Duration(arg) * minTrackable / 255
				case 5:
					v = 1000*time.Second + time.Duration(arg)*time.Hour
				default:
					v = bucketStarts[i] + time.Duration(pos)
				}
				n := 1
				if kind == 8 {
					n = int(arg) * 1024
				}
				for ; n > 0; n-- {
					p.h.Record(v)
					p.d.Record(v)
				}
			case 4, 5:
				o := ps[int(arg)%len(ps)]
				p.h.Merge(o.h)
				p.d.Merge(o.d)
			case 6:
				p.h.Reset()
				p.d.Reset()
			default:
				ps[int(arg)%len(ps)] = pair{p.h.Snapshot(), p.d.Snapshot()}
			}
			for k, q := range ps {
				check(t, q.h, q.d, "histogram %d after %v", k, data[:3])
			}
		}
	})
}
