// Package histogram provides streaming latency histograms.
//
// Two shapes are offered:
//
//   - Histogram: an HDR-style log-bucketed recorder with ~2 % relative
//     error across a 10 µs .. 1000 s range, used by load generators and
//     trace statistics where the full distribution is needed. The layout
//     has 933 buckets, but a histogram counts only over a window of it
//     that grows to what it has seen: the first observation allocates 288
//     buckets (2 304 B, a factor of 300 in latency), and a value outside
//     at least doubles the window toward it. One second of a load
//     generator's traffic spans 100–250 buckets, so it mostly costs that
//     one allocation where the whole layout cost 7 464 B.
//   - Explicit cumulative bucket layouts (see Buckets) used by the
//     Prometheus-flavoured metrics substrate, with the same
//     linear-interpolation quantile estimation Prometheus's
//     histogram_quantile applies.
package histogram

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

const (
	// minTrackable is the smallest distinguishable value; anything lower is
	// recorded in bucket 0.
	minTrackable = 10 * time.Microsecond
	// growth is the per-bucket geometric growth factor, chosen for ~2 %
	// relative quantile error.
	growth = 1.02
)

var (
	logGrowth  = math.Log(growth)
	numBuckets = logBucketIndex(1000*time.Second) + 2

	// bucketStarts[i] is the smallest duration mapped to bucket i, derived
	// once from the log formula so the table-driven index below reproduces
	// it bit-for-bit without a math.Log per Record.
	bucketStarts []time.Duration
	// bucketUppers[i] is the representative upper-bound value of bucket i,
	// the precomputed form of the old per-call math.Pow.
	bucketUppers []time.Duration
	// octaveLo/octaveHi clamp the index search to the buckets whose range
	// intersects the value's power-of-two octave (~36 buckets at growth
	// 1.02), so a Record costs a handful of compares instead of a log.
	octaveLo [65]int32
	octaveHi [65]int32
)

// logBucketIndex is the original logarithmic bucket mapping, kept as the
// reference the tables are calibrated against (and tests compare to).
func logBucketIndex(v time.Duration) int {
	if v <= minTrackable {
		return 0
	}
	return 1 + int(math.Log(float64(v)/float64(minTrackable))/logGrowth)
}

func init() {
	bucketStarts = make([]time.Duration, numBuckets)
	bucketUppers = make([]time.Duration, numBuckets)
	bucketUppers[0] = minTrackable
	for i := 1; i < numBuckets; i++ {
		// Seed near the analytic boundary, then calibrate against the log
		// formula so float rounding cannot shift any bucket edge.
		v := time.Duration(math.Exp(float64(i-1)*logGrowth) * float64(minTrackable))
		for v > 0 && logBucketIndex(v) >= i {
			v--
		}
		for logBucketIndex(v) < i {
			v++
		}
		bucketStarts[i] = v
		bucketUppers[i] = time.Duration(float64(minTrackable) * math.Pow(growth, float64(i)))
	}
	for b := 0; b <= 64; b++ {
		var lowest, highest time.Duration
		if b > 0 {
			lowest = 1 << (b - 1)
			highest = 1<<b - 1
			if b == 64 {
				highest = math.MaxInt64
			}
		}
		lo := sortSearchStarts(lowest)
		hi := sortSearchStarts(highest)
		octaveLo[b], octaveHi[b] = int32(lo), int32(hi)
	}
}

// sortSearchStarts returns the bucket index of v by full binary search over
// bucketStarts (used only to build the octave tables).
func sortSearchStarts(v time.Duration) int {
	lo, hi := 0, numBuckets-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if bucketStarts[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// bucketIndex maps a duration to its bucket using the precomputed tables:
// identical to logBucketIndex (clamped to the table) with no transcendental
// math on the hot path.
func bucketIndex(v time.Duration) int {
	if v <= minTrackable {
		return 0
	}
	lo := int(octaveLo[bits.Len64(uint64(v))])
	hi := int(octaveHi[bits.Len64(uint64(v))])
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if bucketStarts[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// bucketUpper returns a representative (upper-bound) value for bucket i.
func bucketUpper(i int) time.Duration {
	if i < len(bucketUppers) {
		return bucketUppers[i]
	}
	return time.Duration(float64(minTrackable) * math.Pow(growth, float64(i)))
}

// firstWindow is the number of buckets a histogram's first observation
// allocates: 2 304 B, the largest allocation size class under 2.5 KB, and
// a factor of 1.02^288 ≈ 300 in latency. The first value sits two fifths of
// the way up, because latency is skewed right — a floor below the typical
// request, a tail above it. Over the Figure 10 grid (5 scenarios × 3
// algorithms, ten minutes each) 18 % of the seconds regrow; 256 buckets
// centred on the first value regrew 39 %, and a 64-bucket window regrows
// several times per histogram, costing more allocations than it saves bytes.
const firstWindow = 288

// Histogram records durations into geometric buckets and answers quantile
// queries. The zero value is ready to use. Histogram is not safe for
// concurrent use; callers that share one across goroutines must synchronise.
type Histogram struct {
	// counts[j] is the count of bucket lo+j: a window of the layout that
	// covers every bucket recorded since the window was allocated.
	counts []uint64
	lo     int
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// New returns an empty histogram.
func New() *Histogram {
	return &Histogram{}
}

// Record adds one observation. Negative values are clamped to zero.
func (h *Histogram) Record(v time.Duration) {
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	if i < h.lo || i >= h.lo+len(h.counts) {
		h.cover(i, i)
	}
	h.counts[i-h.lo]++
	h.total++
	h.sum += v
	if h.total == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// cover grows the window to hold buckets [a, b]. The first window is at
// least firstWindow wide with two fifths of its slack below [a, b]; a later
// one is at least twice the old, and its slack goes to the side that
// missed. No window is wider than the layout.
func (h *Histogram) cover(a, b int) {
	n := len(h.counts)
	lo, hi := a, b
	if n > 0 {
		lo, hi = min(a, h.lo), max(b, h.lo+n-1)
	}
	size := min(max(hi-lo+1, 2*n, firstWindow), numBuckets)
	switch {
	case n == 0:
		lo -= (size - (hi - lo + 1)) * 2 / 5
	case a < h.lo:
		lo = hi - size + 1
	}
	lo = max(min(lo, numBuckets-size), 0)
	counts := make([]uint64, size)
	if n > 0 {
		copy(counts[h.lo-lo:], h.counts)
	}
	h.counts, h.lo = counts, lo
}

// occupied returns the window's slice from the bucket of min to the bucket
// of max: every nonzero count, since min and max are exact. It is empty
// when the histogram is.
func (h *Histogram) occupied() []uint64 {
	if h.total == 0 {
		return nil
	}
	return h.counts[bucketIndex(h.min)-h.lo : bucketIndex(h.max)-h.lo+1]
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all recorded observations.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Mean returns the mean observation, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Min returns the smallest recorded observation, or 0 if empty.
func (h *Histogram) Min() time.Duration { return h.min }

// Max returns the largest recorded observation, or 0 if empty.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns an estimate of the q-quantile (q in [0,1]) of the
// recorded distribution, or 0 if the histogram is empty. Estimates carry the
// bucket's relative error (~2 %) except at the extremes, which are exact.
func (h *Histogram) Quantile(q float64) time.Duration {
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
	first := bucketIndex(h.min)
	for j, c := range h.occupied() {
		seen += c
		if seen >= rank {
			v := bucketUpper(first + j)
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

// Merge adds all observations recorded in o into h. Both histograms share
// the package-wide bucket layout, so the merge is exact; it touches only
// o's occupied buckets, from the bucket of o's min to that of its max.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	a, b := bucketIndex(o.min), bucketIndex(o.max)
	if a < h.lo || b >= h.lo+len(h.counts) {
		h.cover(a, b)
	}
	dst := h.counts[a-h.lo : b-h.lo+1]
	for j, c := range o.occupied() {
		dst[j] += c
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

// Reset discards all recorded observations but keeps the window.
func (h *Histogram) Reset() {
	clear(h.occupied())
	h.total = 0
	h.sum = 0
	h.min = 0
	h.max = 0
}

// Snapshot returns an independent copy of the histogram.
func (h *Histogram) Snapshot() *Histogram {
	c := &Histogram{
		lo:    h.lo,
		total: h.total,
		sum:   h.sum,
		min:   h.min,
		max:   h.max,
	}
	if h.counts != nil {
		c.counts = make([]uint64, len(h.counts))
		copy(c.counts, h.counts)
	}
	return c
}

// String summarises the distribution for debugging.
func (h *Histogram) String() string {
	return fmt.Sprintf("histogram{n=%d p50=%v p99=%v max=%v}",
		h.total, h.Quantile(0.5), h.Quantile(0.99), h.max)
}
