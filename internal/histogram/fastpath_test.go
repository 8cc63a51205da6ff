package histogram

import (
	"math"
	"runtime"
	"testing"
	"time"

	"l3/internal/sim"
)

// clampedLogIndex is the reference mapping as Record applies it: the original
// log-formula index, clamped to the table (overflow bucket).
func clampedLogIndex(v time.Duration) int {
	i := logBucketIndex(v)
	if i >= numBuckets {
		i = numBuckets - 1
	}
	return i
}

// TestBucketIndexMatchesLogFormulaAtBoundaries walks every bucket edge: the
// first duration of each bucket, and the durations one tick either side, must
// map identically under the precomputed tables and the log formula.
func TestBucketIndexMatchesLogFormulaAtBoundaries(t *testing.T) {
	for i := 1; i < numBuckets; i++ {
		edge := bucketStarts[i]
		for _, v := range []time.Duration{edge - 1, edge, edge + 1} {
			if v < 0 {
				continue
			}
			if got, want := bucketIndex(v), clampedLogIndex(v); got != want {
				t.Fatalf("bucketIndex(%v) = %d, log formula gives %d (edge of bucket %d)",
					v, got, want, i)
			}
		}
	}
}

// TestBucketIndexMatchesLogFormulaSweep cross-checks the table-driven index
// against the log formula over seeded random durations spanning the whole
// trackable range (and beyond, into the overflow bucket).
func TestBucketIndexMatchesLogFormulaSweep(t *testing.T) {
	r := sim.NewRand(42)
	for trial := 0; trial < 200000; trial++ {
		bits := 1 + r.IntN(63)
		v := time.Duration(r.Uint64() & (1<<bits - 1))
		if got, want := bucketIndex(v), clampedLogIndex(v); got != want {
			t.Fatalf("bucketIndex(%v) = %d, log formula gives %d", v, got, want)
		}
	}
}

// TestBucketUpperMatchesPow pins the precomputed upper-bound table to the
// original per-call math.Pow form.
func TestBucketUpperMatchesPow(t *testing.T) {
	for i := 0; i < numBuckets+3; i++ { // +3: exercise the past-table fallback
		got := bucketUpper(i)
		var want time.Duration
		if i == 0 {
			want = minTrackable
		} else {
			want = time.Duration(float64(minTrackable) * math.Pow(growth, float64(i)))
		}
		if got != want {
			t.Fatalf("bucketUpper(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestRecordAllocationFree pins the recorder's steady state: once the window
// covers both values, Record allocates nothing.
func TestRecordAllocationFree(t *testing.T) {
	h := New()
	h.Record(time.Millisecond)
	h.Record(42 * time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(time.Millisecond)
		h.Record(42 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f objects per pair of calls, want 0", allocs)
	}
}

// TestOneSecondCostsOneWindow pins what one second of a load generator's
// traffic costs: 200 log-normal latencies with P99/P50 = 5, in a fresh
// histogram, for 100 seeds. The first Record allocates the first window of
// 16-bit counts, one object of at most 640 B; at most one regrowth follows,
// in fewer than half of the seconds; and a second costs at most 1 280 B on
// average. It read 1 025 B; with 64-bit counts it read ≈ 4 200 B, and the
// whole layout was 7 464 B. The log-normal is symmetric where latency is
// skewed right, so the first window's placement misses more here than in a
// simulated run (where 82 % of the seconds never regrow).
func TestOneSecondCostsOneWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d := sim.NewLogNormalFromQuantiles(80*time.Millisecond, 400*time.Millisecond)
	const seconds = 100
	var one, totalBytes uint64
	for seed := uint64(1); seed <= seconds; seed++ {
		r := sim.NewRand(seed)
		latencies := make([]time.Duration, 200)
		for i := range latencies {
			latencies[i] = d.Sample(r)
		}
		var h Histogram
		var before, first, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.Record(latencies[0])
		runtime.ReadMemStats(&first)
		for _, v := range latencies[1:] {
			h.Record(v)
		}
		runtime.ReadMemStats(&after)
		if n, b := first.Mallocs-before.Mallocs, first.TotalAlloc-before.TotalAlloc; n != 1 || b > 640 {
			t.Fatalf("seed %d: the first Record made %d allocations of %d B, want one of <= 640 B", seed, n, b)
		}
		switch n := after.Mallocs - before.Mallocs; {
		case n == 1:
			one++
		case n > 2:
			t.Fatalf("seed %d: one second made %d allocations, want at most 2", seed, n)
		}
		totalBytes += after.TotalAlloc - before.TotalAlloc
	}
	t.Logf("%d of %d seconds cost one allocation; %d B a second on average", one, seconds, totalBytes/seconds)
	if one < seconds/2 {
		t.Errorf("%d of %d seconds cost one allocation, want at least half", one, seconds)
	}
	if mean := totalBytes / seconds; mean > 1280 {
		t.Errorf("a second costs %d B on average, want <= 1 280", mean)
	}
}

// BenchmarkRecord measures one observation into the log-bucketed recorder
// every load generator feeds per request.
func BenchmarkRecord(b *testing.B) {
	h := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i%1000+1) * time.Millisecond)
	}
}

// BenchmarkQuantile measures a p99 query over a populated recorder — the
// per-second reduction behind every latency series.
func BenchmarkQuantile(b *testing.B) {
	h := New()
	for i := 0; i < 10000; i++ {
		h.Record(time.Duration(i%997+1) * time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.Quantile(0.99) <= 0 {
			b.Fatal("empty quantile")
		}
	}
}
