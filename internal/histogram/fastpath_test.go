package histogram

import (
	"math"
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

// TestRecordAllocationFree pins the recorder's steady state: after the first
// Record lazily allocates the bucket array, recording costs zero allocations.
func TestRecordAllocationFree(t *testing.T) {
	h := New()
	h.Record(time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(42 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f objects per call, want 0", allocs)
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
