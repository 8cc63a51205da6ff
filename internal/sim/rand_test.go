package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestRandDeterministicForSameSeed(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRandDifferentSeedsDiverge(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical 64-bit draws across different seeds", same)
	}
}

func TestForkIsIndependentOfSiblingConsumption(t *testing.T) {
	// Forking first and consuming the parent afterwards must not change the
	// fork's stream.
	parent1 := NewRand(7)
	fork1 := parent1.Fork()
	seq1 := []uint64{fork1.Uint64(), fork1.Uint64(), fork1.Uint64()}

	parent2 := NewRand(7)
	fork2 := parent2.Fork()
	for i := 0; i < 50; i++ {
		parent2.Float64()
	}
	seq2 := []uint64{fork2.Uint64(), fork2.Uint64(), fork2.Uint64()}

	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatalf("fork stream perturbed by parent consumption at %d", i)
		}
	}
}

func TestBoolEdgeCases(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !r.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolFrequencyTracksProbability(t *testing.T) {
	r := NewRand(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %.4f, want ~0.30", got)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRand(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("mean = %.3f, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("stddev = %.3f, want ~2", math.Sqrt(variance))
	}
}

func TestExpMean(t *testing.T) {
	r := NewRand(9)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(0.25)
	}
	if mean := sum / n; math.Abs(mean-0.25) > 0.01 {
		t.Fatalf("Exp mean = %.4f, want ~0.25", mean)
	}
}

func TestExpPanicsOnNonPositiveMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	NewRand(1).Exp(0)
}

func TestLogNormalFromQuantilesRoundTrip(t *testing.T) {
	d := NewLogNormalFromQuantiles(50*time.Millisecond, 400*time.Millisecond)
	if got := d.Median(); absDur(got-50*time.Millisecond) > time.Millisecond {
		t.Fatalf("Median = %v, want ~50ms", got)
	}
	if got := d.P99(); absDur(got-400*time.Millisecond) > 2*time.Millisecond {
		t.Fatalf("P99 = %v, want ~400ms", got)
	}
}

func TestLogNormalFromQuantilesEmpiricalQuantiles(t *testing.T) {
	d := NewLogNormalFromQuantiles(100*time.Millisecond, 900*time.Millisecond)
	r := NewRand(17)
	const n = 100000
	samples := make([]time.Duration, n)
	for i := range samples {
		samples[i] = d.Sample(r)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	median := samples[n/2]
	p99 := samples[n*99/100]
	if ratio := median.Seconds() / 0.1; ratio < 0.97 || ratio > 1.03 {
		t.Fatalf("empirical median = %v, want ~100ms", median)
	}
	if ratio := p99.Seconds() / 0.9; ratio < 0.90 || ratio > 1.10 {
		t.Fatalf("empirical P99 = %v, want ~900ms", p99)
	}
}

func TestLogNormalFromQuantilesDegenerateInputs(t *testing.T) {
	// p99 below median is clamped to the median (constant distribution).
	d := NewLogNormalFromQuantiles(100*time.Millisecond, 10*time.Millisecond)
	r := NewRand(23)
	for i := 0; i < 100; i++ {
		if got := d.Sample(r); absDur(got-100*time.Millisecond) > time.Millisecond {
			t.Fatalf("degenerate sample = %v, want exactly ~100ms", got)
		}
	}
	// Non-positive median is clamped to a tiny positive value.
	d = NewLogNormalFromQuantiles(0, 0)
	if d.Median() <= 0 {
		t.Fatalf("Median = %v, want positive after clamping", d.Median())
	}
}

func TestLogNormalSamplesAlwaysPositiveProperty(t *testing.T) {
	r := NewRand(29)
	f := func(medMs, spread uint16) bool {
		median := time.Duration(int(medMs)%2000+1) * time.Millisecond
		p99 := median + time.Duration(spread)*time.Millisecond
		d := NewLogNormalFromQuantiles(median, p99)
		for i := 0; i < 32; i++ {
			if d.Sample(r) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func TestSetContinuesTheStreamWithoutAllocating(t *testing.T) {
	a := NewRand(11)
	for i := 0; i < 17; i++ {
		a.Normal(0, 1)
	}
	var b Rand
	b.Set(a)
	for i := 0; i < 1000; i++ {
		if x, y := a.Normal(0, 1), b.Normal(0, 1); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("draw %d: copy read %v, source %v", i, y, x)
		}
	}
	a.Uint64() // the copy's state is its own
	if x, y := a.Uint64(), b.Uint64(); x == y {
		t.Fatal("the copy followed its source's draws")
	}
	if n := testing.AllocsPerRun(100, func() { b.Set(a) }); n != 0 {
		t.Fatalf("Set allocates %v times, want 0", n)
	}
}
