package loadgen

import (
	"math"
	"testing"
	"time"

	"l3/internal/sim"
	"l3/internal/trace"
)

// instantIssue responds synchronously with a fixed latency.
func instantIssue(latency time.Duration, success bool) IssueFunc {
	return func(done func(time.Duration, bool)) error {
		done(latency, success)
		return nil
	}
}

func TestConstantRateOffersExpectedThroughput(t *testing.T) {
	e := sim.NewEngine()
	g := New(e, Config{Rate: ConstantRate(100)}, instantIssue(5*time.Millisecond, true))
	g.Start()
	e.RunUntil(10 * time.Second)
	g.Stop()
	// 100 RPS for 10s => ~1000 requests.
	if n := g.Issued(); n < 990 || n > 1010 {
		t.Fatalf("issued = %d, want ~1000", n)
	}
}

func TestOpenLoopNotGatedOnResponses(t *testing.T) {
	// Responses that never arrive must not slow the arrival process.
	e := sim.NewEngine()
	g := New(e, Config{Rate: ConstantRate(50)}, func(func(time.Duration, bool)) error {
		return nil // black hole: done never called
	})
	g.Start()
	e.RunUntil(4 * time.Second)
	g.Stop()
	if n := g.Issued(); n < 195 || n > 205 {
		t.Fatalf("issued = %d, want ~200 despite zero responses", n)
	}
}

func TestRateFollowsSeries(t *testing.T) {
	e := sim.NewEngine()
	s := trace.Series{Step: time.Second, Values: []float64{
		100, 100, 100, 100, 100, 200, 200, 200, 200, 200, 200,
	}}
	g := New(e, Config{Rate: s.At}, instantIssue(time.Millisecond, true))
	g.Start()
	e.RunUntil(10 * time.Second)
	g.Stop()
	// ~5s at 100 + ~5s at ~200 (with a 1s interpolation ramp) => ~1550.
	if n := g.Issued(); n < 1350 || n > 1700 {
		t.Fatalf("issued = %d, want ~1500", n)
	}
}

func TestZeroRatePausesAndResumes(t *testing.T) {
	e := sim.NewEngine()
	rate := func(now time.Duration) float64 {
		if now < 2*time.Second {
			return 0
		}
		return 100
	}
	g := New(e, Config{Rate: rate}, instantIssue(time.Millisecond, true))
	g.Start()
	e.RunUntil(3 * time.Second)
	g.Stop()
	n := g.Issued()
	if n < 80 || n > 110 {
		t.Fatalf("issued = %d, want ~100 (only the final second offers load)", n)
	}
}

func TestWarmUpDiscardsSamples(t *testing.T) {
	e := sim.NewEngine()
	g := New(e, Config{Rate: ConstantRate(100), WarmUp: 5 * time.Second},
		instantIssue(time.Millisecond, true))
	g.Start()
	e.RunUntil(10 * time.Second)
	g.Stop()
	rec := g.Recorder()
	if rec.Count() > 510 || rec.Count() < 490 {
		t.Fatalf("recorded = %d, want ~500 (half the run discarded)", rec.Count())
	}
}

func TestIssueErrorsCounted(t *testing.T) {
	e := sim.NewEngine()
	g := New(e, Config{Rate: ConstantRate(10)}, func(func(time.Duration, bool)) error {
		return errTest
	})
	g.Start()
	e.RunUntil(time.Second)
	g.Stop()
	if g.IssueErrors() != g.Issued() || g.Issued() == 0 {
		t.Fatalf("errors = %d, issued = %d", g.IssueErrors(), g.Issued())
	}
}

var errTest = errString("test error")

type errString string

func (e errString) Error() string { return string(e) }

func TestRecorderQuantilesAndRates(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 99; i++ {
		r.Record(time.Duration(i)*10*time.Millisecond, 10*time.Millisecond, true)
	}
	r.Record(990*time.Millisecond, time.Second, false)
	if r.Count() != 100 {
		t.Fatalf("Count = %d", r.Count())
	}
	if sr := r.SuccessRate(); sr != 0.99 {
		t.Fatalf("SuccessRate = %v", sr)
	}
	if q := r.Quantile(0.5); q > 12*time.Millisecond {
		t.Fatalf("p50 = %v", q)
	}
	if q := r.Quantile(0.999); q < 900*time.Millisecond {
		t.Fatalf("p99.9 = %v, the failure's 1s latency should surface", q)
	}
	if q := r.SuccessQuantile(0.999); q > 12*time.Millisecond {
		t.Fatalf("success-only p99.9 = %v, want ~10ms", q)
	}
}

func TestRecorderSeriesOutputs(t *testing.T) {
	r := NewRecorder()
	// Bucket 0: 10 fast successes; bucket 2: 5 slow failures.
	for i := 0; i < 10; i++ {
		r.Record(500*time.Millisecond, 10*time.Millisecond, true)
	}
	for i := 0; i < 5; i++ {
		r.Record(2500*time.Millisecond, 800*time.Millisecond, false)
	}
	rps := r.RPSSeries()
	if len(rps) != 3 || rps[0] != 10 || rps[1] != 0 || rps[2] != 5 {
		t.Fatalf("RPSSeries = %v", rps)
	}
	p99 := r.QuantileSeries(0.99)
	if p99[0] > 0.012 || p99[1] != 0 || p99[2] < 0.7 {
		t.Fatalf("QuantileSeries = %v", p99)
	}
	sr := r.SuccessRateSeries()
	if sr[0] != 1 || sr[1] != 1 || sr[2] != 0 {
		t.Fatalf("SuccessRateSeries = %v", sr)
	}
}

func TestRecorderEmptyDefaults(t *testing.T) {
	r := NewRecorder()
	if r.SuccessRate() != 1 || r.Quantile(0.99) != 0 || r.Buckets() != 0 {
		t.Fatal("empty recorder defaults wrong")
	}
}

func TestRecorderMerge(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	a.Record(0, 10*time.Millisecond, true)
	b.Record(0, 20*time.Millisecond, false)
	b.Record(1500*time.Millisecond, 30*time.Millisecond, true)
	a.Merge(b)
	if a.Count() != 3 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if math.Abs(a.SuccessRate()-2.0/3) > 1e-9 {
		t.Fatalf("merged success rate = %v", a.SuccessRate())
	}
	if a.Buckets() != 2 {
		t.Fatalf("merged buckets = %d", a.Buckets())
	}
	a.Merge(nil) // no-op
	if a.Count() != 3 {
		t.Fatalf("count after a nil merge = %d", a.Count())
	}
}

func TestGeneratorPanicsOnMissingDeps(t *testing.T) {
	e := sim.NewEngine()
	mustPanic(t, func() { New(e, Config{Rate: ConstantRate(1)}, nil) })
	mustPanic(t, func() { New(e, Config{}, instantIssue(0, true)) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestDelayedResponsesRecordAtStartBucket(t *testing.T) {
	// A request issued at t=0.5s answered at t=3s must land in bucket 0:
	// the paper's latency series are keyed by request time.
	e := sim.NewEngine()
	issue := func(done func(time.Duration, bool)) error {
		e.After(2500*time.Millisecond, func() { done(2500*time.Millisecond, true) })
		return nil
	}
	g := New(e, Config{Rate: ConstantRate(2)}, issue)
	g.Start()
	e.RunUntil(time.Second)
	g.Stop()
	e.RunUntil(time.Minute)
	rps := g.Recorder().RPSSeries()
	if len(rps) == 0 || rps[0] == 0 {
		t.Fatalf("RPSSeries = %v, want requests attributed to bucket 0", rps)
	}
}

// TestRequestConservation pins the count the bench pipeline checks after
// every drain: each issued request ends in exactly one of Completed and
// IssueErrors, whether done runs inside issue or seconds later.
func TestRequestConservation(t *testing.T) {
	e := sim.NewEngine()
	n := 0
	g := New(e, Config{Rate: ConstantRate(100)}, func(done func(time.Duration, bool)) error {
		switch n++; n % 3 {
		case 0:
			return errTest
		case 1:
			done(time.Millisecond, true)
		default:
			e.After(2*time.Second, func() { done(2*time.Second, false) })
		}
		return nil
	})
	g.Start()
	e.RunUntil(time.Second)
	g.Stop()
	if g.Issued() == g.Completed()+g.IssueErrors() {
		t.Fatal("delayed requests already counted as completed before the drain")
	}
	e.RunUntil(time.Minute)
	if g.Issued() == 0 || g.IssueErrors() == 0 || g.Issued() != g.Completed()+g.IssueErrors() {
		t.Fatalf("issued %d != completed %d + issue errors %d", g.Issued(), g.Completed(), g.IssueErrors())
	}
	if got := g.Recorder().Count(); got != g.Completed() {
		t.Fatalf("recorded %d samples for %d completions", got, g.Completed())
	}
}

// TestDoneTwicePanics: per-request records are recycled, so a second done
// must not pass silently — it would file a sample under whichever request
// holds the record next.
func TestDoneTwicePanics(t *testing.T) {
	e := sim.NewEngine()
	var keep func(time.Duration, bool)
	g := New(e, Config{Rate: ConstantRate(1)}, func(done func(time.Duration, bool)) error {
		keep = done
		done(time.Millisecond, true)
		return nil
	})
	g.Start()
	e.RunUntil(1500 * time.Millisecond)
	g.Stop()
	defer func() {
		msg, _ := recover().(string)
		if want := "loadgen: the request issued at 1s completed twice"; msg != want {
			t.Fatalf("second done: recovered %q, want %q", msg, want)
		}
	}()
	keep(time.Millisecond, true)
}

// TestArrivalAllocationFree pins the generator's own share of a simulated
// request: rate function, gap, arrival event, record and recorder, around an
// issue that completes at once, allocate nothing once warm.
func TestArrivalAllocationFree(t *testing.T) {
	e := sim.NewEngine()
	g := New(e, Config{Rate: ConstantRate(1000)}, instantIssue(time.Millisecond, true))
	g.Start()
	e.RunUntil(time.Second)
	before := g.Issued()
	allocs := testing.AllocsPerRun(500, func() { e.Step() })
	if g.Issued() < before+500 {
		t.Fatalf("stepping the engine issued %d requests, want one per step", g.Issued()-before)
	}
	if allocs != 0 {
		t.Fatalf("%.2f allocations per arrival, want 0", allocs)
	}
}
