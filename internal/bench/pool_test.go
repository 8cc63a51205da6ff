package bench

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l3/internal/chaos"
	"l3/internal/guard"
	"l3/internal/overload"
	"l3/internal/resilience"
	"l3/internal/trace"
)

func TestForEachRunsEveryIndexExactlyOnce(t *testing.T) {
	for _, parallel := range []int{0, 1, 3, 8, 100} {
		const n = 37
		var counts [n]atomic.Int64
		err := ForEach(parallel, n, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("parallel=%d: index %d ran %d times", parallel, i, c)
			}
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	called := false
	if err := ForEach(4, 0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(4, -3, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for n <= 0")
	}
}

func TestForEachReturnsLowestIndexedError(t *testing.T) {
	// Error selection must not depend on which goroutine finishes first.
	errOf := func(i int) error { return fmt.Errorf("fail-%d", i) }
	for _, parallel := range []int{1, 2, 8} {
		err := ForEach(parallel, 20, func(i int) error {
			if i == 7 || i == 13 {
				return errOf(i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail-7" {
			t.Fatalf("parallel=%d: err = %v, want fail-7", parallel, err)
		}
	}
}

func TestForEachSerialStopsAtFirstError(t *testing.T) {
	// parallel == 1 degenerates to a plain loop: indices after the failure
	// never run.
	var ran []int
	sentinel := errors.New("boom")
	err := ForEach(1, 10, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if len(ran) != 4 {
		t.Fatalf("serial loop ran %v after the failure", ran)
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const parallel = 3
	var cur, peak atomic.Int64
	var mu sync.Mutex
	err := ForEach(parallel, 50, func(int) error {
		c := cur.Add(1)
		mu.Lock()
		if c > peak.Load() {
			peak.Store(c)
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > parallel {
		t.Fatalf("observed %d concurrent calls, cap is %d", p, parallel)
	}
}

func TestSelfStatsCountRuns(t *testing.T) {
	startRuns, startBusy := SelfStats()
	o := quick()
	o.Duration = 30 * time.Second
	if _, err := RunScenario(trace.Scenario1, AlgoRoundRobin, o); err != nil {
		t.Fatal(err)
	}
	runs, busy := SelfStats()
	if runs-startRuns != 1 {
		t.Fatalf("runs delta = %v, want 1", runs-startRuns)
	}
	if busy <= startBusy {
		t.Fatal("busy seconds did not grow")
	}
}

// TestParallelMatchesSerial is the determinism guarantee of the issue: the
// same scenario fanned out across 8 workers must produce a recorder that is
// bit-for-bit identical to the serial run — every bucket, every histogram
// count, every float.
func TestParallelMatchesSerial(t *testing.T) {
	base := Options{Seed: 1, WarmUp: 30 * time.Second, Duration: time.Minute, Reps: 4}

	serial := base
	serial.Parallel = 1
	a, err := RunScenario(trace.Scenario5, AlgoL3, serial)
	if err != nil {
		t.Fatal(err)
	}

	wide := base
	wide.Parallel = 8
	b, err := RunScenario(trace.Scenario5, AlgoL3, wide)
	if err != nil {
		t.Fatal(err)
	}

	if a.Count() == 0 {
		t.Fatal("no traffic recorded")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel run diverged from serial: n=%d/%d p99=%v/%v",
			a.Count(), b.Count(), a.Quantile(0.99), b.Quantile(0.99))
	}
}

// TestSweepMatchesAtAnyParallel is the sweep's determinism guarantee: one
// mixed cell list — a plain trace run with cost accounting, a chaos,
// resilience and overload run with a tier mix, a guarded chaos run and a DSB
// run, two repetitions each, all in one fan-out — must yield records that
// are deeply equal at -parallel 1 and 8: every recorder bucket, counter
// total, count matrix, weight snapshot and score.
func TestSweepMatchesAtAnyParallel(t *testing.T) {
	base := Options{Seed: 1, Reps: 2, WarmUp: 10 * time.Second, Duration: 40 * time.Second}
	costly := base
	costly.CostLambda = 1e5
	storm := resilienceLoadOptions(base)
	storm.Chaos = saturateSchedule(storm, 0.1, apiService+"-cluster-1", apiService+"-cluster-2")
	storm.Resilience = &resilience.Policy{
		Deadline: time.Second,
		Retry:    resilience.RetryConfig{MaxAttempts: 3, AttemptTimeout: 300 * time.Millisecond, Jitter: 0.2, BudgetRatio: 0.2},
		Hedge:    resilience.HedgeConfig{Percentile: 0.95},
	}
	storm.Overload = figO2OverloadPolicy()
	storm.OverloadTierMix = []int{overload.TierCritical, overload.TierDefault, overload.TierSheddable}
	guarded := base
	guarded.Guard = true
	guarded.Chaos = &chaos.Schedule{Events: []chaos.Event{{Kind: chaos.Garbage, At: 15 * time.Second, Duration: 10 * time.Second, Mode: "nan"}}}
	cells := []cell{
		{scenario: trace.Scenario1, algo: AlgoL3, opts: costly},
		{scenario: trace.Scenario1, algo: AlgoRoundRobin, opts: storm},
		{scenario: trace.Scenario1, algo: AlgoL3, opts: guarded},
		{dsb: &dsbLoad{rps: 100, duration: 10 * time.Second}, algo: AlgoL3, opts: base},
	}
	serial, err := sweep(1, cells...)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := sweep(8, cells...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if !reflect.DeepEqual(serial[i], wide[i]) {
			t.Fatalf("cell %d: the record at -parallel 8 diverged from -parallel 1", i)
		}
	}
	// The records carry what each layer counted, so the equality above
	// compares more than recorders.
	if len(serial[0].reps) != 2 || len(serial[0].reps[1].counts) == 0 {
		t.Fatal("the cost cell kept no per-rep count matrices")
	}
	if serial[1].total(resilience.MetricRetriesTotal) == 0 || serial[1].total(overload.MetricAdmittedTotal) == 0 || serial[1].tiers[overload.TierCritical] == nil {
		t.Fatal("the storm cell recorded no retries, admissions or tier recorders")
	}
	if serial[2].total(guard.MetricRejectedTotal) == 0 {
		t.Fatal("the guarded cell rejected no garbage")
	}
	if serial[3].rec.Count() == 0 {
		t.Fatal("the DSB cell recorded no requests")
	}
}
