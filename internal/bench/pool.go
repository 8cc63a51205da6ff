package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"l3/internal/metrics"
)

// The harness instruments itself through internal/metrics, the same
// substrate the simulated data plane uses: every completed simulation run
// increments a counter and adds its wall-clock cost, so any caller can
// compute the parallel speedup as busy-seconds / elapsed-seconds (the
// busy-seconds sum is what a serial execution of the same runs would have
// cost). The estimate assumes workers get real cores: when -parallel
// exceeds the CPUs available, runs time-slice, each run's wall-clock
// inflates by the oversubscription factor, and busy-seconds overestimates
// the serial cost accordingly.
const (
	// MetricRunsCompleted counts finished simulation runs (one scenario or
	// DSB replay each).
	MetricRunsCompleted = "bench_runs_completed_total"
	// MetricRunBusySeconds accumulates the wall-clock seconds spent inside
	// simulation runs — the serial-execution estimate.
	MetricRunBusySeconds = "bench_run_busy_seconds_total"
)

var (
	selfRegistry = metrics.NewRegistry()
	selfRuns     = selfRegistry.Counter(MetricRunsCompleted, nil)
	selfBusy     = selfRegistry.Counter(MetricRunBusySeconds, nil)
)

// SelfStats reads the harness's self-metrics: the number of completed
// simulation runs and the total wall-clock time spent inside them. Dividing
// busy by the observed elapsed wall-clock gives the effective speedup over
// serial execution.
func SelfStats() (runs float64, busy time.Duration) {
	return selfRuns.Value(), time.Duration(selfBusy.Value() * float64(time.Second))
}

// recordRun accounts one finished simulation run.
func recordRun(elapsed time.Duration) {
	selfRuns.Inc()
	selfBusy.Add(elapsed.Seconds())
}

// ForEach runs fn(0), …, fn(n-1) across at most parallel goroutines and
// returns the error of the lowest-indexed failed call (nil if all succeed),
// so error selection never depends on goroutine scheduling. parallel <= 0
// defaults to runtime.GOMAXPROCS(0); parallel == 1 degenerates to a plain
// serial loop.
//
// Each index is executed exactly once and owned exclusively by one call, so
// callers collect results by writing to the i-th slot of a pre-sized slice
// and then reduce the slice in index order. Because every run derives its
// own seed and owns its engine, that reduction is bit-for-bit identical to
// what the serial loop produces, for any parallelism.
func ForEach(parallel, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	if parallel == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
