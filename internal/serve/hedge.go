package serve

import (
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"l3/internal/histogram"
)

// Headers of the serve-mode request protocol.
const (
	// HeaderDeadline carries the remaining latency budget in integer
	// milliseconds. The proxy honors it inbound (capping its own
	// RequestTimeout) and restamps the remainder outbound, so budgets
	// shrink hop by hop instead of resetting.
	HeaderDeadline = "X-L3-Deadline"
	// HeaderBackend names the backend that served the response, stamped by
	// the proxy so clients (l3load) can bucket latency per backend.
	HeaderBackend = "X-L3-Backend"
)

// hedgeTracker learns the hedge delay from the proxy's own successful
// latencies, the wall-clock counterpart of internal/resilience's per-service
// policy state: bucket counts over the same Linkerd bounds, the configured
// quantile recomputed every 64 observations, floored at MinDelay. Where
// resilience's svcState lives on the single sim thread, this one is hit by
// every request goroutine, so counts are atomics and the recompute is an
// optimistic single-flight over a preallocated buffer — observe and
// hedgeAfter stay allocation-free on the hot path.
type hedgeTracker struct {
	pct        float64
	minDelayNs int64

	buckets  []atomic.Int64
	observed atomic.Int64
	delayNs  atomic.Int64

	recomputing atomic.Bool
	countsBuf   []float64
}

// newHedgeTracker returns a tracker, or nil when pct disables hedging.
func newHedgeTracker(pct float64, minDelay time.Duration) *hedgeTracker {
	if pct <= 0 {
		return nil
	}
	n := len(histogram.LinkerdLatencyBounds) + 1
	return &hedgeTracker{
		pct:        pct,
		minDelayNs: int64(minDelay),
		buckets:    make([]atomic.Int64, n),
		countsBuf:  make([]float64, n),
	}
}

// observe books one successful latency. Allocation-free; every 64th call
// recomputes the cached delay (single-flight — a concurrent loser just skips,
// the next multiple catches up).
func (h *hedgeTracker) observe(latency time.Duration) {
	if h == nil {
		return
	}
	i := histogram.BucketFor(histogram.LinkerdLatencyBounds, latency.Seconds())
	h.buckets[i].Add(1)
	if h.observed.Add(1)&63 == 0 {
		h.recompute()
	}
}

func (h *hedgeTracker) recompute() {
	if !h.recomputing.CompareAndSwap(false, true) {
		return
	}
	for i := range h.buckets {
		h.countsBuf[i] = float64(h.buckets[i].Load())
	}
	d := int64(histogram.DurationQuantile(h.pct, histogram.LinkerdLatencyBounds, h.countsBuf))
	if d < h.minDelayNs {
		d = h.minDelayNs
	}
	h.delayNs.Store(d)
	h.recomputing.Store(false)
}

// hedgeAfter returns the learned hedge delay, or 0 while fewer than 64
// successes have been observed (no hedging before there is a distribution to
// hedge against). Allocation-free.
func (h *hedgeTracker) hedgeAfter() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.delayNs.Load())
}

// deadlineBudget resolves a request's latency budget: the client's
// X-L3-Deadline remainder if present, capped by the proxy's own default;
// zero means unbounded. A header that is not a positive integer of
// milliseconds a time.Duration can hold is ignored. Allocation-free (header
// lookup by canonical key, integer parse).
func deadlineBudget(req *http.Request, def time.Duration) time.Duration {
	budget := def
	if v := req.Header.Get(HeaderDeadline); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 && ms <= math.MaxInt64/int64(time.Millisecond) {
			if d := time.Duration(ms) * time.Millisecond; budget <= 0 || d < budget {
				budget = d
			}
		}
	}
	return budget
}
