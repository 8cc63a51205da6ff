package serve

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l3/internal/metrics"
	"l3/internal/resilience"
)

// newTestAdapter builds backends named names on reg under an adapter
// running pol.
func newTestAdapter(t *testing.T, pol resilience.Policy, reg *metrics.Registry, names ...string) (*wallResilience, []*Backend) {
	t.Helper()
	backends := make([]*Backend, 0, len(names))
	for _, n := range names {
		b, err := newBackend(BackendConfig{Name: n, URL: "http://127.0.0.1:1"}, "api", reg)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, b)
	}
	return newWallResilience(pol, "api", backends, reg), backends
}

// learnedDelay is the hedge delay a request without a deadline would get.
func (r *wallResilience) learnedDelay() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.HedgeAfter(0, 0)
}

// ejectionsOf reads b's ejections where /metrics shows them.
func ejectionsOf(reg *metrics.Registry, b *Backend) float64 {
	return reg.Counter(resilience.MetricBreakerEjectionsTotal, metrics.Labels{"service": "api", "backend": b.Name}).Value()
}

func TestBreakerOpensAndReArms(t *testing.T) {
	reg := metrics.NewRegistry()
	_, backends := newTestAdapter(t, mustPolicy(t, "breaker=3,ejection=1s,maxejection=1s,maxejectpct=1"), reg, "a")
	b := backends[0]
	now := 10 * time.Second
	for i := 0; i < 3; i++ {
		if !b.Available(now) {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i)
		}
		b.Record(now, time.Millisecond, false)
	}
	if b.Available(now) {
		t.Fatal("breaker still closed after threshold failures")
	}
	if !b.Available(now + time.Second) {
		t.Fatal("breaker still open at the end of its 1s window")
	}
	// A success resets the consecutive-failure streak.
	later := now + 2*time.Second
	b.Record(later, time.Millisecond, false)
	b.Record(later, time.Millisecond, true)
	b.Record(later, time.Millisecond, false)
	b.Record(later, time.Millisecond, false)
	if !b.Available(later) {
		t.Fatal("streak should have reset on success")
	}
	if got := ejectionsOf(reg, b); got != 1 {
		t.Fatalf("ejections = %v, want 1", got)
	}
}

// TestStragglersDoNotReopenCircuit: attempts in flight when a circuit opens
// fail inside its window. They must neither extend the window nor count a
// second ejection. The old breaker did both, which inflated ejection counts
// and kept a backend out longer than its window.
func TestStragglersDoNotReopenCircuit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backends = []BackendConfig{{Name: "a", URL: "http://127.0.0.1:1"}}
	srv, err := NewServer(cfg) // never started: Record and Available are the whole path
	if err != nil {
		t.Fatal(err)
	}
	b, window := srv.backends[0], srv.res.policy.Breaker.BaseEjection
	old := &oracleBreaker{threshold: int32(srv.res.policy.Breaker.ConsecutiveFailures), window: window}
	const n = 5
	t0 := 10 * time.Second
	for i := 0; i < n; i++ {
		b.Record(t0, time.Millisecond, false)
		old.record(t0, false)
	}
	if b.Available(t0) {
		t.Fatalf("%d failures did not open the circuit", n)
	}
	straggle := t0 + window/2
	for i := 0; i < n; i++ {
		b.Record(straggle, time.Millisecond, false)
		old.record(straggle, false)
	}
	if !b.Available(t0 + window) {
		t.Errorf("backend still ejected at the first window's end (%v): stragglers extended it", t0+window)
	}
	if got := ejectionsOf(srv.dataReg, b); got != 1 {
		t.Errorf("ejections = %v, want 1", got)
	}
	// The old breaker, for contrast: a second ejection out to straggle+window.
	if old.ejections != 2 || old.available(t0+window) {
		t.Errorf("oracle: %d ejections, available at %v = %v; want 2, false", old.ejections, t0+window, old.available(t0+window))
	}
}

// TestRetryBudgetBounds pins the budget's earn rate through the adapter. At
// 0.25, exact in binary, four deposits buy one retry; the oracle's
// milli-tokens and the core's float tokens agree. (At 0.1 they part at the
// whole-token edge: TestAdapterDivergesFromWallOracle. A zero ratio now means
// unbounded, not no retries: the same test.)
func TestRetryBudgetBounds(t *testing.T) {
	res, _ := newTestAdapter(t, mustPolicy(t, "retries=2,budget=0.25"), metrics.NewRegistry())
	retry := func() bool { _, _, ok := res.retry(time.Second, 1, 0, 0); return ok }
	// Drain the initial burst.
	for retry() {
	}
	for i := 0; i < 3; i++ {
		res.start(time.Second, 0)
	}
	if retry() {
		t.Fatal("retry granted before a full token accrued")
	}
	res.start(time.Second, 0)
	if !retry() {
		t.Fatal("retry denied with a full token in the bucket")
	}
	// Hedges spend from the same bucket.
	for i := 0; i < 4; i++ {
		res.start(time.Second, 0)
	}
	if !res.hedge() || res.hedge() {
		t.Fatal("four deposits must buy exactly one hedge")
	}
	// The attempt cap binds before the budget does.
	for i := 0; i < 8; i++ {
		res.start(time.Second, 0)
	}
	if _, _, ok := res.retry(time.Second, 2, 0, 0); ok {
		t.Fatal("retry granted past retries=2")
	}
}

// TestHedgeTrackerGatesAndLearns pins the learner's contract through the
// adapter's response path: silent before 64 observations, then a delay at
// the configured percentile floor-bounded by the minimum.
func TestHedgeTrackerGatesAndLearns(t *testing.T) {
	res, backends := newTestAdapter(t, mustPolicy(t, "hedge=p95,hedgemin=1ms"), metrics.NewRegistry(), "a")
	if d := res.learnedDelay(); d != 0 {
		t.Fatalf("hedge delay = %v before any observations, want 0", d)
	}
	for i := 0; i < 63; i++ {
		backends[0].Record(0, 5*time.Millisecond, true)
	}
	if d := res.learnedDelay(); d != 0 {
		t.Fatalf("hedge delay = %v at 63 observations, want 0 (gate is 64)", d)
	}
	backends[0].Record(0, 5*time.Millisecond, true)
	if d := res.learnedDelay(); d < 5*time.Millisecond || d > 6*time.Millisecond {
		t.Fatalf("hedge delay = %v after 64x5ms, want 5ms within the learner's 2%%", d)
	}
	fast, backends := newTestAdapter(t, mustPolicy(t, "hedge=p95,hedgemin=1ms"), metrics.NewRegistry(), "a")
	for i := 0; i < 64; i++ {
		backends[0].Record(0, 100*time.Microsecond, true)
	}
	if d := fast.learnedDelay(); d != time.Millisecond {
		t.Fatalf("hedge delay = %v after sub-millisecond successes, want the 1ms floor", d)
	}
	// No hedge key: never hedges.
	off, backends := newTestAdapter(t, mustPolicy(t, "retries=2"), metrics.NewRegistry(), "a")
	for i := 0; i < 128; i++ {
		backends[0].Record(0, 5*time.Millisecond, true)
	}
	if d := off.learnedDelay(); d != 0 {
		t.Fatalf("hedging off: hedge delay = %v, want 0", d)
	}
}

// TestAdapterConcurrentUse drives one adapter from many goroutines — request
// starts, picks, outcomes, retry and hedge decisions — the way concurrent
// requests do, for the race detector (make check; -race -count=10 in the
// verify notes), and checks that every call was booked once.
func TestAdapterConcurrentUse(t *testing.T) {
	reg := metrics.NewRegistry()
	res, backends := newTestAdapter(t, mustPolicy(t, DefaultResilience), reg, "a", "b", "c")
	router := NewRouter(backends)
	retries := reg.Counter(resilience.MetricRetriesTotal, metrics.Labels{"service": "api"})
	hedges := reg.Counter(resilience.MetricHedgesTotal, metrics.Labels{"service": "api"})
	var clock atomic.Int64
	const workers, each = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				now := time.Duration(clock.Add(int64(time.Millisecond)))
				dl := res.deadline(now, 250*time.Millisecond)
				if res.start(now, dl) > 0 {
					res.hedge()
				}
				b := router.Pick(now)
				ok := rand.IntN(4) != 0
				b.Record(now, time.Duration(1+rand.IntN(20))*time.Millisecond, ok)
				if !ok {
					if _, _, retry := res.retry(now, 1, res.policy.Retry.Backoff, dl); retry {
						res.core.Retried()
					}
				}
				_ = retries.Value() + hedges.Value()
			}
		}()
	}
	wg.Wait()
	requests := reg.Counter(resilience.MetricRequestsTotal, metrics.Labels{"service": "api"}).Value()
	var booked float64
	for _, b := range backends {
		booked += b.okTotal.Value() + b.failTotal.Value()
	}
	if requests != workers*each || booked != workers*each {
		t.Fatalf("requests %v, responses booked %v; want %d each", requests, booked, workers*each)
	}
}
