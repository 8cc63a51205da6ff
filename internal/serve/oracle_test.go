package serve

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"l3/internal/histogram"
	"l3/internal/metrics"
	"l3/internal/resilience"
)

// The wall plane's own retry budget, hedge tracker and breaker, as they were
// before the proxy ran internal/resilience's Core, kept as the reference the
// adapter is checked against.

// retryBudget is a Finagle/Linkerd-style token bucket shared by all
// retries: each logical request deposits ratio tokens, each retry withdraws
// one, bounding the steady-state retry ratio so a dead backend cannot turn
// offered load into a retry storm. Token arithmetic is integer milli-tokens
// on one atomic, CAS-looped, allocation-free.
type retryBudget struct {
	tokens     atomic.Int64 // milli-tokens
	ratioMilli int64
	burstMilli int64
}

func newRetryBudget(ratio float64) *retryBudget {
	b := &retryBudget{ratioMilli: int64(ratio * 1000)}
	burst := 100 * ratio
	if burst < 10 {
		burst = 10
	}
	b.burstMilli = int64(burst * 1000)
	b.tokens.Store(b.burstMilli) // start full so cold starts can retry
	return b
}

func (b *retryBudget) deposit() {
	if b.ratioMilli <= 0 {
		return
	}
	for {
		cur := b.tokens.Load()
		next := cur + b.ratioMilli
		if next > b.burstMilli {
			next = b.burstMilli
		}
		if next == cur || b.tokens.CompareAndSwap(cur, next) {
			return
		}
	}
}

func (b *retryBudget) withdraw() bool {
	if b.ratioMilli <= 0 {
		return false
	}
	for {
		cur := b.tokens.Load()
		if cur < 1000 {
			return false
		}
		if b.tokens.CompareAndSwap(cur, cur-1000) {
			return true
		}
	}
}

// hedgeTracker learns the hedge delay from the proxy's own successful
// latencies: bucket counts over the Linkerd bounds, the configured quantile
// recomputed every 64 observations, floored at MinDelay.
type hedgeTracker struct {
	pct        float64
	minDelayNs int64

	buckets  []atomic.Int64
	observed atomic.Int64
	delayNs  atomic.Int64

	recomputing atomic.Bool
	countsBuf   []float64
}

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

func (h *hedgeTracker) hedgeAfter() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.delayNs.Load())
}

// oracleBreaker is the breaker half of the old Backend.Record: threshold
// consecutive failures open the circuit until now+window.
type oracleBreaker struct {
	consecFails atomic.Int32
	openUntil   atomic.Int64
	threshold   int32
	window      time.Duration
	ejections   int
}

func (b *oracleBreaker) record(now time.Duration, ok bool) {
	if ok {
		b.consecFails.Store(0)
		return
	}
	if b.threshold <= 0 {
		return
	}
	if f := b.consecFails.Add(1); f >= b.threshold {
		b.consecFails.Store(0)
		b.openUntil.Store(int64(now + b.window))
		b.ejections++
	}
}

func (b *oracleBreaker) available(now time.Duration) bool {
	return now >= time.Duration(b.openUntil.Load())
}

// safeLatency draws a latency inside Linkerd bucket i, clear of both its
// edges: the core's learner reports a quantile up to 2 % above its sample,
// and a sample within 2 % below a bucket bound could cross it.
func safeLatency(rng *rand.Rand, i int) time.Duration {
	lo := 0.00001
	if i > 0 {
		lo = histogram.LinkerdLatencyBounds[i-1] * 1.01
	}
	hi := histogram.LinkerdLatencyBounds[i] / 1.03
	return time.Duration((lo + rng.Float64()*(hi-lo)) * float64(time.Second))
}

// TestAdapterMatchesWallOracle feeds seeded event streams — request starts,
// retry and hedge withdrawals, successes and failures per backend at
// latencies that move between phases, time steps — to the old wall
// implementations and to the adapter under DefaultResilience. Ejection ends
// (and so every eject and restore instant) are equal and every backend is
// ejected as often. Hedge delays are equal while the learned quantile is
// under hedgemin and otherwise fall in the same Linkerd bucket. Withdraw/deny
// sequences are equal, with one named exception: where the oracle holds
// exactly one token, the core's float bucket can hold a rounding error less
// (see resilience's budget) and deny; the oracle is then realigned.
func TestAdapterMatchesWallOracle(t *testing.T) {
	for _, ratio := range []float64{0.2, 0.1, 0.05} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("budget=%v/seed=%d", ratio, seed), func(t *testing.T) {
				matchOracle(t, ratio, seed)
			})
		}
	}
}

func matchOracle(t *testing.T, ratio float64, seed uint64) {
	reg := metrics.NewRegistry()
	res, backends := newTestAdapter(t, mustPolicy(t, DefaultResilience+",budget="+strconv.FormatFloat(ratio, 'g', -1, 64)), reg, "a", "b", "c")
	pol := res.policy
	budget := newRetryBudget(ratio)
	tracker := newHedgeTracker(pol.Hedge.Percentile, pol.Hedge.MinDelay)
	breakers := make([]*oracleBreaker, len(backends))
	for i := range breakers {
		breakers[i] = &oracleBreaker{threshold: int32(pol.Breaker.ConsecutiveFailures), window: pol.Breaker.BaseEjection}
	}

	rng := rand.New(rand.NewPCG(seed, 28))
	failP := make([]float64, len(backends))
	var withdrawP float64
	var center int
	var withdrawals, edges, hedgeChecks int
	now := time.Second
	for step := 0; step < 30000; step++ {
		if step%3000 == 0 { // a new phase: who fails, how often retries fire, how slow answers are
			for i := range failP {
				failP[i] = []float64{0, 0, 0.05, 0.6, 1}[rng.IntN(5)]
			}
			withdrawP = []float64{0.02, 0.3, 0.9}[rng.IntN(3)]
			center = rng.IntN(28)
		}
		now += time.Duration(rng.IntN(20)) * time.Millisecond

		budget.deposit()
		res.start(now, 0)

		if rng.Float64() < withdrawP {
			before := budget.tokens.Load()
			want := budget.withdraw()
			var got bool
			if rng.IntN(2) == 0 {
				_, _, got = res.retry(now, 1, pol.Retry.Backoff, 0)
			} else {
				got = res.hedge()
			}
			withdrawals++
			if got != want {
				if got || before != 1000 {
					t.Fatalf("step %d: adapter withdraw = %v, oracle = %v with %d milli-tokens", step, got, want, before)
				}
				budget.tokens.Add(1000) // neither side spends
				edges++
			}
		}

		var avail []int
		for i, br := range breakers {
			if br.available(now) {
				avail = append(avail, i)
			}
		}
		if len(avail) > 0 {
			i := avail[rng.IntN(len(avail))]
			ok := rng.Float64() >= failP[i]
			lat := safeLatency(rng, min(center+rng.IntN(4), len(histogram.LinkerdLatencyBounds)-1))
			backends[i].Record(now, lat, ok)
			breakers[i].record(now, ok)
			if ok {
				tracker.observe(lat)
			}
		}

		for i, b := range backends {
			if got, want := b.openUntil.Load(), breakers[i].openUntil.Load(); got != want {
				t.Fatalf("step %d: %s ejected until %v, oracle until %v", step, b.Name, time.Duration(got), time.Duration(want))
			}
		}
		got, want := res.learnedDelay(), tracker.hedgeAfter()
		if got == pol.Hedge.MinDelay || want == pol.Hedge.MinDelay || got == 0 || want == 0 {
			if got != want {
				t.Fatalf("step %d: hedge delay %v, oracle %v", step, got, want)
			}
		} else if bucket(got) != bucket(want) {
			t.Fatalf("step %d: hedge delay %v, oracle %v: different Linkerd buckets", step, got, want)
		} else {
			hedgeChecks++
		}
	}
	for i, b := range backends {
		if got, want := int(ejectionsOf(reg, b)), breakers[i].ejections; got != want {
			t.Errorf("%s: %d ejections, oracle %d", b.Name, got, want)
		}
	}
	if hedgeChecks == 0 {
		t.Error("the learned delay never rose above hedgemin; the bucket comparison was not exercised")
	}
	t.Logf("%d withdrawals, %d at the whole-token edge; %d hedge delays above hedgemin compared by bucket", withdrawals, edges, hedgeChecks)
}

func bucket(d time.Duration) int {
	return histogram.BucketFor(histogram.LinkerdLatencyBounds, d.Seconds())
}

// TestAdapterDivergesFromWallOracle pins, side by side, the differences the
// fold into one core made on purpose. The third, the breaker no longer
// re-ejecting on stragglers, is TestStragglersDoNotReopenCircuit.
func TestAdapterDivergesFromWallOracle(t *testing.T) {
	t.Run("budget=0 is unbounded", func(t *testing.T) {
		old := newRetryBudget(0)
		res, _ := newTestAdapter(t, mustPolicy(t, "retries=2,budget=0"), metrics.NewRegistry())
		for i := 0; i < 1000; i++ {
			if old.withdraw() {
				t.Fatal("oracle: a zero ratio granted a retry")
			}
			if _, _, ok := res.retry(time.Second, 1, 10*time.Millisecond, 0); !ok {
				t.Fatalf("retry %d denied under budget=0", i)
			}
		}
	})
	t.Run("retries wait the jittered backoff", func(t *testing.T) {
		// The oracle had no wait at all: a retry launched at once.
		res, _ := newTestAdapter(t, mustPolicy(t, DefaultResilience+",budget=0"), metrics.NewRegistry())
		backoff := res.policy.Retry.Backoff
		now := time.Second
		for i := 0; i < 100; i++ {
			after, next, ok := res.retry(now, 1, backoff, 0)
			if !ok || after < 8*time.Millisecond || after > 12*time.Millisecond || next != 20*time.Millisecond {
				t.Fatalf("retry = %v after %v, next %v; want granted after 10ms ±20%%, next 20ms", ok, after, next)
			}
		}
		// A backoff that would end past the deadline is no retry, however
		// full the budget.
		if _, _, ok := res.retry(now, 1, backoff, now+5*time.Millisecond); ok {
			t.Fatal("a retry whose backoff outlives the deadline was granted")
		}
	})
	t.Run("float budget at the whole-token edge", func(t *testing.T) {
		old := newRetryBudget(0.1)
		res, _ := newTestAdapter(t, mustPolicy(t, "retries=2,budget=0.1"), metrics.NewRegistry())
		retry := func() bool { _, _, ok := res.retry(time.Second, 1, 0, 0); return ok }
		for old.withdraw() {
		}
		for retry() {
		}
		for i := 0; i < 10; i++ {
			old.deposit()
			res.start(time.Second, 0)
		}
		if !old.withdraw() || retry() {
			t.Fatal("after ten deposits at 0.1: want the oracle's exact token granted, the float bucket's 0.9999999999999999 denied")
		}
		res.start(time.Second, 0)
		if !retry() {
			t.Fatal("an eleventh deposit must buy the float bucket its token")
		}
	})
}

func mustPolicy(t *testing.T, s string) resilience.Policy {
	t.Helper()
	p, err := resilience.ParsePolicy(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
