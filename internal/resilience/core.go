package resilience

import (
	"time"

	"l3/internal/histogram"
	"l3/internal/metrics"
)

// Core is one service's resilience policy with no clock and no randomness of
// its own: the retry budget, the circuit breaker, the hedge-delay learner, the
// deadline and retry decisions, and the counters they export. Every method
// takes the caller's now and, where backoff jitter needs one, a uniform draw,
// so one implementation serves both planes. The sim Client drives a Core per
// service on its engine's timeline and owns the timers; internal/serve's wall
// adapter drives one under a mutex on the proxy's clock and owns the
// goroutines. A Core is not safe for concurrent use, except for Policy,
// Deadline and the pure counters (Retried, Duplicate, DeadlineExceeded,
// Retries, Hedges), which touch only immutable or atomic state.
type Core struct {
	policy  Policy
	budget  budget
	breaker *Breaker

	// lat tracks successful-response latency; the hedge threshold is its
	// configured percentile, recomputed every 64 observations so the hot
	// path reads a cached duration.
	lat        *histogram.Histogram
	observed   uint64
	hedgeDelay time.Duration

	mCalls, mRetries, mHedges, mBudgetDenied, mDeadline, mDuplicates *metrics.Counter
}

// NewCore resolves a policy for one service once: defaults applied, metric
// handles registered in reg under {service}, and — when the breaker is on — a
// Breaker over the named backends.
func NewCore(p Policy, service string, backends []string, reg *metrics.Registry) *Core {
	p = p.withDefaults()
	labels := metrics.Labels{"service": service}
	c := &Core{
		policy:        p,
		budget:        newBudget(p.Retry),
		lat:           histogram.New(),
		mCalls:        reg.Counter(MetricRequestsTotal, labels),
		mRetries:      reg.Counter(MetricRetriesTotal, labels),
		mHedges:       reg.Counter(MetricHedgesTotal, labels),
		mBudgetDenied: reg.Counter(MetricBudgetExhaustedTotal, labels),
		mDeadline:     reg.Counter(MetricDeadlineExceededTotal, labels),
		mDuplicates:   reg.Counter(MetricDuplicatesTotal, labels),
	}
	if p.Breaker.ConsecutiveFailures > 0 {
		c.breaker = NewBreaker(p.Breaker, service, backends, reg)
	}
	return c
}

// Policy returns the resolved policy, defaults applied.
func (c *Core) Policy() Policy { return c.policy }

// Breaker returns the circuit breaker (nil when the policy has none).
func (c *Core) Breaker() *Breaker { return c.breaker }

// Deadline resolves a logical request's absolute deadline at now: the
// tighter of the policy's own and inherited, the enclosing request's
// (0 = none). It returns 0 for no deadline.
func (c *Core) Deadline(now, inherited time.Duration) time.Duration {
	var dl time.Duration
	if c.policy.Deadline > 0 {
		dl = now + c.policy.Deadline
	}
	if inherited > 0 && (dl == 0 || inherited < dl) {
		dl = inherited
	}
	return dl
}

// Start admits one logical request: it is counted and deposits its share
// into the retry budget.
func (c *Core) Start() {
	c.mCalls.Inc()
	c.budget.deposit()
}

// HedgeAfter returns how long after now a request with the given deadline
// (0 = none) launches its hedge, or 0 for none: hedging off, no learned
// threshold yet, or a hedge that would start past the deadline.
func (c *Core) HedgeAfter(now, deadline time.Duration) time.Duration {
	d := c.hedgeDelay
	if c.policy.Hedge.Delay > 0 {
		d = c.policy.Hedge.Delay
	}
	if d > 0 && (deadline == 0 || now+d < deadline) {
		return d
	}
	return 0
}

// Retry decides whether a logical request whose attempt failed at now tries
// again: it must have launched fewer than MaxAttempts attempts, its jittered
// backoff must end before the deadline (0 = none), and the budget must pay a
// token — a denial by the budget alone is counted. wait is the request's
// nominal backoff for this retry (Retry.Backoff for the first) and u a
// uniform draw in [0, 1) that spreads it over ±Jitter; u is read only when
// jitter is on. It returns the jittered wait, the nominal wait of the retry
// after this one, and the verdict.
func (c *Core) Retry(now time.Duration, attempts int, wait, deadline time.Duration, u float64) (after, next time.Duration, ok bool) {
	rc := c.policy.Retry
	if attempts >= rc.MaxAttempts {
		return 0, wait, false
	}
	after = wait
	if rc.Jitter > 0 {
		after = time.Duration(float64(wait) * (1 + rc.Jitter*(2*u-1)))
	}
	if deadline != 0 && now+after >= deadline {
		return after, wait, false
	}
	if !c.budget.withdraw() {
		c.mBudgetDenied.Inc()
		return after, wait, false
	}
	return after, time.Duration(float64(wait) * rc.BackoffFactor), true
}

// Retried counts a retry attempt actually launched, after its backoff.
func (c *Core) Retried() { c.mRetries.Inc() }

// Hedge decides whether a hedge may launch: it costs a budget token like a
// retry. The hedge or the denial is counted.
func (c *Core) Hedge() bool {
	if !c.budget.withdraw() {
		c.mBudgetDenied.Inc()
		return false
	}
	c.mHedges.Inc()
	return true
}

// Result feeds one attempt's response at now into the hedge learner (on
// success) and the breaker. It returns the end of the ejection window this
// response opened for backend, or 0 when it opened none.
func (c *Core) Result(now time.Duration, backend string, latency time.Duration, ok bool) time.Duration {
	if ok {
		c.observe(latency)
	}
	if c.breaker == nil {
		return 0
	}
	return c.breaker.Record(now, backend, ok)
}

func (c *Core) observe(latency time.Duration) {
	if c.policy.Hedge.Delay > 0 || c.policy.Hedge.Percentile <= 0 {
		return
	}
	c.lat.Record(latency)
	if c.observed++; c.observed&63 == 0 {
		d := c.lat.Quantile(c.policy.Hedge.Percentile)
		if d < c.policy.Hedge.MinDelay {
			d = c.policy.Hedge.MinDelay
		}
		c.hedgeDelay = d
	}
}

// Duplicate counts a response that arrived after its logical request had
// settled: a hedge loser or a straggler past the deadline.
func (c *Core) Duplicate() { c.mDuplicates.Inc() }

// DeadlineExceeded counts a logical request failed by its deadline.
func (c *Core) DeadlineExceeded() { c.mDeadline.Inc() }

// Retries returns the retry attempts launched.
func (c *Core) Retries() int64 { return int64(c.mRetries.Value()) }

// Hedges returns the hedge attempts launched.
func (c *Core) Hedges() int64 { return int64(c.mHedges.Value()) }

// budget is the Finagle-style retry token bucket: deposits on logical
// requests, withdrawals on retries and hedges, capped at burst. Tokens are
// float64, the arithmetic every sim golden was taken with; integer
// milli-tokens would be exact (ten deposits at ratio 0.1 make 0.9999999999999999
// tokens here, not one) but move figure R1, whose retry storm drains the bucket
// and rides its whole-token edge.
type budget struct {
	unlimited bool
	ratio     float64
	burst     float64
	tokens    float64
}

func newBudget(rc RetryConfig) budget {
	if rc.BudgetRatio <= 0 {
		return budget{unlimited: true}
	}
	burst := rc.BudgetBurst
	if burst <= 0 {
		burst = 100 * rc.BudgetRatio
		if burst < 10 {
			burst = 10
		}
	}
	return budget{ratio: rc.BudgetRatio, burst: burst, tokens: burst}
}

func (b *budget) deposit() {
	if b.unlimited {
		return
	}
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

func (b *budget) withdraw() bool {
	if b.unlimited {
		return true
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
