// Package resilience is the data-plane resilience layer: a per-service
// policy that wraps mesh.Call with request deadlines, budgeted retries,
// hedged requests and a per-backend circuit breaker. The paper's own
// benchmarks "did not perform retries for simplicity" (§5.2.1); this layer
// is what lets the repository test that conjecture honestly — and what
// keeps the client side from self-inflicting the tail latency and retry
// storms that performance-aware balancing is supposed to remove.
//
// The four mechanisms compose in a fixed order per logical request:
//
//		deadline → retry budget → hedge → circuit breaker → picker
//
//	  - Deadlines bound the whole logical request (all attempts plus
//	    backoff). They propagate through nested calls via CallWithin and
//	    cancel pending backoff/hedge work through the engine's seq-guarded
//	    timers when they fire.
//	  - Retries are paid for from a token-bucket budget (Finagle/Linkerd
//	    style): every logical request deposits BudgetRatio tokens, every
//	    retry withdraws one, so the steady-state retry ratio is bounded by
//	    the ratio and a saturated backend cannot amplify load into a retry
//	    storm. Backoff is exponential with seeded jitter, so clients of a
//	    failed backend do not retry in lockstep.
//	  - Hedges launch a second attempt once the first has been in flight
//	    longer than a configured latency percentile of the service (learned
//	    online from successful responses); the first response wins and the
//	    loser is recorded as duplicate load. Hedges spend retry-budget
//	    tokens, bounding their duplicate load the same way.
//	  - The circuit breaker ejects a backend after consecutive failures for
//	    an exponentially growing window, capped by a max-ejection-percent
//	    guard so a correlated fault can never eject every backend of a
//	    service. Ejection state filters the service's picker (composing
//	    under whatever strategy — including health-check failover — is
//	    installed).
//
// The layer preserves the mesh's zero-allocation fast path: policies
// resolve to per-service state once (mirroring mesh's routeStats), request
// and attempt state recycle through free lists with pre-bound callbacks,
// and timers are caller-owned and rebound in place (sim.Engine.AtTimer).
// With an empty policy the layer is a pass-through that stays at zero
// steady-state allocations per request.
package resilience

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"l3/internal/balancer"
	"l3/internal/mesh"
	"l3/internal/sim"
)

// Metric families the layer exports into the mesh's registry, so retry and
// breaker activity can be plotted next to the data-plane series.
const (
	// MetricRequestsTotal counts logical requests entering the layer, per
	// service.
	MetricRequestsTotal = "resilience_requests_total"
	// MetricRetriesTotal counts retry attempts actually launched.
	MetricRetriesTotal = "resilience_retries_total"
	// MetricHedgesTotal counts hedge attempts launched.
	MetricHedgesTotal = "resilience_hedges_total"
	// MetricBudgetExhaustedTotal counts retries/hedges denied by an empty
	// token bucket — the storms that did not happen.
	MetricBudgetExhaustedTotal = "resilience_budget_exhausted_total"
	// MetricDeadlineExceededTotal counts logical requests failed by their
	// deadline.
	MetricDeadlineExceededTotal = "resilience_deadline_exceeded_total"
	// MetricDuplicatesTotal counts responses that arrived after their
	// logical request had already completed (hedge losers, post-deadline
	// stragglers) — the duplicate-load cost of hedging and deadlines.
	MetricDuplicatesTotal = "resilience_duplicates_total"
	// MetricBreakerEjectionsTotal counts breaker ejections, per backend.
	MetricBreakerEjectionsTotal = "resilience_breaker_ejections_total"
	// MetricBreakerRestoresTotal counts ejection windows expiring, per
	// backend.
	MetricBreakerRestoresTotal = "resilience_breaker_restores_total"
	// MetricBreakerDeniedTotal counts ejections suppressed by the
	// max-ejection-percent guard.
	MetricBreakerDeniedTotal = "resilience_breaker_denied_total"
)

// RetryConfig parameterises budgeted retries.
type RetryConfig struct {
	// MaxAttempts bounds total tries per logical request, the first
	// included (<= 1 disables retries).
	MaxAttempts int
	// AttemptTimeout abandons an attempt still unanswered after this long
	// and treats it as failed (Envoy's per_try_timeout); 0 disables. The
	// abandoned attempt is NOT cancelled server-side — its work stays in
	// the backend's queue and its eventual response counts as a
	// duplicate. That wasted work is precisely what lets unbudgeted
	// retries turn a transient overload metastable (figure R1): every
	// timed-out attempt burns capacity and adds a retry on top. When
	// hedging is also on, the timer tracks the newest attempt in flight.
	AttemptTimeout time.Duration
	// Backoff is the wait before the first retry (default 10 ms).
	Backoff time.Duration
	// BackoffFactor multiplies the wait per further retry (default 2).
	BackoffFactor float64
	// Jitter spreads each backoff uniformly over ±Jitter of its nominal
	// value (default 0.2; negative disables), so retries decorrelate.
	Jitter float64
	// BudgetRatio is the token-bucket earn rate: every logical request
	// deposits this many tokens and every retry or hedge withdraws one,
	// bounding the steady-state retry ratio. 0 disables the budget —
	// naive unbounded retries, kept for the R1 comparison.
	BudgetRatio float64
	// BudgetBurst caps the bucket (default max(10, 100×BudgetRatio));
	// the bucket starts full so cold starts can retry.
	BudgetBurst float64
}

// HedgeConfig parameterises hedged requests.
type HedgeConfig struct {
	// Percentile of the service's observed success latency at which a
	// hedge launches (e.g. 0.95). 0 disables hedging unless Delay is set.
	Percentile float64
	// Delay is a fixed hedge delay overriding the learned percentile.
	Delay time.Duration
	// MinDelay floors the learned delay (default 1 ms) so a fast service
	// cannot hedge every request.
	MinDelay time.Duration
}

// BreakerConfig parameterises the per-backend circuit breaker / outlier
// ejector, Envoy-outlier-detection flavoured.
type BreakerConfig struct {
	// ConsecutiveFailures ejects a backend after this many consecutive
	// failed responses (0 disables the breaker).
	ConsecutiveFailures int
	// BaseEjection is the first ejection window (default 5 s); each
	// further ejection of the same backend doubles it.
	BaseEjection time.Duration
	// MaxEjection caps the exponentially growing window (default 80 s).
	MaxEjection time.Duration
	// MaxEjectionPercent bounds the fraction of a service's backends
	// ejected at once (default 0.5); at least one ejection is always
	// allowed. A correlated fault therefore can never eject every
	// backend.
	MaxEjectionPercent float64
}

// Policy is the per-service resilience policy. The zero value disables
// every mechanism and the layer becomes a pass-through.
type Policy struct {
	// Deadline bounds each logical request (all attempts plus backoff);
	// 0 means none. Nested calls inherit the tighter of this and the
	// caller's remaining budget (CallWithin).
	Deadline time.Duration
	Retry    RetryConfig
	Hedge    HedgeConfig
	Breaker  BreakerConfig
}

// Enabled reports whether any mechanism is active.
func (p Policy) Enabled() bool {
	return p.Deadline > 0 || p.Retry.MaxAttempts > 1 || p.hedgeOn() || p.Breaker.ConsecutiveFailures > 0
}

func (p Policy) hedgeOn() bool { return p.Hedge.Percentile > 0 || p.Hedge.Delay > 0 }

func (p Policy) withDefaults() Policy {
	if p.Retry.MaxAttempts > 1 {
		if p.Retry.Backoff <= 0 {
			p.Retry.Backoff = 10 * time.Millisecond
		}
		if p.Retry.BackoffFactor < 1 {
			p.Retry.BackoffFactor = 2
		}
		if p.Retry.Jitter == 0 {
			p.Retry.Jitter = 0.2
		}
		if p.Retry.Jitter < 0 {
			p.Retry.Jitter = 0
		}
	}
	if p.hedgeOn() {
		if p.Hedge.MinDelay <= 0 {
			p.Hedge.MinDelay = time.Millisecond
		}
		if p.Hedge.Percentile >= 1 {
			p.Hedge.Percentile = 0.99
		}
	}
	if p.Breaker.ConsecutiveFailures > 0 {
		if p.Breaker.BaseEjection <= 0 {
			p.Breaker.BaseEjection = 5 * time.Second
		}
		if p.Breaker.MaxEjection <= 0 {
			p.Breaker.MaxEjection = 80 * time.Second
		}
		if p.Breaker.MaxEjectionPercent <= 0 || p.Breaker.MaxEjectionPercent > 1 {
			p.Breaker.MaxEjectionPercent = 0.5
		}
	}
	return p
}

// String renders the policy in the -resilience flag grammar ParsePolicy
// accepts.
func (p Policy) String() string {
	var parts []string
	if p.Deadline > 0 {
		parts = append(parts, "deadline="+p.Deadline.String())
	}
	if p.Retry.MaxAttempts > 1 {
		parts = append(parts, "retries="+strconv.Itoa(p.Retry.MaxAttempts))
		if p.Retry.AttemptTimeout > 0 {
			parts = append(parts, "pertry="+p.Retry.AttemptTimeout.String())
		}
		if p.Retry.Backoff > 0 {
			parts = append(parts, "backoff="+p.Retry.Backoff.String())
		}
		if p.Retry.BudgetRatio > 0 {
			parts = append(parts, "budget="+strconv.FormatFloat(p.Retry.BudgetRatio, 'g', -1, 64))
		}
	}
	if p.Hedge.Delay > 0 {
		parts = append(parts, "hedge="+p.Hedge.Delay.String())
	} else if p.Hedge.Percentile > 0 {
		parts = append(parts, "hedge=p"+strconv.FormatFloat(p.Hedge.Percentile*100, 'g', -1, 64))
	}
	if p.Breaker.ConsecutiveFailures > 0 {
		parts = append(parts, "breaker="+strconv.Itoa(p.Breaker.ConsecutiveFailures))
	}
	if len(parts) == 0 {
		return "off"
	}
	return strings.Join(parts, ",")
}

// ParsePolicy parses the textual policy format of the l3bench -resilience
// flag and l3serve's L3SERVE_RESILIENCE: comma-separated key=value pairs
// ("off" or empty disables).
//
//	deadline=1s        logical-request deadline
//	retries=3          max attempts (first included)
//	pertry=250ms       per-attempt timeout (abandon and retry; 0 = wait)
//	backoff=10ms       base backoff      factor=2     growth per retry
//	jitter=0.2         ±fraction         budget=0.2   retry-budget ratio (0 = unbounded)
//	burst=20           budget bucket cap
//	hedge=p95          hedge at the p95 of observed latency (or hedge=40ms fixed)
//	hedgemin=5ms       floor under the learned hedge delay
//	breaker=5          eject after 5 consecutive failures
//	ejection=5s        base ejection window   maxejection=80s   window cap
//	maxejectpct=0.5    max fraction of backends ejected at once
func ParsePolicy(s string) (Policy, error) {
	var p Policy
	if strings.TrimSpace(s) == "off" {
		return p, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return p, fmt.Errorf("resilience: %q is not key=value", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if strings.HasPrefix(val, "-") && key != "jitter" { // a negative jitter disables it
			return p, fmt.Errorf("resilience: %s must not be negative, got %q", key, val)
		}
		var err error
		switch key {
		case "deadline":
			p.Deadline, err = time.ParseDuration(val)
		case "retries":
			p.Retry.MaxAttempts, err = strconv.Atoi(val)
		case "pertry":
			p.Retry.AttemptTimeout, err = time.ParseDuration(val)
		case "backoff":
			p.Retry.Backoff, err = time.ParseDuration(val)
		case "factor":
			p.Retry.BackoffFactor, err = parseFloat(val)
		case "jitter":
			p.Retry.Jitter, err = parseFloat(val)
		case "budget":
			p.Retry.BudgetRatio, err = parseFloat(val)
		case "burst":
			p.Retry.BudgetBurst, err = parseFloat(val)
		case "hedge":
			if pct, isP := strings.CutPrefix(val, "p"); isP {
				var f float64
				if f, err = parseFloat(pct); err == nil && f < 0 {
					err = errors.New("negative percentile")
				}
				p.Hedge.Percentile = f / 100
			} else {
				p.Hedge.Delay, err = time.ParseDuration(val)
			}
		case "hedgemin":
			p.Hedge.MinDelay, err = time.ParseDuration(val)
		case "breaker":
			p.Breaker.ConsecutiveFailures, err = strconv.Atoi(val)
		case "ejection":
			p.Breaker.BaseEjection, err = time.ParseDuration(val)
		case "maxejection":
			p.Breaker.MaxEjection, err = time.ParseDuration(val)
		case "maxejectpct":
			p.Breaker.MaxEjectionPercent, err = parseFloat(val)
		default:
			return p, fmt.Errorf("resilience: unknown policy key %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("resilience: bad %s value %q: %w", key, val, err)
		}
	}
	return p, nil
}

// parseFloat is strconv.ParseFloat for a policy value: NaN and +Inf mean
// nothing to any key. -Inf gets past it, and past the sign check only as a
// jitter, which any negative value disables.
func parseFloat(val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err == nil && !(f <= math.MaxFloat64) {
		err = errors.New("not a finite number")
	}
	return f, err
}

// Result is the outcome of one logical request across all its attempts.
type Result struct {
	// Result is the winning (or final failing) attempt's mesh result,
	// with Latency replaced by the client-perceived duration of the whole
	// logical request.
	mesh.Result
	// Attempts is how many attempts were launched (hedges included).
	Attempts int
	// Hedged reports whether a hedge attempt was launched.
	Hedged bool
	// DeadlineExceeded reports whether the deadline failed the request.
	DeadlineExceeded bool
}

// Client wraps one source cluster's view of a mesh with per-service
// resilience policies: a Core per service makes every decision, and the
// client owns what the virtual clock needs — pooled request state, the
// engine's timers and the seeded jitter draws. All of it lives on that
// cluster's timeline, and like the mesh it decorates it is single-threaded
// there. On a sharded mesh every retry or hedge re-entry is a cross-shard
// continuation: the mesh already returns responses to the source shard, so
// the re-entering call leaves from exactly where the client's timers run.
type Client struct {
	engine   *sim.Engine
	rng      *sim.Rand
	mesh     *mesh.Mesh
	src      string
	proxy    *mesh.Proxy
	services map[string]*Core

	freeOps      []*op
	freeAttempts []*attempt
}

// NewClient returns a resilience client for requests originating in cluster
// src of m. The client runs on that cluster's engine, records its metrics
// into that cluster's registry, and installs its breaker filter on that
// cluster's picker only — on a sharded mesh other clusters' proxies keep
// their own pickers, exactly as per-node Envoy/Linkerd sidecars keep
// per-node outlier state; a classic mesh has one engine, registry and picker,
// which every cluster resolves to. rng seeds backoff jitter. Calls from any
// other source cluster error.
func NewClient(m *mesh.Mesh, src string, rng *sim.Rand) (*Client, error) {
	if m == nil || rng == nil {
		panic("resilience: NewClient requires mesh and rng")
	}
	proxy, err := m.Proxy(src)
	if err != nil {
		return nil, err
	}
	return &Client{
		engine: proxy.Engine(), rng: rng, mesh: m, src: src, proxy: proxy,
		services: make(map[string]*Core),
	}, nil
}

// Apply installs a policy for a service, resolving its metric handles and —
// when the breaker is enabled — wrapping the service's installed picker
// with the ejection filter. Applying an all-zero policy leaves the service
// on the pass-through path.
func (c *Client) Apply(service string, p Policy) error {
	svc, ok := c.mesh.Service(service)
	if !ok {
		return fmt.Errorf("resilience: unknown service %q", service)
	}
	if !p.Enabled() {
		delete(c.services, service)
		return nil
	}
	names := make([]string, 0, len(svc.Backends()))
	for _, b := range svc.Backends() {
		names = append(names, b.Name)
	}
	core := NewCore(p, service, names, c.proxy.Registry())
	if core.breaker != nil {
		// The ejection filter wraps only the source cluster's picker.
		// Breaker state mutates on response events, which execute on the
		// source timeline — other shards' pickers must not read it
		// mid-window.
		inner, err := c.mesh.PickerFor(service, c.src)
		if err != nil {
			return err
		}
		if err := c.mesh.SetShardPicker(service, c.src, balancer.NewFilter(core.breaker.Allowed, inner, c.rng)); err != nil {
			return err
		}
	}
	c.services[service] = core
	return nil
}

// Breaker returns the service's circuit breaker (nil when the policy has
// none).
func (c *Client) Breaker(service string) *Breaker {
	if core, ok := c.services[service]; ok {
		return core.breaker
	}
	return nil
}

// op is the pooled state of one logical request: attempt accounting, the
// cancellable timers of the lifecycle (deadline, hedge, backoff,
// per-attempt timeout),
// and the callbacks bound once per struct — a steady-state request
// allocates neither closures nor handles.
type op struct {
	c       *Client
	svc     *Core // nil on the pass-through path
	service string
	gen     uint64
	start   time.Duration

	deadlineAt   time.Duration // absolute; 0 = none
	attempts     int
	inFlight     int
	retryWait    time.Duration
	retryPending bool
	hedged       bool
	lastFail     mesh.Result
	done         func(Result)

	// cur is the newest in-flight attempt — the one the per-attempt
	// timeout watches. Cleared when that attempt answers or is abandoned.
	cur *attempt

	deadlineT, hedgeT, backoffT, attemptT       sim.Timer
	onDeadline, onHedge, onBackoff, onAttemptTO func()
}

func (c *Client) getOp() *op {
	var o *op
	if n := len(c.freeOps); n > 0 {
		o = c.freeOps[n-1]
		c.freeOps[n-1] = nil
		c.freeOps = c.freeOps[:n-1]
	} else {
		o = &op{c: c}
		o.onDeadline = func() { o.deadline() }
		o.onHedge = func() { o.hedge() }
		o.onBackoff = func() { o.backoff() }
		o.onAttemptTO = func() { o.attemptTimeout() }
	}
	o.attempts, o.inFlight = 0, 0
	o.deadlineAt, o.retryWait = 0, 0
	o.retryPending, o.hedged = false, false
	o.lastFail = mesh.Result{}
	o.cur = nil
	return o
}

// putOp recycles a finished request. Bumping gen here is what makes late
// attempt responses (hedge losers, post-deadline stragglers) detectably
// stale even after the struct is reused.
func (c *Client) putOp(o *op) {
	o.gen++
	o.svc, o.done = nil, nil
	c.freeOps = append(c.freeOps, o)
}

// attempt is the pooled per-attempt state: the op it belongs to, the op
// generation it was launched under, and the mesh completion callback bound
// once per struct.
type attempt struct {
	c   *Client
	svc *Core
	o   *op
	gen uint64
	// stale marks an attempt abandoned by the per-attempt timeout: its
	// response settles as a duplicate even though the op is still live.
	stale bool
	fire  func(mesh.Result)
}

func (c *Client) getAttempt() *attempt {
	if n := len(c.freeAttempts); n > 0 {
		a := c.freeAttempts[n-1]
		c.freeAttempts[n-1] = nil
		c.freeAttempts = c.freeAttempts[:n-1]
		return a
	}
	a := &attempt{c: c}
	a.fire = func(r mesh.Result) { a.onResult(r) }
	return a
}

func (c *Client) putAttempt(a *attempt) {
	a.svc, a.o, a.stale = nil, nil, false
	c.freeAttempts = append(c.freeAttempts, a)
}

// Call issues one logical request from src to the named service under the
// service's policy. done fires exactly once with the overall outcome.
func (c *Client) Call(src, service string, done func(Result)) error {
	return c.call(src, service, 0, done)
}

// CallWithin is Call bounded additionally by an inherited absolute
// deadline (virtual time; 0 = none) — how nested calls propagate the
// enclosing request's remaining time budget. The effective deadline is
// the tighter of the inherited one and the service policy's own.
func (c *Client) CallWithin(inherited time.Duration, src, service string, done func(Result)) error {
	return c.call(src, service, inherited, done)
}

func (c *Client) call(src, service string, inherited time.Duration, done func(Result)) error {
	if done == nil {
		panic("resilience: Call requires a done callback")
	}
	if src != c.src {
		return fmt.Errorf("resilience: client bound to %q cannot call from %q", c.src, src)
	}
	svc := c.services[service]
	now := c.engine.Now()
	o := c.getOp()
	o.svc, o.service = svc, service
	o.start, o.done = now, done

	dl := inherited
	if svc != nil {
		svc.Start()
		o.retryWait = svc.policy.Retry.Backoff
		dl = svc.Deadline(now, inherited)
	}
	o.deadlineAt = dl

	if err := c.launch(o); err != nil {
		c.putOp(o)
		return err
	}
	if dl > 0 {
		c.engine.AtTimer(&o.deadlineT, dl, o.onDeadline)
	}
	if svc != nil {
		if d := svc.HedgeAfter(now, dl); d > 0 {
			c.engine.AtTimer(&o.hedgeT, now+d, o.onHedge)
		}
	}
	return nil
}

// launch sends one attempt through the mesh's normal load-balancing path
// (the picker may choose a different backend per attempt, as Linkerd's
// retries do).
func (c *Client) launch(o *op) error {
	a := c.getAttempt()
	a.svc, a.o, a.gen = o.svc, o, o.gen
	o.attempts++
	o.inFlight++
	if err := c.proxy.Call(o.service, a.fire); err != nil {
		o.attempts--
		o.inFlight--
		c.putAttempt(a)
		return err
	}
	o.cur = a
	if o.svc != nil {
		if t := o.svc.policy.Retry.AttemptTimeout; t > 0 {
			c.engine.AtTimer(&o.attemptT, c.engine.Now()+t, o.onAttemptTO)
		}
	}
	return nil
}

// onResult is the completion path of one attempt. Breaker and latency
// feedback apply to every response — including stale ones, whose backend
// really did serve the attempt — but only the op's current generation can
// settle the logical request.
func (a *attempt) onResult(r mesh.Result) {
	c, o, gen, svc, stale := a.c, a.o, a.gen, a.svc, a.stale
	isCur := o.cur == a
	c.putAttempt(a)
	if svc != nil {
		svc.Result(c.engine.Now(), r.Backend, r.Latency, r.Success)
	}
	if o.gen != gen || stale {
		if svc != nil {
			svc.Duplicate()
		}
		return
	}
	if isCur {
		o.cur = nil
		o.attemptT.Cancel()
	}
	o.inFlight--
	if r.Success {
		o.finish(r, false)
		return
	}
	o.failed(r)
}

// failed decides what a failed attempt means for the logical request:
// schedule a budgeted retry if the core grants one; otherwise wait for a
// still-outstanding twin attempt; otherwise settle with the failure.
func (o *op) failed(r mesh.Result) {
	c, svc := o.c, o.svc
	now := c.engine.Now()
	// Only a request with attempts left draws its jitter from the client's
	// seeded stream, and only when jitter is on.
	if svc != nil && !o.retryPending && o.attempts < svc.policy.Retry.MaxAttempts {
		var u float64
		if svc.policy.Retry.Jitter > 0 {
			u = c.rng.Float64()
		}
		if wait, next, ok := svc.Retry(now, o.attempts, o.retryWait, o.deadlineAt, u); ok {
			o.retryPending = true
			o.lastFail = r
			o.retryWait = next
			c.engine.AtTimer(&o.backoffT, now+wait, o.onBackoff)
			return
		}
	}
	if o.inFlight > 0 || o.retryPending {
		o.lastFail = r
		return
	}
	o.finish(r, false)
}

// backoff is the retry timer firing: launch the next attempt.
func (o *op) backoff() {
	o.retryPending = false
	o.svc.Retried()
	if err := o.c.launch(o); err != nil && o.inFlight == 0 {
		// The service vanished mid-flight; settle with the stored failure.
		o.finish(o.lastFail, false)
	}
}

// hedge is the hedge timer firing: the first attempt has been in flight
// past the threshold, so launch a second if the budget allows. The retry
// path owns the op while a backoff is pending — hedging then would race
// the scheduled retry.
func (o *op) hedge() {
	if o.retryPending || o.hedged || !o.svc.Hedge() {
		return
	}
	o.hedged = true
	_ = o.c.launch(o)
}

// attemptTimeout is the per-attempt timer firing: the newest attempt has
// been unanswered too long, so abandon it and route through the normal
// failure path (which may retry, budget and deadline permitting). The
// abandoned attempt keeps executing server-side; its response lands as a
// duplicate.
func (o *op) attemptTimeout() {
	a := o.cur
	if a == nil {
		return
	}
	o.cur = nil
	a.stale = true
	o.inFlight--
	o.failed(mesh.Result{Latency: o.svc.policy.Retry.AttemptTimeout, Success: false})
}

// deadline is the deadline timer firing: fail the logical request now and
// cancel pending backoff/hedge work; in-flight attempts settle as
// duplicates via the generation guard.
func (o *op) deadline() {
	if o.svc != nil {
		o.svc.DeadlineExceeded()
	}
	r := o.lastFail
	r.Success = false
	o.finish(r, true)
}

// finish settles the logical request exactly once: cancel the remaining
// timers (seq-guarded, so fired ones are no-ops), recycle the op before
// the callback (which may issue nested calls), and report the
// client-perceived latency across all attempts and backoff.
func (o *op) finish(r mesh.Result, deadlineExceeded bool) {
	c := o.c
	o.deadlineT.Cancel()
	o.hedgeT.Cancel()
	o.backoffT.Cancel()
	o.attemptT.Cancel()
	o.cur = nil
	res := Result{Result: r, Attempts: o.attempts, Hedged: o.hedged, DeadlineExceeded: deadlineExceeded}
	res.Latency = c.engine.Now() - o.start
	done := o.done
	c.putOp(o)
	done(res)
}
