package overload

import (
	"fmt"
	"time"

	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/resilience"
	"l3/internal/sim"
)

// svcState is a service's admission policy resolved once at Apply time
// (the same pattern as resilience's svcState): limiter, drop law, tier
// gate, the bounded queue and metric handles, so the per-request path
// touches no maps beyond the service lookup and no label machinery.
type svcState struct {
	name    string
	policy  Policy
	limiter Limiter
	codel   CoDel
	gate    TierGate

	// queue is a ring buffer of waiting ops: head+qlen index it, lifo
	// flips the dequeue end under a standing queue.
	queue []*op
	qhead int
	qlen  int
	lifo  bool

	maxSojourn time.Duration

	mAdmitted, mCodelDrop, mOverflow, mLifoFlips, mReadmits *metrics.Counter
	mShed                                                   [NumTiers]*metrics.Counter
	gLimit                                                  *metrics.Gauge
}

// Client composes admission control over one source cluster's view of a
// mesh (or over a resilience client, so shedding happens before a rejected
// request can spend retry budget). Like the layers it wraps, a Client is
// single-threaded on its engine: all of its state lives on the source
// cluster's timeline.
type Client struct {
	engine   *sim.Engine
	mesh     *mesh.Mesh
	src      string
	proxy    *mesh.Proxy
	res      *resilience.Client // optional inner layer
	services map[string]*svcState

	freeOps []*op
}

// NewClient returns an admission client for requests originating in cluster
// src of m, running on that cluster's engine and recording into that
// cluster's registry (a classic mesh has one of each, which every cluster
// resolves to). Calls from any other source cluster error.
func NewClient(m *mesh.Mesh, src string) (*Client, error) {
	if m == nil {
		panic("overload: NewClient requires a mesh")
	}
	proxy, err := m.Proxy(src)
	if err != nil {
		return nil, err
	}
	return &Client{
		engine: proxy.Engine(), mesh: m, src: src, proxy: proxy,
		services: make(map[string]*svcState),
	}, nil
}

// SetInner routes admitted requests through a resilience client instead of
// the bare mesh — admission composes outside retries, so shed requests
// never deposit into or spend from the retry budget. The resilience client
// must be bound to the same engine and source cluster.
func (c *Client) SetInner(res *resilience.Client) { c.res = res }

// Apply installs a policy for a service, resolving its metric handles.
// Applying a disabled policy removes the service from the layer.
func (c *Client) Apply(service string, p Policy) error {
	if _, ok := c.mesh.Service(service); !ok {
		return fmt.Errorf("overload: unknown service %q", service)
	}
	p = p.withDefaults()
	if !p.Enabled() {
		delete(c.services, service)
		return nil
	}
	reg := c.proxy.Registry()
	labels := metrics.Labels{"service": service}
	st := &svcState{
		name:       service,
		policy:     p,
		limiter:    NewLimiter(p.Limiter),
		codel:      NewCoDel(p.Queue),
		gate:       NewTierGate(p.Tiers, p.Queue.Target),
		mAdmitted:  reg.Counter(MetricAdmittedTotal, labels),
		mCodelDrop: reg.Counter(MetricCodelDroppedTotal, labels),
		mOverflow:  reg.Counter(MetricQueueOverflowTotal, labels),
		mLifoFlips: reg.Counter(MetricLifoFlipsTotal, labels),
		mReadmits:  reg.Counter(MetricReadmitsTotal, labels),
		gLimit:     reg.Gauge(MetricConcurrencyLimit, labels),
	}
	if p.Queue.Capacity > 0 {
		st.queue = make([]*op, p.Queue.Capacity)
	}
	for tier := 0; tier < NumTiers; tier++ {
		st.mShed[tier] = reg.Counter(MetricShedTotal, labels.With("tier", TierName(tier)))
	}
	st.gLimit.Set(float64(st.limiter.Limit()))
	c.services[service] = st
	return nil
}

// State exposes a service's admission internals for figures and tests
// (limit, highest admitted tier, max queue sojourn); ok is false when the
// service has no policy.
func (c *Client) State(service string) (limit, admitMax int, maxSojourn time.Duration, ok bool) {
	st, found := c.services[service]
	if !found {
		return 0, 0, 0, false
	}
	return st.limiter.Limit(), st.gate.AdmitMax(), st.maxSojourn, true
}

// op is the pooled state of one request crossing the admission layer: the
// tier, the timestamps the limiter and drop law need, and the completion
// callbacks bound once per struct.
type op struct {
	c        *Client
	svc      *svcState // nil on the pass-through path
	service  string
	tier     int
	admitted bool
	queuedAt time.Duration
	issuedAt time.Duration
	done     func(mesh.Result)

	fire    func(mesh.Result)
	fireRes func(resilience.Result)
}

func (c *Client) getOp() *op {
	var o *op
	if n := len(c.freeOps); n > 0 {
		o = c.freeOps[n-1]
		c.freeOps[n-1] = nil
		c.freeOps = c.freeOps[:n-1]
	} else {
		o = &op{c: c}
		o.fire = func(r mesh.Result) { o.onResult(r) }
		o.fireRes = func(r resilience.Result) { o.onResult(r.Result) }
	}
	o.admitted = false
	o.queuedAt, o.issuedAt = 0, 0
	return o
}

func (c *Client) putOp(o *op) {
	o.svc, o.done = nil, nil
	c.freeOps = append(c.freeOps, o)
}

// Call issues one request at TierDefault.
func (c *Client) Call(src, service string, done func(mesh.Result)) error {
	return c.CallTier(src, service, TierDefault, done)
}

// CallTier issues one request carrying a criticality tier. done fires
// exactly once; a shed request fails synchronously with zero latency (the
// rejection is the point — no work was queued anywhere).
func (c *Client) CallTier(src, service string, tier int, done func(mesh.Result)) error {
	if done == nil {
		panic("overload: Call requires a done callback")
	}
	if src != c.src {
		return fmt.Errorf("overload: client bound to %q cannot call from %q", c.src, src)
	}
	if tier < 0 {
		tier = 0
	} else if tier >= NumTiers {
		tier = NumTiers - 1
	}
	svc := c.services[service]
	if svc == nil {
		o := c.getOp()
		o.svc, o.service, o.tier = nil, service, tier
		o.done = done
		return c.issue(o)
	}
	now := c.engine.Now()
	if !svc.gate.Admit(tier) {
		svc.mShed[tier].Inc()
		done(mesh.Result{Success: false})
		return nil
	}
	o := c.getOp()
	o.svc, o.service, o.tier = svc, service, tier
	o.done = done
	if svc.limiter.TryAcquire() {
		o.admitted = true
		o.issuedAt = now
		svc.mAdmitted.Inc()
		if svc.gate.Signal(now, 0) {
			svc.mReadmits.Inc()
		}
		if err := c.issue(o); err != nil {
			svc.limiter.Release()
			c.putOp(o)
			return err
		}
		return nil
	}
	if svc.qlen >= len(svc.queue) {
		// Full (or zero-capacity) queue: shed on arrival.
		svc.mOverflow.Inc()
		svc.mShed[tier].Inc()
		svc.gate.Overloaded(now)
		done := o.done
		c.putOp(o)
		done(mesh.Result{Success: false})
		return nil
	}
	o.queuedAt = now
	svc.queue[(svc.qhead+svc.qlen)%len(svc.queue)] = o
	svc.qlen++
	if !svc.policy.Queue.DisableLIFO {
		if !svc.lifo && svc.qlen > len(svc.queue)/2 {
			svc.lifo = true
			svc.mLifoFlips.Inc()
		}
	}
	return nil
}

// issue launches an admitted request through the inner layer.
func (c *Client) issue(o *op) error {
	if c.res != nil {
		return c.res.Call(c.src, o.service, o.fireRes)
	}
	return c.proxy.Call(o.service, o.fire)
}

// onResult is the completion path: release and adapt the limiter, drain
// the queue into the freed capacity, then settle the caller. The op
// recycles before the callback, which may issue nested calls.
func (o *op) onResult(r mesh.Result) {
	c, svc := o.c, o.svc
	if svc != nil && o.admitted {
		now := c.engine.Now()
		svc.limiter.Release()
		svc.limiter.Observe(now-o.issuedAt, r.Success)
		svc.gLimit.Set(float64(svc.limiter.Limit()))
		c.drain(svc, now)
	}
	done := o.done
	c.putOp(o)
	done(r)
}

// stealWorstTier removes and returns the oldest queued op whose tier is
// strictly more sheddable than tier, or nil when none remains. The ring
// compacts toward the head so FIFO order is preserved.
func (s *svcState) stealWorstTier(tier int) *op {
	best, bestTier := -1, tier
	for i := 0; i < s.qlen; i++ {
		if o := s.queue[(s.qhead+i)%len(s.queue)]; o.tier > bestTier {
			best, bestTier = i, o.tier
		}
	}
	if best < 0 {
		return nil
	}
	o := s.queue[(s.qhead+best)%len(s.queue)]
	for ; best > 0; best-- {
		s.queue[(s.qhead+best)%len(s.queue)] = s.queue[(s.qhead+best-1)%len(s.queue)]
	}
	s.queue[s.qhead] = nil
	s.qhead = (s.qhead + 1) % len(s.queue)
	s.qlen--
	return o
}

// drain admits queued requests into freed limiter slots, applying the
// CoDel verdict to each dequeued sojourn. Under a standing queue the
// dequeue end flips to LIFO so fresh requests ride over the backlog.
func (c *Client) drain(svc *svcState, now time.Duration) {
	for svc.qlen > 0 && svc.limiter.TryAcquire() {
		var q *op
		if svc.lifo {
			q = svc.queue[(svc.qhead+svc.qlen-1)%len(svc.queue)]
			svc.queue[(svc.qhead+svc.qlen-1)%len(svc.queue)] = nil
		} else {
			q = svc.queue[svc.qhead]
			svc.queue[svc.qhead] = nil
			svc.qhead = (svc.qhead + 1) % len(svc.queue)
		}
		svc.qlen--
		if svc.lifo && svc.qlen <= len(svc.queue)/8 {
			svc.lifo = false
		}
		sojourn := now - q.queuedAt
		if svc.gate.Signal(now, sojourn) {
			svc.mReadmits.Inc()
		}
		// MaxWait is the hard staleness ceiling: under adaptive LIFO the
		// backlog end can outwait any drop schedule, and issuing a request
		// that old serves nobody.
		if sojourn >= svc.policy.Queue.MaxWait {
			svc.limiter.Release()
			svc.mCodelDrop.Inc()
			svc.mShed[q.tier].Inc()
			svc.gate.Overloaded(now)
			done := q.done
			c.putOp(q)
			done(mesh.Result{Success: false})
			continue
		}
		if svc.codel.OnDequeue(now, sojourn) {
			// The drop law decides when to shed; criticality decides who: a
			// strictly more sheddable op still queued takes the drop in q's
			// place (DAGOR-style), so a critical request is never discarded
			// while sheddable backlog remains. With tiers on, the drop law
			// never discards the top tier at all — an all-critical standing
			// queue is bounded by MaxWait and qcap, trading latency for
			// availability, which is what the tier promises.
			v := svc.stealWorstTier(q.tier)
			if v == nil && svc.policy.Tiers.Enabled && q.tier == TierCritical {
				svc.gate.Overloaded(now)
			} else if v == nil {
				svc.limiter.Release()
				svc.mCodelDrop.Inc()
				svc.mShed[q.tier].Inc()
				svc.gate.Overloaded(now)
				done := q.done
				c.putOp(q)
				done(mesh.Result{Success: false})
				continue
			} else {
				svc.mCodelDrop.Inc()
				svc.mShed[v.tier].Inc()
				svc.gate.Overloaded(now)
				done := v.done
				c.putOp(v)
				done(mesh.Result{Success: false})
				// q itself is admitted below: the law shed one request at
				// this drop instant, which is all its pacing asks for.
			}
		}
		// maxSojourn tracks admitted requests only: a CoDel-dropped entry
		// (stale LIFO backlog) was discarded, not served, so its wait is
		// not part of the delay bound admitted traffic experiences.
		if sojourn > svc.maxSojourn {
			svc.maxSojourn = sojourn
		}
		svc.mAdmitted.Inc()
		q.admitted = true
		q.issuedAt = now
		if err := c.issue(q); err != nil {
			svc.limiter.Release()
			done := q.done
			c.putOp(q)
			done(mesh.Result{Success: false})
		}
	}
}
