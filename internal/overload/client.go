package overload

import (
	"fmt"
	"time"

	"l3/internal/mesh"
	"l3/internal/resilience"
	"l3/internal/sim"
)

// svcState is a service's admission policy resolved once at Apply time
// (the same pattern as resilience's svcState): the limiter, the admission
// core it sets the limit of, and the registry mirror of the core's counts,
// so the per-request path touches no maps beyond the service lookup and no
// label machinery.
type svcState struct {
	limiter Limiter
	q       *queue[*op]
	m       *Metrics
}

// Client composes admission control over one source cluster's view of a
// mesh (or over a resilience client, so shedding happens before a rejected
// request can spend retry budget). Like the layers it wraps, a Client is
// single-threaded on its engine.
type Client struct {
	engine   *sim.Engine
	mesh     *mesh.Mesh
	src      string
	res      *resilience.Client // optional inner layer
	services map[string]*svcState

	freeOps []*op
}

// NewClient returns an admission client for requests originating in cluster
// src of m, running on the mesh's engine and recording into its registry.
// Calls from any other source cluster error.
func NewClient(m *mesh.Mesh, src string) *Client {
	if m == nil {
		panic("overload: NewClient requires a mesh")
	}
	return &Client{
		engine: m.Engine(), mesh: m, src: src,
		services: make(map[string]*svcState),
	}
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
	st := &svcState{
		limiter: NewLimiter(p.Limiter),
		q:       newQueue(p, c.deliver),
		m:       NewMetrics(c.mesh.Registry(), service),
	}
	st.q.limit = st.limiter.Limit()
	st.m.Sync(st.q.snapshot())
	c.services[service] = st
	return nil
}

// Stats snapshots a service's admission counters for figures and tests
// (with its limit, highest admitted tier and longest admitted sojourn);
// ok is false when the service has no policy.
func (c *Client) Stats(service string) (st Stats, ok bool) {
	svc, ok := c.services[service]
	if !ok {
		return st, false
	}
	return svc.q.snapshot(), true
}

// op is the pooled state of one request crossing the admission layer: the
// issue time the limiter needs and the completion callbacks bound once per
// struct.
type op struct {
	c        *Client
	svc      *svcState // nil on the pass-through path
	service  string
	admitted bool
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
	o.admitted, o.issuedAt = false, 0
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
	svc := c.services[service]
	o := c.getOp()
	o.svc, o.service, o.done = svc, service, done
	if svc == nil {
		return c.issue(o)
	}
	tier = clampTier(tier)
	now := c.engine.Now()
	var err error
	switch v := svc.q.admit(now, tier); v {
	case queued:
		svc.q.enqueue(now, tier, o)
	case Admitted:
		if err = c.start(o); err != nil {
			c.putOp(o)
		}
	default:
		c.settle(o, mesh.Result{})
	}
	svc.m.Sync(svc.q.snapshot())
	return err
}

// issue launches an admitted request through the inner layer.
func (c *Client) issue(o *op) error {
	if c.res != nil {
		return c.res.Call(c.src, o.service, o.fireRes)
	}
	return c.mesh.Call(c.src, o.service, o.fire)
}

// start issues an admitted op; if the inner layer refuses it, its slot
// goes back.
func (c *Client) start(o *op) error {
	o.admitted, o.issuedAt = true, c.engine.Now()
	err := c.issue(o)
	if err != nil {
		o.svc.q.release()
	}
	return err
}

// settle recycles the op and fires its callback, which may issue nested
// calls. A shed op settles at once with a zero-latency failure.
func (c *Client) settle(o *op, r mesh.Result) {
	done := o.done
	c.putOp(o)
	done(r)
}

// deliver is the core's verdict on a queued op.
func (c *Client) deliver(o *op, v Verdict) {
	if v != Admitted || c.start(o) != nil {
		c.settle(o, mesh.Result{})
	}
}

// onResult is the completion path: release the slot, adapt the limiter,
// drain the queue into the freed capacity, then settle the caller.
func (o *op) onResult(r mesh.Result) {
	c, svc := o.c, o.svc
	if svc != nil && o.admitted {
		now := c.engine.Now()
		svc.q.release()
		svc.limiter.Observe(now-o.issuedAt, r.Success)
		svc.q.limit = svc.limiter.Limit()
		svc.q.drain(now)
		svc.m.Sync(svc.q.snapshot())
	}
	c.settle(o, r)
}
