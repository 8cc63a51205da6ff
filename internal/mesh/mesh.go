// Package mesh is the multi-cluster service-mesh data plane of the
// reproduction: services with backend deployments spread across clusters,
// and client-side proxies that route each request to a backend, add WAN
// transit, and record Linkerd-style data-plane metrics (response_total,
// response_latency, request_inflight) into a metrics registry that the
// Prometheus-flavoured pipeline scrapes.
//
// Routing strategy is pluggable through the Picker interface; the paper's
// TrafficSplit-driven weighted distribution, round-robin and the C3
// adaptation all live in internal/balancer and internal/c3.
//
// A Mesh drives every cluster on one sim.Engine, with one metrics registry,
// one rng stream and one request pool: the whole data plane is a single
// timeline, so it needs no locks and a seed fixes every run.
//
// Fidelity note: the sidecar proxy's own forwarding overhead (~sub-ms
// median per the Linkerd benchmark study §4 cites) is folded into the WAN
// model's local delay rather than modelled separately.
package mesh

import (
	"fmt"
	"time"

	"l3/internal/backend"
	"l3/internal/histogram"
	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/smi"
	"l3/internal/wan"
)

// Metric family names, mirroring Linkerd's proxy metrics.
const (
	// MetricResponseTotal counts responses, labelled by service, backend
	// and classification (success/failure).
	MetricResponseTotal = "response_total"
	// MetricResponseLatency is the response-latency histogram in seconds,
	// labelled like MetricResponseTotal.
	MetricResponseLatency = "response_latency"
	// MetricInflight gauges requests issued but not yet answered, per
	// service and backend.
	MetricInflight = "request_inflight"
)

// Classification label values.
const (
	ClassSuccess = "success"
	ClassFailure = "failure"
)

// Server is anything that can serve a request arriving at a backend: a
// plain replica pool (backend.Replica) or an application-level node that
// issues nested mesh calls of its own (internal/dsb's microservices).
type Server interface {
	// Serve accepts one request at the current virtual time; done must be
	// invoked exactly once.
	Serve(done func(backend.Result))
}

// Backend is one deployment of a service in one cluster, addressable as a
// TrafficSplit backend.
type Backend struct {
	// Name is the backend service name (e.g. "api-cluster-2"), matching
	// the TrafficSplit backend entry.
	Name string
	// Cluster hosts the deployment.
	Cluster string
	// Server models the deployment's serving behaviour.
	Server Server

	// routes caches the resolved metric handles per source cluster. The
	// slice is tiny (one entry per source cluster) so a linear scan beats
	// any map, and the steady-state request path touches no maps at all.
	routes []*routeStats
}

// Picker chooses a backend for one request. Implementations may keep state
// (round-robin counters, EWMA scores) and may consult the TrafficSplit
// store.
type Picker interface {
	// Pick chooses among backends for a request originating in cluster
	// src. Per-source state lets strategies behave like real per-proxy
	// balancers (and lets TrafficSplit-driven strategies read the source
	// cluster's split, as a multi-cluster mesh does).
	Pick(now time.Duration, src, service string, backends []*Backend) *Backend
}

// Observer is optionally implemented by Pickers that want per-response
// feedback (per-request balancers like P2C/PeakEWMA need it; TrafficSplit
// weighted balancers do not).
type Observer interface {
	Observe(now time.Duration, src, backendName string, latency time.Duration, success bool)
}

// SpanRecorder receives one span per completed request, carrying both the
// client-observed timing and the backend-side duration — the feed a
// distributed-tracing pipeline (internal/tracing) consumes. Implementations
// must be cheap; they run on every response.
type SpanRecorder interface {
	RecordSpan(service, backendName, src string, start, end, serverDuration time.Duration, success bool)
}

// Result is the client-observed outcome of one request: end-to-end latency
// including WAN transit and queueing, plus the chosen backend.
type Result struct {
	Backend string
	Latency time.Duration
	Success bool
}

// Service is a routable service with backends in one or more clusters.
type Service struct {
	name     string
	backends []*Backend
	// picker is the routing strategy (nil: a uniform random pick).
	picker Picker
	// observer is the picker's Observer view, resolved once at SetPicker
	// time so the per-request path skips the type assertion and a
	// mid-flight picker swap cannot feed responses to a picker that never
	// saw the pick.
	observer Observer
}

// Backends returns the service's deployments (shared slice; do not mutate).
func (s *Service) Backends() []*Backend { return s.backends }

// DefaultLostTimeout is how long a client waits on a request lost to a WAN
// partition before counting it as failed — the request timeout of an HTTP
// client talking into a blackholed link.
const DefaultLostTimeout = time.Second

// Mesh wires clusters, services, WAN and metrics together.
type Mesh struct {
	engine *sim.Engine
	// rng is the stream every AddBackend forks a backend rng from, in call
	// order, and the pickerless fallback draws from.
	rng         *sim.Rand
	registry    *metrics.Registry
	wan         *wan.Model
	splits      *smi.Store
	services    map[string]*Service
	lostTimeout time.Duration
	spans       SpanRecorder
	// freeCalls recycles per-request state (and its pre-bound closures)
	// between requests.
	freeCalls []*call
}

// classStats holds the resolved response handles of one classification
// (success or failure) of one route. Handles resolve lazily on the first
// response of that classification, so the registry's series set and
// registration order are exactly what the label-built path produced.
type classStats struct {
	total   *metrics.Counter
	latency *metrics.Histogram
}

// routeStats caches the metric handles of one (service, backend, src)
// route. After the first few requests resolve its handles, a request
// records its metrics through pointer loads alone: no label maps, no series
// keys, no registry lock.
type routeStats struct {
	src     string
	service string
	backend string
	reg     *metrics.Registry
	// out and back are the WAN links src→backend and backend→src, resolved
	// with the route so a hop hashes no cluster name and takes no lock.
	out, back *wan.Link
	// inflight resolves when the route is first used (call time).
	inflight *metrics.Gauge
	success  classStats
	failure  classStats
}

// class returns the classification's resolved handles, registering the
// counter and histogram series on first use — counter first, histogram
// second, matching the order the label-built path registered them in.
func (rs *routeStats) class(success bool) *classStats {
	cs, name := &rs.failure, ClassFailure
	if success {
		cs, name = &rs.success, ClassSuccess
	}
	if cs.total == nil {
		labels := metrics.Labels{
			"service": rs.service, "backend": rs.backend, "src": rs.src,
			"classification": name,
		}
		cs.total = rs.reg.Counter(MetricResponseTotal, labels)
		cs.latency = rs.reg.Histogram(MetricResponseLatency, labels, histogram.LinkerdLatencyBounds)
	}
	return cs
}

// route returns the cached routeStats for (service, b, src), resolving the
// inflight gauge (and the cache entry) on the route's first request.
func (m *Mesh) route(service string, b *Backend, src string) *routeStats {
	for _, rs := range b.routes {
		if rs.src == src {
			return rs
		}
	}
	labels := metrics.Labels{"service": service, "backend": b.Name, "src": src}
	rs := &routeStats{
		src: src, service: service, backend: b.Name, reg: m.registry,
		inflight: m.registry.Gauge(MetricInflight, labels),
		out:      m.wan.Link(src, b.Cluster),
		back:     m.wan.Link(b.Cluster, src),
	}
	b.routes = append(b.routes, rs)
	return rs
}

// call is the pooled per-request state: everything the completion path
// needs, plus the three callbacks of the request lifecycle bound once per
// struct (they capture only the struct pointer), so a steady-state request
// allocates neither closures nor state.
type call struct {
	m         *Mesh
	b         *Backend
	rs        *routeStats
	obs       Observer
	src       string
	start     time.Duration
	serverDur time.Duration
	success   bool
	done      func(Result)

	forward   func()               // fires after the forward WAN hop
	serveDone func(backend.Result) // the backend's completion callback
	finishFn  func()               // fires after the return WAN hop/timeout
}

// getCall pops a recycled request (or builds one, binding its callbacks).
func (m *Mesh) getCall() *call {
	if n := len(m.freeCalls); n > 0 {
		c := m.freeCalls[n-1]
		m.freeCalls[n-1] = nil
		m.freeCalls = m.freeCalls[:n-1]
		return c
	}
	c := &call{m: m}
	c.forward = func() { c.b.Server.Serve(c.serveDone) }
	c.serveDone = func(res backend.Result) { c.onServed(res) }
	c.finishFn = func() { c.finish() }
	return c
}

// putCall recycles a finished request, dropping caller references.
func (c *call) putCall() {
	c.b, c.rs, c.obs, c.done = nil, nil, nil, nil
	c.m.freeCalls = append(c.m.freeCalls, c)
}

// New returns an empty mesh on engine. All arguments are required.
func New(engine *sim.Engine, rng *sim.Rand, wanModel *wan.Model, registry *metrics.Registry) *Mesh {
	if engine == nil || rng == nil || wanModel == nil || registry == nil {
		panic("mesh: New requires engine, rng, wan model and registry")
	}
	return &Mesh{
		engine:      engine,
		rng:         rng,
		registry:    registry,
		wan:         wanModel,
		splits:      smi.NewStore(),
		services:    make(map[string]*Service),
		lostTimeout: DefaultLostTimeout,
	}
}

// SetLostTimeout overrides the client timeout applied to requests lost to a
// WAN partition. Non-positive values restore the default. Requests on
// healthy links are never subject to this timeout.
func (m *Mesh) SetLostTimeout(d time.Duration) {
	if d <= 0 {
		d = DefaultLostTimeout
	}
	m.lostTimeout = d
}

// Splits exposes the mesh's TrafficSplit store — the write-side interface
// controllers like L3 use.
func (m *Mesh) Splits() *smi.Store { return m.splits }

// Registry exposes the data-plane metrics registry (scraped by the
// timeseries pipeline).
func (m *Mesh) Registry() *metrics.Registry { return m.registry }

// Engine returns the mesh's simulation engine.
func (m *Mesh) Engine() *sim.Engine { return m.engine }

// SetSpanRecorder installs a tracing sink (nil disables tracing).
func (m *Mesh) SetSpanRecorder(r SpanRecorder) { m.spans = r }

// AddService registers a service. It errors if the name is taken.
func (m *Mesh) AddService(name string) (*Service, error) {
	if name == "" {
		return nil, fmt.Errorf("mesh: empty service name")
	}
	if _, ok := m.services[name]; ok {
		return nil, fmt.Errorf("mesh: service %q already exists", name)
	}
	svc := &Service{name: name}
	m.services[name] = svc
	return svc, nil
}

// Service returns a registered service.
func (m *Mesh) Service(name string) (*Service, bool) {
	svc, ok := m.services[name]
	return svc, ok
}

// AddBackend deploys a replica-pool backend of the named service into a
// cluster. The backend name must be unique within the service. Its replicas
// schedule on the mesh's engine and draw from an rng forked off the mesh's
// stream in AddBackend order.
func (m *Mesh) AddBackend(service, backendName, cluster string, cfg backend.Config, profile backend.Profile) (*Backend, error) {
	cfg.Name = backendName
	return m.AddServerBackend(service, backendName, cluster,
		backend.New(m.engine, m.rng.Fork(), cfg, profile))
}

// AddServerBackend deploys an arbitrary Server as a backend of the named
// service — the hook application-level models (internal/dsb) use. The
// server must schedule on the mesh's engine.
func (m *Mesh) AddServerBackend(service, backendName, cluster string, srv Server) (*Backend, error) {
	svc, ok := m.services[service]
	if !ok {
		return nil, fmt.Errorf("mesh: unknown service %q", service)
	}
	if srv == nil {
		return nil, fmt.Errorf("mesh: nil server for backend %q", backendName)
	}
	for _, b := range svc.backends {
		if b.Name == backendName {
			return nil, fmt.Errorf("mesh: backend %q already exists in service %q", backendName, service)
		}
	}
	b := &Backend{Name: backendName, Cluster: cluster, Server: srv}
	svc.backends = append(svc.backends, b)
	return b, nil
}

// SetPicker installs the routing strategy for a service.
func (m *Mesh) SetPicker(service string, p Picker) error {
	svc, ok := m.services[service]
	if !ok {
		return fmt.Errorf("mesh: unknown service %q", service)
	}
	svc.picker = p
	svc.observer, _ = p.(Observer)
	return nil
}

// PickerFor returns the routing strategy installed for a service (nil when
// it has none) — what a wrapping layer (the resilience breaker) reads
// before re-installing its filtered view with SetPicker.
func (m *Mesh) PickerFor(service string) (Picker, error) {
	svc, ok := m.services[service]
	if !ok {
		return nil, fmt.Errorf("mesh: unknown service %q", service)
	}
	return svc.picker, nil
}

// Call issues one request from srcCluster to the named service. done fires
// exactly once with the client-observed result. The request path is:
// client proxy (pick backend, start metrics) → WAN to the backend's cluster
// → backend queue/execution → WAN back → client proxy (record metrics).
func (m *Mesh) Call(srcCluster, service string, done func(Result)) error {
	svc, ok := m.services[service]
	if !ok {
		return fmt.Errorf("mesh: unknown service %q", service)
	}
	if len(svc.backends) == 0 {
		return fmt.Errorf("mesh: service %q has no backends", service)
	}

	now := m.engine.Now()
	// Bind the picker and its Observer view at pick time: a SetPicker swap
	// mid-flight must not feed this response to a picker that never saw the
	// pick.
	picker, obs := svc.picker, svc.observer
	var b *Backend
	if picker != nil {
		b = picker.Pick(now, srcCluster, service, svc.backends)
	}
	if b == nil {
		b = svc.backends[m.rng.IntN(len(svc.backends))]
	}

	c := m.getCall()
	c.b, c.rs, c.obs = b, m.route(service, b, srcCluster), obs
	c.src, c.start, c.done = srcCluster, now, done
	c.rs.inflight.Inc()

	// A partitioned forward link swallows the request: the client observes
	// nothing until its timeout trips and counts the request as failed. The
	// return link is checked again at response time, so a partition injected
	// mid-request still blackholes the response.
	if c.rs.out.Partitioned() {
		c.success, c.serverDur = false, 0
		m.engine.Schedule(now+m.lostTimeout, c.finishFn)
		return nil
	}
	m.engine.Schedule(now+c.rs.out.Delay(now), c.forward)
	return nil
}

// onServed is the backend-completion leg of a request: check the return
// link, then schedule the finish after the return hop (or at the client
// timeout when the link is partitioned — Schedule clamps to "now" when the
// timeout already passed while the backend was serving).
func (c *call) onServed(res backend.Result) {
	m := c.m
	now := m.engine.Now()
	if c.rs.back.Partitioned() {
		c.success, c.serverDur = false, res.Latency
		m.engine.Schedule(c.start+m.lostTimeout, c.finishFn)
		return
	}
	back := c.rs.back.Delay(now)
	c.success, c.serverDur = res.Success && !res.Rejected, res.Latency
	m.engine.Schedule(now+back, c.finishFn)
}

// finish records the response at the client proxy — inflight, spans,
// response_total, response_latency, Observer feedback — through the route's
// cached handles, recycles the request state, and completes the caller.
func (c *call) finish() {
	end := c.m.engine.Now()
	latency := end - c.start
	c.rs.inflight.Dec()
	if c.m.spans != nil {
		c.m.spans.RecordSpan(c.rs.service, c.b.Name, c.src, c.start, end, c.serverDur, c.success)
	}
	cs := c.rs.class(c.success)
	cs.total.Inc()
	cs.latency.Observe(latency.Seconds())
	if c.obs != nil {
		c.obs.Observe(end, c.src, c.b.Name, latency, c.success)
	}
	done, backendName, success := c.done, c.b.Name, c.success
	c.putCall() // recycle before done: the callback may issue nested Calls
	done(Result{Backend: backendName, Latency: latency, Success: success})
}

// Probe issues one health probe from cluster src directly to backend b: WAN
// transit both ways, no load balancing, no data-plane metrics (probes are
// not client traffic). done fires with the probe outcome — unless either
// direction is partitioned, in which case done never fires and the caller's
// probe timeout counts the probe as failed, exactly as a real checker
// behind a blackholed link would observe.
func (m *Mesh) Probe(src string, b *Backend, done func(success bool)) {
	eng := m.engine
	now := eng.Now()
	if m.wan.Partitioned(src, b.Cluster) {
		return
	}
	eng.After(m.wan.OneWayDelay(src, b.Cluster, now), func() {
		b.Server.Serve(func(res backend.Result) {
			back := eng.Now()
			if m.wan.Partitioned(b.Cluster, src) {
				return
			}
			eng.After(m.wan.OneWayDelay(b.Cluster, src, back), func() {
				done(res.Success && !res.Rejected)
			})
		})
	})
}
