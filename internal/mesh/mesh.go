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
// A Mesh runs in one of two modes. The classic mode (New) drives everything
// on one sim.Engine. The sharded mode (NewSharded) keys one logical shard
// per cluster on a sim.ShardedEngine: each cluster's backends, load and
// client proxies execute on their own event loop with their own metrics
// registry, rng stream and request pool, and a WAN-traversing call crosses
// shards as a conservative lookahead message (forward hop to the backend's
// shard, return hop back to the source shard, where the response metrics are
// recorded). Since every piece of per-request state is confined to one shard
// at a time, the sharded data plane needs no locks and stays deterministic
// at any worker count.
//
// Fidelity note: the sidecar proxy's own forwarding overhead (~sub-ms
// median per the Linkerd benchmark study §4 cites) is folded into the WAN
// model's local delay rather than modelled separately.
package mesh

import (
	"fmt"
	"sync"
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

	// routes caches the resolved metric handles per source cluster, one
	// bucket per mesh shard (classic mode has exactly one). Each inner
	// slice is tiny (one entry per source cluster) so a linear scan beats
	// any map, and the steady-state request path touches no maps at all.
	// Bucket i is only touched by shard i's execution, so the cache needs
	// no lock in sharded mode.
	routes [][]*routeStats
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
	// pickers holds the routing strategy per mesh shard (classic mode uses
	// slot 0 only). Stateful pickers must be distinct instances per shard —
	// they execute concurrently during windows.
	pickers []Picker
	// observers are the pickers' Observer views, resolved once at
	// SetPicker/SetShardPicker time so the per-request path skips the type
	// assertion and a mid-flight picker swap cannot feed responses to a
	// picker that never saw the pick.
	observers []Observer
}

// Backends returns the service's deployments (shared slice; do not mutate).
func (s *Service) Backends() []*Backend { return s.backends }

// DefaultLostTimeout is how long a client waits on a request lost to a WAN
// partition before counting it as failed — the request timeout of an HTTP
// client talking into a blackholed link.
const DefaultLostTimeout = time.Second

// meshShard is the per-shard slice of the data plane: the event loop,
// metrics registry, rng stream and request pool owned by one cluster's
// logical shard. Classic mode has exactly one, wrapping the caller's engine,
// rng and registry.
type meshShard struct {
	id      int
	cluster string // "" in classic mode (one shard hosts every cluster)
	engine  *sim.Engine
	shard   *sim.Shard // nil in classic mode
	// rng is the shard's private stream. Classic mode holds the caller's
	// stream; sharded shards fork theirs lazily off the wiring stream on
	// first use, which keeps the wiring stream's draw sequence — and so the
	// backend rngs forked from it — identical to classic mode.
	rng      *sim.Rand
	registry *metrics.Registry
	// spans is the shard's tracing sink. Per-shard because finish() runs on
	// the source shard's timeline; a recorder shared across shards would be
	// written concurrently during windows.
	spans SpanRecorder
	// freeCalls recycles per-request state (and its pre-bound closures)
	// between requests. A call struct belongs to its source shard for life:
	// it is taken from and returned to this pool on the shard's own
	// timeline, so the free list needs no lock.
	freeCalls []*call
}

// Mesh wires clusters, services, WAN and metrics together.
type Mesh struct {
	wan         *wan.Model
	splits      *smi.Store
	services    map[string]*Service
	lostTimeout time.Duration

	// wiringRng is the stream every AddBackend forks a backend rng from, in
	// call order — the same discipline in both modes, so a sharded run's
	// backend streams are exactly a classic run's. Classic mode aliases it
	// to shard 0's rng.
	wiringRng *sim.Rand
	rngMu     sync.Mutex // guards lazy shard-rng forks off wiringRng

	shards         []*meshShard
	shardByCluster map[string]int // sharded mode only
	se             *sim.ShardedEngine
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
// route in one shard's registry. After the first few requests resolve its
// handles, a request records its metrics through pointer loads alone: no
// label maps, no series keys, no registry lock.
type routeStats struct {
	src     string
	service string
	backend string
	reg     *metrics.Registry // the source shard's registry
	// dst is the shard hosting the backend, resolved once at route-cache
	// creation so the per-call path never touches the cluster map (classic
	// mode: the one shard).
	dst *meshShard
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

// route returns the cached routeStats for (service, b, src) in the source
// shard's bucket, resolving the inflight gauge (and the cache entry) on the
// route's first request.
func (m *Mesh) route(service string, b *Backend, src string, ss *meshShard) *routeStats {
	for _, rs := range b.routes[ss.id] {
		if rs.src == src {
			return rs
		}
	}
	labels := metrics.Labels{"service": service, "backend": b.Name, "src": src}
	rs := &routeStats{
		src: src, service: service, backend: b.Name, reg: ss.registry,
		dst:      ss,
		inflight: ss.registry.Gauge(MetricInflight, labels),
		out:      m.wan.Link(src, b.Cluster),
		back:     m.wan.Link(b.Cluster, src),
	}
	if m.se != nil {
		if ds, err := m.shardFor(b.Cluster); err == nil {
			rs.dst = ds
		}
	}
	b.routes[ss.id] = append(b.routes[ss.id], rs)
	return rs
}

// call is the pooled per-request state: everything the completion path
// needs, plus the three callbacks of the request lifecycle bound once per
// struct (they capture only the struct pointer), so a steady-state request
// allocates neither closures nor state.
type call struct {
	m         *Mesh
	ss        *meshShard // source shard: pick, metrics, finish (never cleared)
	dst       *meshShard // destination shard: serve, return hop
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
func (ss *meshShard) getCall(m *Mesh) *call {
	if n := len(ss.freeCalls); n > 0 {
		c := ss.freeCalls[n-1]
		ss.freeCalls[n-1] = nil
		ss.freeCalls = ss.freeCalls[:n-1]
		return c
	}
	c := &call{m: m, ss: ss}
	c.forward = func() { c.b.Server.Serve(c.serveDone) }
	c.serveDone = func(res backend.Result) { c.onServed(res) }
	c.finishFn = func() { c.finish() }
	return c
}

// putCall recycles a finished request into its source shard's pool,
// dropping caller references.
func (c *call) putCall() {
	ss := c.ss
	c.b, c.rs, c.obs, c.done, c.dst = nil, nil, nil, nil, nil
	ss.freeCalls = append(ss.freeCalls, c)
}

// New returns an empty mesh in classic single-engine mode. All arguments
// are required.
func New(engine *sim.Engine, rng *sim.Rand, wanModel *wan.Model, registry *metrics.Registry) *Mesh {
	if engine == nil || rng == nil || wanModel == nil || registry == nil {
		panic("mesh: New requires engine, rng, wan model and registry")
	}
	return &Mesh{
		wan:         wanModel,
		splits:      smi.NewStore(),
		services:    make(map[string]*Service),
		lostTimeout: DefaultLostTimeout,
		wiringRng:   rng,
		shards: []*meshShard{{
			engine: engine, rng: rng, registry: registry,
		}},
	}
}

// NewSharded returns an empty mesh in sharded mode on se: one logical shard
// per cluster, in the given order (shard i hosts clusters[i]). Every shard
// gets its own metrics registry; rng becomes the wiring stream, consumed in
// the same order a classic mesh consumes it (one fork per AddBackend, then
// lazy per-shard forks on first RngFor), so a sharded run draws the exact
// backend rng streams a classic run with the same seed does. se's lookahead
// must lower-bound wanModel.MinOneWayDelay(); callers derive it from there.
func NewSharded(se *sim.ShardedEngine, clusters []string, rng *sim.Rand, wanModel *wan.Model) (*Mesh, error) {
	if se == nil || rng == nil || wanModel == nil {
		panic("mesh: NewSharded requires sharded engine, rng and wan model")
	}
	if len(clusters) != se.NumShards() {
		return nil, fmt.Errorf("mesh: %d clusters for %d shards", len(clusters), se.NumShards())
	}
	m := &Mesh{
		wan:            wanModel,
		splits:         smi.NewStore(),
		services:       make(map[string]*Service),
		lostTimeout:    DefaultLostTimeout,
		wiringRng:      rng,
		shards:         make([]*meshShard, len(clusters)),
		shardByCluster: make(map[string]int, len(clusters)),
		se:             se,
	}
	for i, cl := range clusters {
		if _, dup := m.shardByCluster[cl]; dup {
			return nil, fmt.Errorf("mesh: duplicate cluster %q", cl)
		}
		m.shardByCluster[cl] = i
		m.shards[i] = &meshShard{
			id: i, cluster: cl,
			engine:   se.Shard(i).Engine(),
			shard:    se.Shard(i),
			registry: metrics.NewRegistry(),
		}
	}
	return m, nil
}

// Sharded reports whether the mesh runs in sharded mode.
func (m *Mesh) Sharded() bool { return m.se != nil }

// shardFor resolves the shard hosting a cluster. Classic mode hosts every
// cluster on shard 0.
func (m *Mesh) shardFor(cluster string) (*meshShard, error) {
	if m.se == nil {
		return m.shards[0], nil
	}
	i, ok := m.shardByCluster[cluster]
	if !ok {
		return nil, fmt.Errorf("mesh: unknown cluster %q", cluster)
	}
	return m.shards[i], nil
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
// controllers like L3 use. In sharded mode, writes must happen on the
// control engine's timeline (shards paused); reads during windows are safe.
func (m *Mesh) Splits() *smi.Store { return m.splits }

// Registry exposes the data-plane metrics registry (scraped by the
// timeseries pipeline). In sharded mode this is shard 0's registry; scrape
// loops should use Registries.
func (m *Mesh) Registry() *metrics.Registry { return m.shards[0].registry }

// Registries returns every shard's registry in shard order — what a scrape
// round reads in sharded mode (core.NewScraperClock consumes it).
func (m *Mesh) Registries() []*metrics.Registry {
	regs := make([]*metrics.Registry, len(m.shards))
	for i, sh := range m.shards {
		regs[i] = sh.registry
	}
	return regs
}

// Clusters returns the cluster names in shard order — the canonical
// iteration order for per-shard wiring (pickers, scrapes, reductions).
func (m *Mesh) Clusters() []string {
	names := make([]string, len(m.shards))
	for i, sh := range m.shards {
		names[i] = sh.cluster
	}
	return names
}

// Engine returns the mesh's simulation engine (shard 0's in sharded mode;
// per-cluster components should use EngineFor).
func (m *Mesh) Engine() *sim.Engine { return m.shards[0].engine }

// EngineFor returns the event loop of the shard hosting a cluster — where
// that cluster's load generators and backends must schedule.
func (m *Mesh) EngineFor(cluster string) (*sim.Engine, error) {
	sh, err := m.shardFor(cluster)
	if err != nil {
		return nil, err
	}
	return sh.engine, nil
}

// RngFor returns the rng stream of the shard hosting a cluster, for wiring
// per-cluster components (load generators) deterministically. In sharded
// mode the stream is forked off the wiring stream on first access, so a run
// that never asks for shard streams consumes the wiring stream exactly like
// a classic run.
func (m *Mesh) RngFor(cluster string) (*sim.Rand, error) {
	sh, err := m.shardFor(cluster)
	if err != nil {
		return nil, err
	}
	return m.shardRng(sh), nil
}

// shardRng returns the shard's private rng, lazily forked off the wiring
// stream. The mutex only matters for the pickerless Call fallback, which may
// first touch a shard's stream mid-window; deterministic callers fork during
// single-threaded wiring.
func (m *Mesh) shardRng(sh *meshShard) *sim.Rand {
	if sh.rng == nil {
		m.rngMu.Lock()
		if sh.rng == nil {
			sh.rng = m.wiringRng.Fork()
		}
		m.rngMu.Unlock()
	}
	return sh.rng
}

// SetSpanRecorder installs a tracing sink (nil disables tracing). In
// sharded mode the same recorder is installed on every shard: spans record
// on the *source* shard's timeline, so shards write it concurrently during
// windows, and the recorder must be safe for concurrent use.
func (m *Mesh) SetSpanRecorder(r SpanRecorder) {
	for _, sh := range m.shards {
		sh.spans = r
	}
}

// AddService registers a service. It errors if the name is taken.
func (m *Mesh) AddService(name string) (*Service, error) {
	if name == "" {
		return nil, fmt.Errorf("mesh: empty service name")
	}
	if _, ok := m.services[name]; ok {
		return nil, fmt.Errorf("mesh: service %q already exists", name)
	}
	svc := &Service{
		name:      name,
		pickers:   make([]Picker, len(m.shards)),
		observers: make([]Observer, len(m.shards)),
	}
	m.services[name] = svc
	return svc, nil
}

// Service returns a registered service.
func (m *Mesh) Service(name string) (*Service, bool) {
	svc, ok := m.services[name]
	return svc, ok
}

// AddBackend deploys a replica-pool backend of the named service into a
// cluster. The backend name must be unique within the service. The backend
// lives on the cluster's shard: its replicas schedule on that shard's
// engine and draw from an rng forked off the wiring stream in AddBackend
// order — the same fork sequence in classic and sharded mode, which is what
// lets a sharded figure reproduce a classic one byte for byte.
func (m *Mesh) AddBackend(service, backendName, cluster string, cfg backend.Config, profile backend.Profile) (*Backend, error) {
	sh, err := m.shardFor(cluster)
	if err != nil {
		return nil, err
	}
	cfg.Name = backendName
	return m.AddServerBackend(service, backendName, cluster,
		backend.New(sh.engine, m.wiringRng.Fork(), cfg, profile))
}

// AddServerBackend deploys an arbitrary Server as a backend of the named
// service — the hook application-level models (internal/dsb) use. The
// server must schedule exclusively on its cluster's shard engine.
func (m *Mesh) AddServerBackend(service, backendName, cluster string, srv Server) (*Backend, error) {
	svc, ok := m.services[service]
	if !ok {
		return nil, fmt.Errorf("mesh: unknown service %q", service)
	}
	if srv == nil {
		return nil, fmt.Errorf("mesh: nil server for backend %q", backendName)
	}
	if _, err := m.shardFor(cluster); err != nil {
		return nil, err
	}
	for _, b := range svc.backends {
		if b.Name == backendName {
			return nil, fmt.Errorf("mesh: backend %q already exists in service %q", backendName, service)
		}
	}
	b := &Backend{
		Name: backendName, Cluster: cluster, Server: srv,
		routes: make([][]*routeStats, len(m.shards)),
	}
	svc.backends = append(svc.backends, b)
	return b, nil
}

// SetPicker installs the routing strategy for a service on every shard.
// Classic mode has one shard, so this is the complete wiring. In sharded
// mode it only suits stateless pickers; stateful ones (round-robin
// counters, P2C state, split-weighted rngs) execute concurrently across
// shards and must be installed per shard with SetShardPicker.
func (m *Mesh) SetPicker(service string, p Picker) error {
	svc, ok := m.services[service]
	if !ok {
		return fmt.Errorf("mesh: unknown service %q", service)
	}
	obs, _ := p.(Observer)
	for i := range svc.pickers {
		svc.pickers[i] = p
		svc.observers[i] = obs
	}
	return nil
}

// SetShardPicker installs the routing strategy one cluster's proxies use —
// each shard's picker instance is private to that shard's timeline.
func (m *Mesh) SetShardPicker(service, cluster string, p Picker) error {
	svc, ok := m.services[service]
	if !ok {
		return fmt.Errorf("mesh: unknown service %q", service)
	}
	sh, err := m.shardFor(cluster)
	if err != nil {
		return err
	}
	svc.pickers[sh.id] = p
	svc.observers[sh.id], _ = p.(Observer)
	return nil
}

// PickerFor returns the routing strategy installed for a service on the
// shard hosting a cluster (nil when the shard has no picker) — what a
// per-source wrapping layer (the resilience breaker) reads before
// re-installing its filtered view with SetShardPicker.
func (m *Mesh) PickerFor(service, cluster string) (Picker, error) {
	svc, ok := m.services[service]
	if !ok {
		return nil, fmt.Errorf("mesh: unknown service %q", service)
	}
	sh, err := m.shardFor(cluster)
	if err != nil {
		return nil, err
	}
	return svc.pickers[sh.id], nil
}

// Call issues one request from srcCluster to the named service. done fires
// exactly once with the client-observed result. The request path is:
// client proxy (pick backend, start metrics) → WAN to the backend's cluster
// → backend queue/execution → WAN back → client proxy (record metrics).
//
// In sharded mode, Call must be invoked on the source cluster's shard
// timeline (from an event executing on that shard's engine); done fires
// there too. A WAN hop to another cluster's shard travels as a cross-shard
// message whose delay — the WAN one-way delay — is lower-bounded by the
// engine's lookahead, which is what keeps barrier delivery conservative.
func (m *Mesh) Call(srcCluster, service string, done func(Result)) error {
	ss, err := m.shardFor(srcCluster)
	if err != nil {
		return err
	}
	return m.callFrom(ss, srcCluster, service, done)
}

// Proxy is a client-side handle bound to one source cluster's shard: the
// per-request path skips the cluster-map lookup Call pays on every request.
// Hot loops that always issue from the same cluster (load generators, the
// client layers) should hold one.
type Proxy struct {
	m   *Mesh
	ss  *meshShard
	src string
}

// Proxy returns the bound client-side handle for a source cluster.
func (m *Mesh) Proxy(cluster string) (*Proxy, error) {
	ss, err := m.shardFor(cluster)
	if err != nil {
		return nil, err
	}
	src := cluster
	return &Proxy{m: m, ss: ss, src: src}, nil
}

// Engine returns the event loop of the proxy's cluster — the timeline its
// calls start and complete on, where a client layer's timers belong.
func (p *Proxy) Engine() *sim.Engine { return p.ss.engine }

// Registry returns the metrics registry of the proxy's cluster, written
// only on that cluster's timeline.
func (p *Proxy) Registry() *metrics.Registry { return p.ss.registry }

// Call issues one request from the proxy's source cluster, exactly like
// Mesh.Call with the source pre-resolved.
func (p *Proxy) Call(service string, done func(Result)) error {
	return p.m.callFrom(p.ss, p.src, service, done)
}

// callFrom is the shared request path behind Mesh.Call and Proxy.Call; ss
// must be the shard hosting srcCluster.
func (m *Mesh) callFrom(ss *meshShard, srcCluster, service string, done func(Result)) error {
	svc, ok := m.services[service]
	if !ok {
		return fmt.Errorf("mesh: unknown service %q", service)
	}
	if len(svc.backends) == 0 {
		return fmt.Errorf("mesh: service %q has no backends", service)
	}

	now := ss.engine.Now()
	// Bind the picker and its Observer view at pick time: a SetPicker swap
	// mid-flight must not feed this response to a picker that never saw the
	// pick.
	picker, obs := svc.pickers[ss.id], svc.observers[ss.id]
	var b *Backend
	if picker != nil {
		b = picker.Pick(now, srcCluster, service, svc.backends)
	}
	if b == nil {
		b = svc.backends[m.shardRng(ss).IntN(len(svc.backends))]
	}

	c := ss.getCall(m)
	c.b, c.rs, c.obs = b, m.route(service, b, srcCluster, ss), obs
	c.src, c.start, c.done = srcCluster, now, done
	c.rs.inflight.Inc()
	c.dst = c.rs.dst

	// A partitioned forward link swallows the request: the client observes
	// nothing until its timeout trips and counts the request as failed. The
	// return link is checked again at response time, so a partition injected
	// mid-request still blackholes the response. The timeout runs locally on
	// the source shard — the request never leaves it.
	if c.rs.out.Partitioned() {
		c.success, c.serverDur = false, 0
		ss.engine.Schedule(now+m.lostTimeout, c.finishFn)
		return nil
	}
	forward := c.rs.out.Delay(now)
	if c.dst == ss {
		ss.engine.Schedule(now+forward, c.forward)
	} else {
		ss.shard.Send(c.dst.id, now+forward, c.forward)
	}
	return nil
}

// onServed is the backend-completion leg of a request, executing on the
// destination shard: check the return link, then route the finish back to
// the source shard after the return hop (or at the client timeout when the
// link is partitioned — Schedule clamps to "now" when the timeout already
// passed while the backend was serving; a cross-shard timeout delivery is
// clamped to the next barrier, the sharded analogue).
func (c *call) onServed(res backend.Result) {
	m := c.m
	now := c.dst.engine.Now()
	if c.rs.back.Partitioned() {
		c.success, c.serverDur = false, res.Latency
		at := c.start + m.lostTimeout
		if c.dst == c.ss {
			c.dst.engine.Schedule(at, c.finishFn)
		} else {
			c.dst.shard.Send(c.ss.id, at, c.finishFn)
		}
		return
	}
	back := c.rs.back.Delay(now)
	c.success, c.serverDur = res.Success && !res.Rejected, res.Latency
	if c.dst == c.ss {
		c.dst.engine.Schedule(now+back, c.finishFn)
	} else {
		c.dst.shard.Send(c.ss.id, now+back, c.finishFn)
	}
}

// finish records the response at the client proxy — inflight, spans,
// response_total, response_latency, Observer feedback — through the route's
// cached handles into the source shard's registry, recycles the request
// state, and completes the caller. It executes on the source shard.
func (c *call) finish() {
	end := c.ss.engine.Now()
	latency := end - c.start
	c.rs.inflight.Dec()
	if c.ss.spans != nil {
		c.ss.spans.RecordSpan(c.rs.service, c.b.Name, c.src, c.start, end, c.serverDur, c.success)
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
//
// In sharded mode, Probe must be called from the control engine's timeline
// (health checkers live there): the probe's serve leg is scheduled straight
// onto the backend's shard — legal because every shard is paused at the
// control barrier — and the response returns as a shard→control message, so
// done fires at the first barrier after the return hop lands (quantized at
// most one lookahead late, uniformly for every probe).
func (m *Mesh) Probe(src string, b *Backend, done func(success bool)) {
	if m.se == nil {
		m.probeClassic(src, b, done)
		return
	}
	ds, err := m.shardFor(b.Cluster)
	if err != nil {
		return
	}
	now := m.se.Control().Now()
	if m.wan.Partitioned(src, b.Cluster) {
		return
	}
	forward := m.wan.OneWayDelay(src, b.Cluster, now)
	ds.engine.Schedule(now+forward, func() {
		b.Server.Serve(func(res backend.Result) {
			served := ds.engine.Now()
			if m.wan.Partitioned(b.Cluster, src) {
				return
			}
			back := m.wan.OneWayDelay(b.Cluster, src, served)
			ds.shard.SendControl(served+back, func() {
				done(res.Success && !res.Rejected)
			})
		})
	})
}

// probeClassic is the single-engine probe path.
func (m *Mesh) probeClassic(src string, b *Backend, done func(success bool)) {
	eng := m.shards[0].engine
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
