// Package dsb models the hotel-reservation application of the
// DeathStarBench suite (Gan et al., ASPLOS '19) — the multi-tier
// microservice workload of the paper's Figure 9 experiment. The application
// consists of eight microservices (frontend, search, geo, rate, profile,
// recommendation, user, reservation) plus their memcached caches and
// MongoDB stores. Every service is deployed in every cluster, and every
// service-to-service hop goes through the mesh's client proxy, so each hop
// makes an independent load-balancing decision — exactly the deployment of
// §5.1, where "outgoing requests from any of the microservices to other
// microservices are distributed within all clusters according to the load
// balancing algorithm".
//
// Service execution times are log-normal with per-tier parameters chosen so
// the end-to-end latency sits at the tens-of-milliseconds scale the paper
// measured (Figure 9: round-robin P99 ≈ 93 ms at 200 RPS); MongoDB tiers
// carry the heavy tail, reflecting the paper's observation that a slow
// database dominates geographic distance.
package dsb

import (
	"fmt"
	"time"

	"l3/internal/backend"
	"l3/internal/mesh"
	"l3/internal/sim"
	"l3/internal/smi"
	"l3/internal/trace"
)

// Stage is one step of a service's handler: a set of downstream services
// called in parallel. A handler's stages run sequentially.
type Stage []string

// Variant is one behaviour of a service handler, selected with probability
// proportional to Weight (request mix, cache hit/miss paths).
type Variant struct {
	Weight float64
	Stages []Stage
}

// ServiceSpec describes one microservice of the application.
type ServiceSpec struct {
	// Name of the service.
	Name string
	// ComputeMedian/ComputeP99 parameterise the local execution-time
	// distribution (excluding downstream calls).
	ComputeMedian time.Duration
	ComputeP99    time.Duration
	// Concurrency bounds parallel request execution per cluster
	// deployment.
	Concurrency int
	// Variants are the handler's alternative downstream call plans; a
	// single-variant service always runs the same plan. Leaf services
	// (caches, databases) have no variants.
	Variants []Variant
}

// HotelReservationSpecs returns the application graph: 8 microservices,
// 3 memcached tiers and 6 MongoDB tiers. The frontend's variants encode the
// DeathStarBench mixed workload (≈60 % hotel search, 39 % recommendations,
// 0.5 % user login, 0.5 % reservations); rate/profile/reservation variants
// encode cache hit/miss paths.
func HotelReservationSpecs() []ServiceSpec {
	return []ServiceSpec{
		{
			Name:          "frontend",
			ComputeMedian: 500 * time.Microsecond,
			ComputeP99:    2 * time.Millisecond,
			Concurrency:   256,
			Variants: []Variant{
				{Weight: 0.60, Stages: []Stage{{"search"}, {"reservation"}, {"profile"}}},
				{Weight: 0.39, Stages: []Stage{{"recommendation"}, {"profile"}}},
				{Weight: 0.005, Stages: []Stage{{"user"}}},
				{Weight: 0.005, Stages: []Stage{{"user"}, {"reservation"}}},
			},
		},
		{
			Name:          "search",
			ComputeMedian: time.Millisecond,
			ComputeP99:    4 * time.Millisecond,
			Concurrency:   128,
			Variants:      []Variant{{Weight: 1, Stages: []Stage{{"geo", "rate"}}}},
		},
		{
			Name:          "geo",
			ComputeMedian: 800 * time.Microsecond,
			ComputeP99:    3 * time.Millisecond,
			Concurrency:   128,
			Variants:      []Variant{{Weight: 1, Stages: []Stage{{"mongo-geo"}}}},
		},
		{
			Name:          "rate",
			ComputeMedian: 600 * time.Microsecond,
			ComputeP99:    2 * time.Millisecond,
			Concurrency:   128,
			Variants: []Variant{
				{Weight: 0.8, Stages: []Stage{{"memcached-rate"}}},
				{Weight: 0.2, Stages: []Stage{{"memcached-rate"}, {"mongo-rate"}}},
			},
		},
		{
			Name:          "profile",
			ComputeMedian: 700 * time.Microsecond,
			ComputeP99:    2 * time.Millisecond,
			Concurrency:   128,
			Variants: []Variant{
				{Weight: 0.9, Stages: []Stage{{"memcached-profile"}}},
				{Weight: 0.1, Stages: []Stage{{"memcached-profile"}, {"mongo-profile"}}},
			},
		},
		{
			Name:          "recommendation",
			ComputeMedian: 1200 * time.Microsecond,
			ComputeP99:    4 * time.Millisecond,
			Concurrency:   128,
			Variants:      []Variant{{Weight: 1, Stages: []Stage{{"mongo-recommendation"}}}},
		},
		{
			Name:          "user",
			ComputeMedian: 600 * time.Microsecond,
			ComputeP99:    2 * time.Millisecond,
			Concurrency:   128,
			Variants:      []Variant{{Weight: 1, Stages: []Stage{{"mongo-user"}}}},
		},
		{
			Name:          "reservation",
			ComputeMedian: 800 * time.Microsecond,
			ComputeP99:    3 * time.Millisecond,
			Concurrency:   128,
			Variants: []Variant{
				{Weight: 0.85, Stages: []Stage{{"memcached-reserve"}}},
				{Weight: 0.15, Stages: []Stage{{"memcached-reserve"}, {"mongo-reservation"}}},
			},
		},
		{Name: "memcached-rate", ComputeMedian: 200 * time.Microsecond, ComputeP99: 800 * time.Microsecond, Concurrency: 512},
		{Name: "memcached-profile", ComputeMedian: 200 * time.Microsecond, ComputeP99: 800 * time.Microsecond, Concurrency: 512},
		{Name: "memcached-reserve", ComputeMedian: 200 * time.Microsecond, ComputeP99: 800 * time.Microsecond, Concurrency: 512},
		{Name: "mongo-geo", ComputeMedian: 2 * time.Millisecond, ComputeP99: 15 * time.Millisecond, Concurrency: 64},
		{Name: "mongo-rate", ComputeMedian: 2500 * time.Microsecond, ComputeP99: 18 * time.Millisecond, Concurrency: 64},
		{Name: "mongo-profile", ComputeMedian: 2 * time.Millisecond, ComputeP99: 15 * time.Millisecond, Concurrency: 64},
		{Name: "mongo-recommendation", ComputeMedian: 3 * time.Millisecond, ComputeP99: 20 * time.Millisecond, Concurrency: 64},
		{Name: "mongo-user", ComputeMedian: 1500 * time.Microsecond, ComputeP99: 10 * time.Millisecond, Concurrency: 64},
		{Name: "mongo-reservation", ComputeMedian: 2500 * time.Microsecond, ComputeP99: 18 * time.Millisecond, Concurrency: 64},
	}
}

// EntryService is the service the load generator addresses (the paper's
// benchmarking client sends to the cluster-local frontend).
const EntryService = "frontend"

// App is an installed application: every service of the graph deployed
// into every cluster of the mesh.
type App struct {
	mesh     *mesh.Mesh
	clusters []string
	specs    map[string]ServiceSpec
	order    []string
	options  installOptions
}

type installOptions struct {
	perfVariation bool
}

// perfHorizon is the span of each backend's variation series, one sample a
// second; beyond it the last value holds. It fixes where every draw of the
// install stream falls, so every DSB golden depends on it. The series are
// drawn on demand (trace.Walk, trace.EpisodeMultipliers): a run pays for the
// seconds it reaches, not for the horizon.
const perfHorizon = 40 * time.Minute

// InstallOption customises Install.
type InstallOption func(*installOptions)

// WithPerfVariation makes every (service, cluster) deployment's execution
// time follow a slowly varying multiplier — a base drift plus sustained
// degradation episodes — modelling the multi-tenant performance
// variability of the paper's EC2 testbed, which is what gives the
// latency-aware balancers their signal in the Figure 9 experiment.
func WithPerfVariation() InstallOption {
	return func(o *installOptions) { o.perfVariation = true }
}

// Install deploys the given service graph into the mesh, one backend per
// (service, cluster), named "<service>-<cluster>".
func Install(m *mesh.Mesh, clusters []string, rng *sim.Rand, specs []ServiceSpec, opts ...InstallOption) (*App, error) {
	if len(clusters) == 0 {
		return nil, fmt.Errorf("dsb: no clusters")
	}
	app := &App{
		mesh:     m,
		clusters: append([]string(nil), clusters...),
		specs:    make(map[string]ServiceSpec, len(specs)),
	}
	for _, o := range opts {
		o(&app.options)
	}
	for _, spec := range specs {
		if _, ok := app.specs[spec.Name]; ok {
			return nil, fmt.Errorf("dsb: duplicate service %q", spec.Name)
		}
		app.specs[spec.Name] = spec
		app.order = append(app.order, spec.Name)
		if _, err := m.AddService(spec.Name); err != nil {
			return nil, fmt.Errorf("dsb: %w", err)
		}
		for _, c := range clusters {
			srv := &appServer{
				app:     app,
				cluster: c,
				spec:    spec,
				rng:     rng.Fork(),
				compute: backend.New(m.Engine(), rng.Fork(), backend.Config{
					Name:        BackendName(spec.Name, c),
					Concurrency: spec.Concurrency,
				}, app.computeProfile(spec, rng.Fork())),
			}
			if _, err := m.AddServerBackend(spec.Name, BackendName(spec.Name, c), c, srv); err != nil {
				return nil, fmt.Errorf("dsb: %w", err)
			}
		}
	}
	// Validate the graph: every downstream target must exist.
	for _, spec := range specs {
		for _, v := range spec.Variants {
			for _, stage := range v.Stages {
				for _, target := range stage {
					if _, ok := app.specs[target]; !ok {
						return nil, fmt.Errorf("dsb: service %q calls unknown service %q", spec.Name, target)
					}
				}
			}
		}
	}
	return app, nil
}

// InstallHotelReservation installs the standard hotel-reservation graph.
func InstallHotelReservation(m *mesh.Mesh, clusters []string, rng *sim.Rand, opts ...InstallOption) (*App, error) {
	return Install(m, clusters, rng, HotelReservationSpecs(), opts...)
}

// BackendName names the deployment of service in cluster.
func BackendName(service, cluster string) string {
	return service + "-" + cluster
}

// SplitName names the TrafficSplit that governs traffic from src to
// service. Each source cluster owns its own splits, matching the paper's
// production deployment where an L3 instance runs per cluster and adjusts
// that cluster's TrafficSplits from that cluster's proxy metrics.
func SplitName(src, service string) string {
	return src + "/" + service
}

// Services returns the application's service names in installation order.
func (a *App) Services() []string {
	return append([]string(nil), a.order...)
}

// CreateSplits creates one TrafficSplit per (source cluster, service) with
// equal weights across all clusters, named SplitName(src, service).
func (a *App) CreateSplits() error {
	for _, src := range a.clusters {
		for _, svc := range a.order {
			backends := make([]smi.Backend, 0, len(a.clusters))
			for _, c := range a.clusters {
				backends = append(backends, smi.Backend{Service: BackendName(svc, c), Weight: 500})
			}
			ts := &smi.TrafficSplit{Name: SplitName(src, svc), RootService: svc, Backends: backends}
			if err := a.mesh.Splits().Create(ts); err != nil {
				return fmt.Errorf("dsb: create split %s: %w", ts.Name, err)
			}
		}
	}
	return nil
}

// Clusters returns the clusters the application is deployed into.
func (a *App) Clusters() []string {
	return append([]string(nil), a.clusters...)
}

// SetPickerAll installs the same routing strategy constructor on every
// service (one picker instance per service, so per-service state like
// round-robin counters stays isolated).
func (a *App) SetPickerAll(newPicker func(service string) mesh.Picker) error {
	for _, svc := range a.order {
		if err := a.mesh.SetPicker(svc, newPicker(svc)); err != nil {
			return err
		}
	}
	return nil
}

func (a *App) computeProfile(spec ServiceSpec, rng *sim.Rand) backend.Profile {
	dist := sim.NewLogNormalFromQuantiles(spec.ComputeMedian, spec.ComputeP99)
	if !a.options.perfVariation {
		return func(_ time.Duration, r *sim.Rand) (time.Duration, bool) {
			return dist.Sample(r), true
		}
	}
	n := int(perfHorizon/time.Second) + 1
	// Two components of multi-tenant noise: a mild drift of the whole
	// distribution, and degradation episodes that manifest as intermittent
	// stalls — a fraction of requests slowed by an order of magnitude —
	// which inflate the tail far more than the mean (the "tail at scale"
	// phenomenon the paper builds on).
	scale := trace.Walk(rng, time.Second, n, 0.9, 1.2, 0.1)
	stall := trace.EpisodeMultipliers(rng, time.Second, n, 12, 20, 45, 2.0, 3.5)
	// Rare but extreme stalls: ~3 % of requests during an episode slow by
	// an order of magnitude or more. An episode is glaring at the 99th
	// percentile yet barely moves the median, and lasts a few tens of
	// seconds — long enough for a fast controller (L3's 5 s half-life) to
	// steer around, short enough that a cautious one (C3's conservative
	// smoothing) mostly misses it.
	const stallProb = 0.03
	return func(now time.Duration, r *sim.Rand) (time.Duration, bool) {
		d := float64(dist.Sample(r)) * scale.At(now)
		if e := stall.At(now); e > 1.05 && r.Bool(stallProb) {
			d *= 1 + (e-1)*25
		}
		return time.Duration(d), true
	}
}

// appServer is one (service, cluster) deployment: local compute modelled by
// a replica pool, then the downstream call plan executed through the mesh
// from this server's own cluster.
type appServer struct {
	app     *App
	cluster string
	spec    ServiceSpec
	rng     *sim.Rand
	compute *backend.Replica
	free    []*handling
}

var _ mesh.Server = (*appServer)(nil)

// handling is the pooled state of one request being served. Its callbacks
// are bound when the record is first made, so serving evaluates no closure.
type handling struct {
	s       *appServer
	start   time.Duration
	done    func(backend.Result)
	stages  []Stage // the stage in flight, then those still to run
	ok      bool    // every finished stage succeeded
	pending int     // unanswered calls of the stage in flight
	stageOK bool    // none of its answered calls failed

	computed func(backend.Result) // local compute finished
	answered func(mesh.Result)    // one downstream call returned
}

// Serve implements mesh.Server. The reported Result.Latency spans the
// whole server-side handling — local compute plus downstream stages — so
// distributed-tracing spans carry the true execution duration of mid-tier
// services.
func (s *appServer) Serve(done func(backend.Result)) {
	var h *handling
	if n := len(s.free); n > 0 {
		h = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		h = &handling{s: s}
		h.computed, h.answered = h.onComputed, h.onAnswered
	}
	h.start, h.done = s.app.mesh.Engine().Now(), done
	s.compute.Serve(h.computed)
}

func (h *handling) onComputed(res backend.Result) {
	if res.Success && !res.Rejected {
		if v := h.s.pickVariant(); v != nil && len(v.Stages) > 0 {
			h.stages, h.ok = v.Stages, true
			h.runStage()
			return
		}
	}
	h.finish(res)
}

// finish stamps the handling time on res and completes the request,
// recycling the record first, as mesh's call does.
func (h *handling) finish(res backend.Result) {
	s, done := h.s, h.done
	res.Latency = s.app.mesh.Engine().Now() - h.start
	h.done, h.stages = nil, nil
	s.free = append(s.free, h)
	done(res)
}

func (s *appServer) pickVariant() *Variant {
	if len(s.spec.Variants) == 0 {
		return nil
	}
	if len(s.spec.Variants) == 1 {
		return &s.spec.Variants[0]
	}
	var total float64
	for i := range s.spec.Variants {
		total += s.spec.Variants[i].Weight
	}
	r := s.rng.Float64() * total
	for i := range s.spec.Variants {
		if r < s.spec.Variants[i].Weight {
			return &s.spec.Variants[i]
		}
		r -= s.spec.Variants[i].Weight
	}
	return &s.spec.Variants[len(s.spec.Variants)-1]
}

// runStage starts the first remaining stage: stages run sequentially, all
// calls of one stage in parallel. A request succeeds only if every
// downstream call succeeds.
func (h *handling) runStage() {
	for len(h.stages) > 0 && len(h.stages[0]) == 0 {
		h.stages = h.stages[1:]
	}
	if len(h.stages) == 0 {
		h.finish(backend.Result{Success: h.ok})
		return
	}
	stage := h.stages[0]
	h.pending, h.stageOK = len(stage), true
	for _, target := range stage {
		if err := h.s.app.mesh.Call(h.s.cluster, target, h.answered); err != nil {
			h.onAnswered(mesh.Result{})
		}
	}
}

func (h *handling) onAnswered(r mesh.Result) {
	if !r.Success {
		h.stageOK = false
	}
	h.pending--
	if h.pending == 0 {
		h.stages, h.ok = h.stages[1:], h.ok && h.stageOK
		h.runStage()
	}
}
