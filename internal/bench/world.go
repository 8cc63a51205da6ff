package bench

import (
	"fmt"
	"time"

	"l3/internal/loadgen"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/wan"
)

// world is one simulated testbed. Everything above it — backends, pickers,
// control plane, chaos, client layers, load generators — wires against these
// handles through mesh's per-cluster accessors (EngineFor, Proxy,
// SetShardPicker) and never learns which engine executes the run.
type world struct {
	mesh *mesh.Mesh
	wan  *wan.Model
	// rng is the run's root stream; the mesh's wiring stream is its first
	// fork, every later layer forks in wiring order.
	rng *sim.Rand
	// ctrl is the control timeline: scraper, controllers, electors, health
	// checker, watchdog and chaos injector schedule here. Classic, it is the
	// one engine; sharded, it is the control engine, which executes only at
	// barriers, so control code reads and writes cross-shard state safely.
	ctrl *sim.Engine
	// ctrlReg holds control-plane series (health ejections, guard
	// accounting). Classic shares the data-plane registry; sharded keeps
	// them off the shard registries, which shards write during windows.
	ctrlReg *metrics.Registry
	// scrape lists every registry of the run exactly once, data plane first
	// — what each scrape round reads and the end-of-run reduction sums.
	scrape []*metrics.Registry
	// runUntil advances the whole world to virtual time t.
	runUntil func(t time.Duration)
	// stats is the engine's self-accounting (classic fills Events only);
	// lookahead is the sharded window width, 0 classic.
	stats     func() sim.ShardStats
	lookahead time.Duration
}

// newWorld builds an empty testbed over the given clusters. opts.Shards ≤ 0
// yields the classic single-loop engine; N > 0 the sharded core — one
// logical shard per cluster on a sim.ShardedEngine whose lookahead is the WAN
// model's provable minimum one-way delay, with N capping the worker pool
// only, so output is byte-identical for every N. Both draw the mesh's wiring
// stream as the root stream's first fork, which is what lets a sharded run
// reproduce a classic one.
func newWorld(clusters []string, seed uint64, wcfg wan.Config, opts Options) (*world, error) {
	wcfg.Seed = seed
	w := &world{wan: wan.New(wcfg), rng: sim.NewRand(seed)}
	if opts.Shards <= 0 {
		engine, reg := sim.NewEngine(), metrics.NewRegistry()
		w.mesh = mesh.New(engine, w.rng.Fork(), w.wan, reg)
		w.ctrl, w.ctrlReg = engine, reg
		w.scrape = []*metrics.Registry{reg}
		w.runUntil = engine.RunUntil
		w.stats = func() sim.ShardStats { return sim.ShardStats{Events: engine.Fired()} }
		return w, nil
	}
	se := sim.NewSharded(len(clusters), w.wan.MinOneWayDelay())
	se.SetWorkers(opts.Shards)
	m, err := mesh.NewSharded(se, clusters, w.rng.Fork(), w.wan)
	if err != nil {
		return nil, err
	}
	w.mesh = m
	w.ctrl, w.ctrlReg = se.Control(), metrics.NewRegistry()
	w.scrape = append(m.Registries(), w.ctrlReg)
	w.runUntil, w.stats, w.lookahead = se.RunUntil, se.Stats, se.Lookahead()
	return w, nil
}

// setPickers installs one picker per shard timeline — stateful balancers
// must not be shared across concurrently executing shards; classic has one
// timeline and gets one picker. root is the service's fork off the root
// stream (nil for pickers that draw nothing): the classic picker takes it
// directly, sharded pickers each fork off it, so the root stream sits at the
// same position in both modes for the layers wired afterwards.
func (w *world) setPickers(service string, root *sim.Rand, mk func(*sim.Rand) mesh.Picker) error {
	for _, cl := range w.mesh.Clusters() {
		rng := root
		if root != nil && w.mesh.Sharded() {
			rng = root.Fork()
		}
		if err := w.mesh.SetShardPicker(service, cl, mk(rng)); err != nil {
			return err
		}
	}
	return nil
}

// directLoad starts a load generator in cluster src that calls service
// straight through src's proxy — no client layers — on src's timeline.
func (w *world) directLoad(src, service string, cfg loadgen.Config) (*loadgen.Generator, error) {
	proxy, err := w.mesh.Proxy(src)
	if err != nil {
		return nil, err
	}
	pool := &relays{}
	gen := loadgen.New(proxy.Engine(), cfg, func(done func(time.Duration, bool)) error {
		r := pool.get(done)
		return r.issued(proxy.Call(service, r.mesh))
	})
	gen.Start()
	return gen, nil
}

// scan snapshots the scrape set, registry by registry, through buf, hands
// each sample to each (when non-nil), and reports whether any
// request_inflight gauge read nonzero: an attempt the data plane has not
// answered.
func (w *world) scan(buf []metrics.Sample, each func(metrics.Sample)) ([]metrics.Sample, bool) {
	busy := false
	for _, reg := range w.scrape {
		buf = reg.SnapshotAppend(buf[:0])
		for _, sample := range buf {
			if sample.Name == mesh.MetricInflight && sample.Value != 0 {
				busy = true
			}
			if each != nil {
				each(sample)
			}
		}
	}
	return buf, busy
}

// settle checks request conservation at the end of a run, once its outputs
// are taken: every request the generators issued was rejected at issue or
// completes exactly once (a second completion panics in loadgen). A request
// may outlive the 30 s drain — scenario-4's service-time tail reaches
// minutes — so stragglers are run to completion first, unrecorded; one that
// a further day of virtual time does not complete is lost. When quiet is
// non-nil the run must also reach attempt conservation: quiet reports
// whether every request_inflight gauge reads zero, and an attempt still
// counted in flight after that day is an error too.
func (w *world) settle(quiet func() bool, gens ...*loadgen.Generator) error {
	for _, g := range gens {
		g.Close()
	}
	for start := w.ctrl.Now(); ; w.runUntil(w.ctrl.Now() + time.Minute) {
		var inFlight uint64
		for _, g := range gens {
			inFlight += g.Issued() - g.Completed() - g.IssueErrors()
		}
		if inFlight == 0 && (quiet == nil || quiet()) {
			return nil
		}
		if w.ctrl.Now() >= start+24*time.Hour {
			if inFlight > 0 {
				return fmt.Errorf("bench: request conservation violated: %d requests issued, never completed", inFlight)
			}
			return fmt.Errorf("bench: attempt conservation violated: a request_inflight gauge never returned to zero")
		}
	}
}
