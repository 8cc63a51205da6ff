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

// world is one simulated testbed: one engine runs the data plane and every
// control-plane component — backends, pickers, scraper, controllers, chaos,
// client layers, load generators — and one registry holds their series.
type world struct {
	engine *sim.Engine
	mesh   *mesh.Mesh
	wan    *wan.Model
	// rng is the run's root stream; the mesh's stream is its first fork,
	// every later layer forks in wiring order.
	rng *sim.Rand
}

// newWorld builds an empty testbed on the default WAN model, seeded by
// seed.
func newWorld(seed uint64) *world {
	wcfg := wan.DefaultConfig()
	wcfg.Seed = seed
	w := &world{engine: sim.NewEngine(), wan: wan.New(wcfg), rng: sim.NewRand(seed)}
	w.mesh = mesh.New(w.engine, w.rng.Fork(), w.wan, metrics.NewRegistry())
	return w
}

// directLoad starts a load generator in cluster src that calls service
// straight through the mesh — no client layers.
func (w *world) directLoad(src, service string, cfg loadgen.Config) *loadgen.Generator {
	pool := &relays{}
	gen := loadgen.New(w.engine, cfg, func(done func(time.Duration, bool)) error {
		r := pool.get(done)
		return r.issued(w.mesh.Call(src, service, r.mesh))
	})
	gen.Start()
	return gen
}

// scan snapshots the registry through buf, hands each sample to each (when
// non-nil), and reports whether any request_inflight gauge read nonzero: an
// attempt the data plane has not answered.
func (w *world) scan(buf []metrics.Sample, each func(metrics.Sample)) ([]metrics.Sample, bool) {
	busy := false
	buf = w.mesh.Registry().SnapshotAppend(buf[:0])
	for _, sample := range buf {
		if sample.Name == mesh.MetricInflight && sample.Value != 0 {
			busy = true
		}
		if each != nil {
			each(sample)
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
	for start := w.engine.Now(); ; w.engine.RunUntil(w.engine.Now() + time.Minute) {
		var inFlight uint64
		for _, g := range gens {
			inFlight += g.Issued() - g.Completed() - g.IssueErrors()
		}
		if inFlight == 0 && (quiet == nil || quiet()) {
			return nil
		}
		if w.engine.Now() >= start+24*time.Hour {
			if inFlight > 0 {
				return fmt.Errorf("bench: request conservation violated: %d requests issued, never completed", inFlight)
			}
			return fmt.Errorf("bench: attempt conservation violated: a request_inflight gauge never returned to zero")
		}
	}
}
