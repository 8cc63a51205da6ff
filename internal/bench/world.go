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

// settle checks request and attempt conservation at the end of a run, once
// its outputs are taken: every request the generators issued was rejected
// at issue or completes exactly once (a second completion panics in
// loadgen), and every request_inflight gauge returns to zero. A request may
// outlive the 30 s drain — scenario-4's service-time tail reaches minutes —
// so stragglers are run to completion first, unrecorded; a request or an
// attempt that a further day of virtual time does not complete is lost.
// The run's control plane (h, nil for none) is stopped first: nothing reads
// its output any more, and without its timers that day passes in a few
// steps, so a violation is as cheap to report as a pass.
func (w *world) settle(h *algoHandles, gens ...*loadgen.Generator) error {
	if h != nil && h.plane != nil {
		h.plane.Stop()
	}
	for _, g := range gens {
		g.Close()
	}
	for start := w.engine.Now(); ; w.engine.RunUntil(w.engine.Now() + time.Minute) {
		var inFlight uint64
		for _, g := range gens {
			inFlight += g.Issued() - g.Completed() - g.IssueErrors()
		}
		if inFlight == 0 && w.mesh.Quiet() {
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
