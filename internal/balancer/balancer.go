// Package balancer implements the data-plane load-balancing strategies the
// paper evaluates or builds on:
//
//   - RoundRobin — Linkerd's baseline strategy and the paper's primary
//     comparison point.
//   - WeightedSplit — proportional distribution over TrafficSplit weights,
//     the mechanism L3 (and the C3 adaptation) steer through.
//   - P2C — power-of-two-choices over PeakEWMA-scored backends, Linkerd's
//     in-cluster per-request balancer, kept as an ablation baseline.
package balancer

import (
	"slices"
	"time"

	"l3/internal/ewma"
	"l3/internal/mesh"
	"l3/internal/sim"
	"l3/internal/smi"
)

// routeKey identifies per-(source cluster, service/backend) picker state
// without building a string per request: struct keys hash directly.
type routeKey struct {
	src  string
	name string
}

// RoundRobin cycles through a service's backends in order. State is kept
// per (source cluster, service) — one counter per client proxy, like a real
// mesh — and the strategy is deterministic. Counters are held by pointer so
// a pick hashes its key once.
type RoundRobin struct {
	counters map[routeKey]*int
}

// NewRoundRobin returns a fresh round-robin picker.
func NewRoundRobin() *RoundRobin {
	return &RoundRobin{counters: make(map[routeKey]*int)}
}

// Pick implements mesh.Picker.
func (r *RoundRobin) Pick(_ time.Duration, src, service string, backends []*mesh.Backend) *mesh.Backend {
	if len(backends) == 0 {
		return nil
	}
	n := r.counters[routeKey{src, service}]
	if n == nil {
		n = new(int)
		r.counters[routeKey{src, service}] = n
	}
	i := *n % len(backends)
	*n++
	return backends[i]
}

// WeightedSplit distributes requests proportionally to the weights of the
// service's TrafficSplit, implementing the SMI contract the paper's data
// plane enforces: a backend with twice the weight receives twice the
// traffic. Backends absent from the split (or with all-zero weights) fall
// back to uniform selection, mirroring how a mesh treats an inert split.
//
// Like a proxy that holds the current weights and is told when they change,
// the picker reads the store once per split write, not once per request, and
// keeps the stored version it read: a write to another split hands back the
// same version, which needs no resolving again. Like the mesh that calls it,
// a picker is single-threaded.
type WeightedSplit struct {
	splits *smi.Store
	name   func(src, service string) string
	rng    *sim.Rand
	routes map[routeKey]*splitRoute
}

// splitRoute is one (source cluster, service)'s split, resolved against the
// backend slice Pick was last handed.
type splitRoute struct {
	name    string            // the governing TrafficSplit, from WeightedSplit.name
	version uint64            // store version split was read at
	split   *smi.TrafficSplit // the stored version; nil while the store holds none under name
	// weights[i] is split's weight for backends[i], total their sum.
	// backends is a copy, compared element by element: filtering pickers
	// (breaker, failover) pass one reused scratch slice whose members change
	// under the same first element and length.
	backends []*mesh.Backend
	weights  []int64
	total    int64
}

// NewWeightedSplit returns a picker reading weights from splits. splitName
// maps (source cluster, service) to a TrafficSplit name; nil means a single
// global split named after the service. Multi-cluster deployments that run
// one L3 per cluster (as §3 describes for production) use per-source names
// so every cluster's split reflects latency as measured from that cluster.
func NewWeightedSplit(splits *smi.Store, rng *sim.Rand, splitName func(src, service string) string) *WeightedSplit {
	if splitName == nil {
		splitName = func(_, s string) string { return s }
	}
	return &WeightedSplit{splits: splits, name: splitName, rng: rng, routes: make(map[routeKey]*splitRoute)}
}

// Pick implements mesh.Picker.
func (w *WeightedSplit) Pick(_ time.Duration, src, service string, backends []*mesh.Backend) *mesh.Backend {
	if len(backends) == 0 {
		return nil
	}
	rt := w.routes[routeKey{src, service}]
	// The version is read before the split, so a write that lands in between
	// is seen again — and the split re-read — on the next pick.
	if v := w.splits.ResourceVersion(); rt == nil || v != rt.version {
		if rt == nil {
			rt = &splitRoute{name: w.name(src, service)}
			w.routes[routeKey{src, service}] = rt
		}
		rt.version = v
		if ts, _ := w.splits.Get(rt.name); ts != rt.split {
			rt.split, rt.backends = ts, rt.backends[:0]
		}
	}
	if rt.split == nil {
		return backends[w.rng.IntN(len(backends))]
	}
	if !slices.Equal(rt.backends, backends) {
		rt.resolve(backends)
	}
	if rt.total <= 0 {
		return backends[w.rng.IntN(len(backends))]
	}
	r := int64(w.rng.Float64() * float64(rt.total))
	for i, b := range backends {
		if r < rt.weights[i] {
			return b
		}
		r -= rt.weights[i]
	}
	return backends[len(backends)-1]
}

// resolve matches the split's weights to backends by name, in place.
func (rt *splitRoute) resolve(backends []*mesh.Backend) {
	rt.backends = append(rt.backends[:0], backends...)
	rt.weights, rt.total = rt.weights[:0], 0
	for _, b := range backends {
		var weight int64
		for _, tb := range rt.split.Backends {
			if tb.Service == b.Name {
				weight = tb.Weight
				break
			}
		}
		rt.weights = append(rt.weights, weight)
		rt.total += weight
	}
}

// P2C is the power-of-two-choices balancer over peak-EWMA latency scores
// that Linkerd applies within a cluster: sample two distinct backends, send
// to the one with the lower cost, where cost is the PeakEWMA of observed
// latency multiplied by the number of outstanding requests plus one. It
// implements mesh.Observer to learn from responses.
type P2C struct {
	rng      *sim.Rand
	halfLife time.Duration
	defaultL float64
	state    map[routeKey]*p2cState
}

type p2cState struct {
	latency  *ewma.PeakEWMA
	inflight int
}

// NewP2C returns a P2C picker. halfLife controls latency memory (Linkerd
// uses a few seconds); defaultLatency seeds unobserved backends.
func NewP2C(rng *sim.Rand, halfLife, defaultLatency time.Duration) *P2C {
	if halfLife <= 0 {
		halfLife = 5 * time.Second
	}
	if defaultLatency <= 0 {
		defaultLatency = time.Second
	}
	return &P2C{
		rng:      rng,
		halfLife: halfLife,
		defaultL: defaultLatency.Seconds(),
		state:    make(map[routeKey]*p2cState),
	}
}

func (p *P2C) stateFor(src, name string) *p2cState {
	key := routeKey{src, name}
	s, ok := p.state[key]
	if !ok {
		s = &p2cState{latency: ewma.NewPeak(p.halfLife, p.defaultL)}
		p.state[key] = s
	}
	return s
}

func (p *P2C) cost(src, name string) float64 {
	s := p.stateFor(src, name)
	return s.latency.Value() * float64(s.inflight+1)
}

// Pick implements mesh.Picker.
func (p *P2C) Pick(_ time.Duration, src, _ string, backends []*mesh.Backend) *mesh.Backend {
	if len(backends) == 0 {
		return nil
	}
	var chosen *mesh.Backend
	if len(backends) == 1 {
		chosen = backends[0]
	} else {
		i := p.rng.IntN(len(backends))
		j := p.rng.IntN(len(backends) - 1)
		if j >= i {
			j++
		}
		chosen = backends[i]
		if p.cost(src, backends[j].Name) < p.cost(src, backends[i].Name) {
			chosen = backends[j]
		}
	}
	p.stateFor(src, chosen.Name).inflight++
	return chosen
}

// Observe implements mesh.Observer.
func (p *P2C) Observe(now time.Duration, src, backendName string, latency time.Duration, _ bool) {
	s := p.stateFor(src, backendName)
	if s.inflight > 0 {
		s.inflight--
	}
	s.latency.Observe(now, latency.Seconds())
}

var (
	_ mesh.Picker   = (*RoundRobin)(nil)
	_ mesh.Picker   = (*WeightedSplit)(nil)
	_ mesh.Picker   = (*P2C)(nil)
	_ mesh.Observer = (*P2C)(nil)
)
