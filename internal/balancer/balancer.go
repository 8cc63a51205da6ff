// Package balancer implements the data-plane load-balancing strategies the
// paper evaluates or builds on:
//
//   - RoundRobin — Linkerd's baseline strategy and the paper's primary
//     comparison point.
//   - WeightedSplit — proportional distribution over TrafficSplit weights,
//     the mechanism L3 (and the C3 adaptation) steer through.
//   - Filter — health-check failover and breaker ejection: a per-name
//     predicate in front of any of them.
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
// traffic. It picks through a Table, so backends absent from the split (or
// with all-zero weights) fall back to uniform selection, mirroring how a
// mesh treats an inert split.
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
	// backends is a copy of the slice table was resolved against, compared
	// element by element: a Filter passes one reused scratch slice whose
	// members change under the same first element and length.
	backends []*mesh.Backend
	table    Table
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
	if !slices.Equal(rt.backends, backends) {
		rt.backends = append(rt.backends[:0], backends...)
		rt.table.Resolve(rt.split, len(backends), func(i int) string { return backends[i].Name })
	}
	return backends[rt.table.Pick(w.rng, nil, -1)]
}

// Rand is a Table's random source: *sim.Rand on the simulated clock,
// math/rand/v2 on the wall clock.
type Rand interface {
	IntN(n int) int
	Float64() float64
}

// Table is one TrafficSplit's weights resolved by name against a backend
// list: the one weighted pick both clocks make. Pick never writes it, so a
// published table may be read from any goroutine.
type Table struct {
	weights []int64 // weights[i] is the split's weight for backend i
	total   int64   // their sum
	split   bool    // false: no split, every pick is uniform
}

// Resolve sets t, in place, to split's weights for n backends, backend i
// named name(i); a backend the split does not name weighs 0. A nil split is
// no split.
func (t *Table) Resolve(split *smi.TrafficSplit, n int, name func(i int) string) {
	t.weights, t.total, t.split = t.weights[:0], 0, split != nil
	for i := 0; i < n; i++ {
		var weight int64
		if split != nil {
			nm := name(i)
			for _, tb := range split.Backends {
				if tb.Service == nm {
					weight = tb.Weight
					break
				}
			}
		}
		t.weights = append(t.weights, weight)
		t.total += weight
	}
}

// Weight returns backend i's weight.
func (t *Table) Weight(i int) int64 { return t.weights[i] }

// Pick returns the index of the backend to send to, -1 over no backends.
// available(i) says whether backend i may take the request (nil: all may);
// avoid is an index to pass over (-1: none). The rule:
//
//  1. A is the available backends; if none is, A is all of them (fail open).
//  2. avoid leaves A, unless it is all A holds.
//  3. With no split, or when A's weights sum to 0, draw rng.IntN(|A|) over A.
//  4. Otherwise draw int64(rng.Float64()·Σ_A w) and scan A in order; a scan
//     that falls through takes A's last backend.
//
// available may be asked twice per backend; if its answers change under
// the pick (the wall clock), the pick is still one of the table's backends.
func (t *Table) Pick(rng Rand, available func(i int) bool, avoid int) int {
	n := len(t.weights)
	if n == 0 {
		return -1
	}
	count, sum := n, t.total
	if available != nil {
		count, sum = 0, 0
		for i, w := range t.weights {
			if available(i) {
				count++
				sum += w
			}
		}
		if count == 0 || count == n { // A is all of them
			available, count, sum = nil, n, t.total
		}
	}
	if avoid >= 0 && count > 1 && (available == nil || available(avoid)) {
		count, sum = count-1, sum-t.weights[avoid]
	} else {
		avoid = -1
	}
	weighted := t.split && sum > 0
	r := int64(0)
	if weighted {
		r = int64(rng.Float64() * float64(sum))
	} else {
		r = int64(rng.IntN(count))
	}
	last := n - 1
	for i, w := range t.weights {
		if i == avoid || available != nil && !available(i) {
			continue
		}
		if !weighted {
			w = 1
		}
		if r < w {
			return i
		}
		r, last = r-w, i
	}
	return last
}

// Filter hands an inner strategy only the backends a per-name predicate
// allows — health-check failover and breaker ejection are each one — and
// all of them when it allows none (fail open). It filters into one reused
// scratch slice, so it allocates nothing in the steady state, and is
// single-threaded like the mesh that calls it.
type Filter struct {
	allowed func(now time.Duration, name string) bool
	inner   mesh.Picker // nil: a uniform draw from rng
	rng     *sim.Rand
	scratch []*mesh.Backend
}

// NewFilter returns a Filter over inner; rng serves a nil inner.
func NewFilter(allowed func(now time.Duration, name string) bool, inner mesh.Picker, rng *sim.Rand) *Filter {
	return &Filter{allowed: allowed, inner: inner, rng: rng}
}

// Pick implements mesh.Picker.
func (f *Filter) Pick(now time.Duration, src, service string, backends []*mesh.Backend) *mesh.Backend {
	allowed := f.scratch[:0]
	for _, b := range backends {
		if f.allowed(now, b.Name) {
			allowed = append(allowed, b)
		}
	}
	f.scratch = allowed
	if len(allowed) == 0 {
		allowed = backends
	}
	if f.inner == nil {
		return allowed[f.rng.IntN(len(allowed))]
	}
	return f.inner.Pick(now, src, service, allowed)
}

// Observe implements mesh.Observer: P2C under a filter keeps learning.
func (f *Filter) Observe(now time.Duration, src, backendName string, latency time.Duration, success bool) {
	if obs, ok := f.inner.(mesh.Observer); ok {
		obs.Observe(now, src, backendName, latency, success)
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
	_ mesh.Picker   = (*Filter)(nil)
	_ mesh.Observer = (*Filter)(nil)
	_ mesh.Picker   = (*P2C)(nil)
	_ mesh.Observer = (*P2C)(nil)
)
