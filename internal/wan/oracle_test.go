package wan

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// oracle is the delay model as it was computed before links were resolved
// once: every query rehashes both cluster names and reads the fault from a
// locked map. It shares only the Model's configuration (seed, base RTT), so Link's precomputed base, hash and phase are checked against a
// fresh derivation on every query.
type oracle struct {
	m      *Model
	mu     sync.RWMutex
	faults map[linkKey]linkFault
}

func newOracle(m *Model) *oracle { return &oracle{m: m, faults: make(map[linkKey]linkFault)} }

func (o *oracle) inject(from, to string, extra time.Duration, partitioned bool, flap time.Duration) {
	o.mu.Lock()
	o.faults[linkKey{from, to}] = linkFault{extra: extra, partitioned: partitioned, flap: flap}
	o.mu.Unlock()
}

func (o *oracle) heal(from, to string) {
	o.mu.Lock()
	delete(o.faults, linkKey{from, to})
	o.mu.Unlock()
}

func (o *oracle) fault(from, to string) (linkFault, bool) {
	o.mu.RLock()
	f, ok := o.faults[linkKey{from, to}]
	o.mu.RUnlock()
	return f, ok
}

func (o *oracle) partitioned(from, to string) bool {
	if from == to {
		return false
	}
	f, ok := o.fault(from, to)
	return ok && f.partitioned
}

func (o *oracle) oneWayDelay(from, to string, t time.Duration) time.Duration {
	m := o.m
	if from == to {
		return localDelay
	}
	base := m.BaseRTT(from, to) / 2

	h := hash3(m.cfg.Seed, from, to)
	phase := float64(h%10000) / 10000 * 2 * math.Pi
	drift := math.Sin(2*math.Pi*t.Seconds()/60 + phase)
	noise := hashUnit(h, uint64(t/time.Millisecond))*2 - 1

	jitter := jitterFraction * (0.7*drift + 0.3*noise)

	epoch := uint64(t / pathShiftInterval)
	pathExtra := hashUnit(h^0xabcdef, epoch) * pathShiftFraction

	d := float64(base) * (1 + jitter + pathExtra)
	if d < float64(localDelay) {
		d = float64(localDelay)
	}
	if f, ok := o.fault(from, to); ok && f.extra > 0 {
		if f.flap <= 0 || uint64(t/f.flap)%2 == 0 {
			d += float64(f.extra)
		}
	}
	return time.Duration(d)
}

var oracleClusters = []string{"cluster-1", "cluster-2", "cluster-3", "eu-west"}

// oracleModels are the configurations the streams run on: the default, a
// long base RTT, and a base RTT short enough (1 ms, below the 1.25 ms at
// which the jitter reaches under the local delay) that the formula often
// falls under the local floor.
func oracleModels(seed uint64) []*Model {
	cfg := DefaultConfig()
	cfg.Seed = seed
	long := cfg
	long.BaseRTT = 80 * time.Millisecond
	short := cfg
	short.BaseRTT = time.Millisecond
	return []*Model{New(cfg), New(long), New(short)}
}

// TestLinkMatchesPerQueryOracle drives seeded streams of fault injections,
// heals, re-injections and delay queries through both the oracle and the
// model — via links held from before the first fault and via the Model's
// per-call wrappers — and requires every delay bit for bit and every
// partition verdict to agree.
func TestLinkMatchesPerQueryOracle(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for mi, m := range oracleModels(seed) {
			o := newOracle(m)
			held := make(map[linkKey]*Link)
			for _, a := range oracleClusters {
				for _, b := range oracleClusters {
					held[linkKey{a, b}] = m.Link(a, b)
				}
			}
			rng := rand.New(rand.NewPCG(seed, uint64(mi)))
			pick := func() string { return oracleClusters[rng.IntN(len(oracleClusters))] }
			var at time.Duration
			for step := 0; step < 20_000; step++ {
				from, to := pick(), pick()
				if rng.IntN(8) == 0 {
					from = to // intra-cluster: faults must not touch it
				}
				switch op := rng.IntN(20); {
				case op == 0: // partition
					m.InjectLinkFault(from, to, 0, true, 0)
					o.inject(from, to, 0, true, 0)
				case op == 1: // extra delay (none or negative too), maybe flapping, maybe partitioned
					extra := time.Duration(rng.IntN(5)-1) * 7 * time.Millisecond
					var flap time.Duration
					if rng.IntN(2) == 0 {
						flap = time.Duration(1+rng.IntN(20)) * 500 * time.Millisecond
					}
					part := rng.IntN(4) == 0
					m.InjectLinkFault(from, to, extra, part, flap)
					o.inject(from, to, extra, part, flap)
				case op == 2:
					m.HealLinkFault(from, to)
					o.heal(from, to)
				default:
					// Mostly forward in time, sometimes far ahead, sometimes back.
					switch rng.IntN(10) {
					case 0:
						at = time.Duration(rng.Int64N(int64(48 * time.Hour)))
					case 1:
						at = time.Duration(rng.Int64N(int64(at) + 1))
					default:
						at += time.Duration(rng.Int64N(int64(1500 * time.Millisecond)))
					}
					want := o.oneWayDelay(from, to, at)
					if got := held[linkKey{from, to}].Delay(at); got != want {
						t.Fatalf("seed %d model %d step %d: held %s→%s Delay(%v) = %v, oracle %v", seed, mi, step, from, to, at, got, want)
					}
					if got := m.OneWayDelay(from, to, at); got != want {
						t.Fatalf("seed %d model %d step %d: OneWayDelay(%s, %s, %v) = %v, oracle %v", seed, mi, step, from, to, at, got, want)
					}
				}
				want := o.partitioned(from, to)
				if got := held[linkKey{from, to}].Partitioned(); got != want {
					t.Fatalf("seed %d model %d step %d: held %s→%s Partitioned = %v, oracle %v", seed, mi, step, from, to, got, want)
				}
				if got := m.Partitioned(from, to); got != want {
					t.Fatalf("seed %d model %d step %d: Partitioned(%s, %s) = %v, oracle %v", seed, mi, step, from, to, got, want)
				}
			}
		}
	}
}

// TestLinkIsResolvedOnce pins the handle contract the mesh relies on: one
// pointer per directed link for the model's lifetime, faults included.
func TestLinkIsResolvedOnce(t *testing.T) {
	m := New(DefaultConfig())
	l := m.Link("c1", "c2")
	m.InjectLinkFault("c1", "c2", 0, true, 0)
	m.HealLinkFault("c1", "c2")
	if m.Link("c1", "c2") != l {
		t.Fatal("Link returned a second handle for the same directed link")
	}
	if m.Link("c2", "c1") == l {
		t.Fatal("the two directions of a link share a handle")
	}
}
