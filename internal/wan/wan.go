// Package wan models the wide-area network between clusters: a base
// round-trip-time matrix plus the two dynamics §2.1 of the paper calls out
// as sources of latency variability — links whose latency varies over time
// (Jin et al.) and inter-cluster routing paths that change every couple of
// seconds (Reda et al.).
//
// The model is deterministic: jitter and path shifts are derived from a
// seeded hash of (link, time epoch), so the same seed reproduces the same
// delay series without the model keeping per-query state.
//
// On top of the statistical dynamics, the model exposes structural fault
// hooks for chaos engineering (internal/chaos): a directed link can be
// partitioned (blackholed), given a fixed extra delay, or made to flap
// between its normal and degraded path. Fault state is the only mutable part
// of a Model; each directed Link holds its own, swapped atomically.
package wan

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterises a Model.
type Config struct {
	// BaseRTT is the symmetric base round-trip time between distinct
	// clusters. The paper's testbed measured ~10 ms between its EU regions.
	BaseRTT time.Duration
	// Seed makes the jitter process reproducible.
	Seed uint64
}

// DefaultConfig mirrors the paper's testbed: ~10 ms inter-cluster RTT.
func DefaultConfig() Config {
	return Config{BaseRTT: 10 * time.Millisecond, Seed: 1}
}

// The delay dynamics, relative to a link's base delay: moderate jitter and
// path shifts every few seconds.
const (
	// jitterFraction scales sinusoidal-plus-noise jitter (±~20 %).
	jitterFraction = 0.2
	// pathShiftInterval is how often a link may jump to a different
	// routing path (a couple of seconds per the paper's reference [45]).
	pathShiftInterval = 3 * time.Second
	// pathShiftFraction is the largest extra delay a path change adds.
	pathShiftFraction = 0.5
	// localDelay is the intra-cluster one-way delay, covering the
	// node-local proxy hop the Linkerd benchmark study reports as
	// sub-millisecond at the median; no delay falls below it.
	localDelay = 500 * time.Microsecond
)

// Model answers "what is the one-way network delay from cluster A to
// cluster B at virtual time t". Intra-cluster delay is a small constant.
// Model is immutable after construction except for injected link faults, and
// safe for concurrent use.
type Model struct {
	cfg Config

	mu    sync.Mutex // guards links
	links map[linkKey]*Link
}

// linkFault is the injected structural state of one directed link.
type linkFault struct {
	extra       time.Duration
	partitioned bool
	flap        time.Duration
}

type linkKey struct{ from, to string }

// Link is one directed link of a Model, resolved once: everything the delay
// formula derives from the link's names is computed when the link is first
// asked for, so a hop through a held Link hashes no string and takes no
// lock. The injected fault is the only mutable part, swapped atomically, so
// a Link is safe for concurrent use.
type Link struct {
	m     *Model
	intra bool          // from == to: the constant local delay, never faulted
	base  time.Duration // half the link's base RTT
	hash  uint64        // seeded hash of (from, to)
	phase float64       // the drift's phase, from hash
	fault atomic.Pointer[linkFault]
}

// New returns a Model.
func New(cfg Config) *Model {
	if cfg.BaseRTT <= 0 {
		cfg.BaseRTT = 10 * time.Millisecond
	}
	return &Model{cfg: cfg, links: make(map[linkKey]*Link)}
}

// BaseRTT returns the base round-trip time of a link.
func (m *Model) BaseRTT(from, to string) time.Duration {
	if from == to {
		return 2 * localDelay
	}
	return m.cfg.BaseRTT
}

// Link returns the directed link from→to, creating it on first use. The same
// pointer is returned for the model's lifetime, so hot paths resolve their
// links once and hold them.
func (m *Model) Link(from, to string) *Link {
	k := linkKey{from, to}
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.links[k]
	if l == nil {
		h := hash3(m.cfg.Seed, from, to)
		l = &Link{
			m: m, intra: from == to, base: m.BaseRTT(from, to) / 2,
			hash: h, phase: float64(h%10000) / 10000 * 2 * math.Pi,
		}
		m.links[k] = l
	}
	return l
}

// InjectLinkFault installs a structural fault on the directed link from→to,
// replacing any previous fault on it: extra is a fixed added one-way delay,
// partitioned blackholes the link entirely (Partitioned reports true and
// transit never completes), and a positive flap makes the extra delay apply
// only in alternating flap-length epochs — a routing path bouncing between a
// short and a long route. Intra-cluster traffic is never faulted. It
// implements the link-injector hook of internal/chaos.
func (m *Model) InjectLinkFault(from, to string, extra time.Duration, partitioned bool, flap time.Duration) {
	if from == to {
		return
	}
	m.Link(from, to).fault.Store(&linkFault{extra: extra, partitioned: partitioned, flap: flap})
}

// HealLinkFault removes any injected fault from the directed link from→to.
func (m *Model) HealLinkFault(from, to string) { m.Link(from, to).fault.Store(nil) }

// Partitioned reports whether the directed link from→to is currently
// blackholed by an injected fault.
func (m *Model) Partitioned(from, to string) bool { return m.Link(from, to).Partitioned() }

// OneWayDelay returns the one-way delay from cluster from to cluster to at
// virtual time t; see Link.Delay.
func (m *Model) OneWayDelay(from, to string, t time.Duration) time.Duration {
	return m.Link(from, to).Delay(t)
}

// Partitioned reports whether the link is currently blackholed by an
// injected fault. Intra-cluster links never partition.
func (l *Link) Partitioned() bool {
	f := l.fault.Load()
	return f != nil && f.partitioned
}

// Delay returns the link's one-way delay at virtual time t, including jitter
// and path-shift dynamics. Absent injected faults the value is a pure
// function of (from, to, t, seed).
func (l *Link) Delay(t time.Duration) time.Duration {
	if l.intra {
		return localDelay
	}

	// Slow sinusoidal drift plus per-query hash noise.
	drift := math.Sin(2*math.Pi*t.Seconds()/60 + l.phase) // ±1 over a minute
	noise := hashUnit(l.hash, uint64(t/time.Millisecond))*2 - 1

	jitter := jitterFraction * (0.7*drift + 0.3*noise)

	// Path shifts: every pathShiftInterval the link picks one of several
	// "paths" with distinct extra delay.
	epoch := uint64(t / pathShiftInterval)
	pathExtra := hashUnit(l.hash^0xabcdef, epoch) * pathShiftFraction

	d := float64(l.base) * (1 + jitter + pathExtra)
	if d < float64(localDelay) {
		d = float64(localDelay)
	}
	if f := l.fault.Load(); f != nil && f.extra > 0 {
		if f.flap <= 0 || uint64(t/f.flap)%2 == 0 {
			d += float64(f.extra)
		}
	}
	return time.Duration(d)
}

// String describes the model briefly.
func (m *Model) String() string {
	return fmt.Sprintf("wan{base=%v jitter=%.0f%% shift=%v}",
		m.cfg.BaseRTT, jitterFraction*100, pathShiftInterval)
}

// hash3 mixes the seed with two strings (FNV-1a over both).
func hash3(seed uint64, a, b string) uint64 {
	h := seed ^ 14695981039346656037
	for _, s := range []string{a, "\x00", b} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	return h
}

// hashUnit maps (h, x) deterministically to [0, 1).
func hashUnit(h, x uint64) float64 {
	z := h ^ (x * 0x9e3779b97f4a7c15)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
