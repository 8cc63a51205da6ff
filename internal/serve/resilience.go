package serve

import (
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"l3/internal/metrics"
	"l3/internal/resilience"
)

// wallResilience runs internal/resilience's Core — the retry budget, circuit
// breaker, hedge-delay learner and deadline math behind the simulator's
// figures R1–R3 — on the proxy's clock, the way overload.WallAdmitter runs
// Limiter, CoDel and TierGate. The core's state is touched under one mutex:
// on the request-start and response paths and by the retry and hedge
// decisions between them. Picks never take it: every ejection's end is
// published in the backend's openUntil atomic, which Router.Pick reads.
type wallResilience struct {
	mu   sync.Mutex
	core *resilience.Core

	// policy is the core's resolved policy, immutable, read without mu.
	policy resilience.Policy
}

// newWallResilience resolves p for the service over its backends and wires
// each backend's Record to the core.
func newWallResilience(p resilience.Policy, service string, backends []*Backend, reg *metrics.Registry) *wallResilience {
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name
	}
	core := resilience.NewCore(p, service, names, reg)
	r := &wallResilience{core: core, policy: core.Policy()}
	for _, b := range backends {
		b.res = r
	}
	return r
}

// deadline resolves a request's absolute deadline at now on the proxy clock
// from the budget its X-L3-Deadline header carried (0 = none): the tighter of
// that and the policy's own, 0 for none.
func (r *wallResilience) deadline(now, budget time.Duration) time.Duration {
	var inherited time.Duration
	if budget > 0 {
		inherited = now + min(budget, math.MaxInt64-now)
	}
	return r.core.Deadline(now, inherited)
}

// start is the request-start path of an admitted request: counted, its
// budget share deposited. It returns the hedge delay (0 = no hedge).
func (r *wallResilience) start(now, deadline time.Duration) time.Duration {
	r.mu.Lock()
	r.core.Start()
	d := r.core.HedgeAfter(now, deadline)
	r.mu.Unlock()
	return d
}

// retry decides whether a request that has launched attempts, all failed,
// tries again at now: the jittered backoff to wait, the nominal backoff of
// the retry after it, and the verdict (see resilience.Core.Retry).
func (r *wallResilience) retry(now time.Duration, attempts int, wait, deadline time.Duration) (after, next time.Duration, ok bool) {
	u := rand.Float64()
	r.mu.Lock()
	after, next, ok = r.core.Retry(now, attempts, wait, deadline, u)
	r.mu.Unlock()
	return after, next, ok
}

// hedge decides whether a hedge may launch, paying its budget token.
func (r *wallResilience) hedge() bool {
	r.mu.Lock()
	ok := r.core.Hedge()
	r.mu.Unlock()
	return ok
}

// response is the response path: one attempt's outcome at now feeds the
// breaker and the hedge learner, and an ejection it opens is published.
func (r *wallResilience) response(b *Backend, now, latency time.Duration, ok bool) {
	r.mu.Lock()
	if br := r.core.Breaker(); !ok && br != nil {
		// Picks read openUntil and never consult the breaker, so its expired
		// windows are restored here, before the max-ejection-percent guard
		// counts them.
		br.EjectedCount(now)
	}
	if until := r.core.Result(now, b.Name, latency, ok); until > 0 {
		b.openUntil.Store(int64(until))
	}
	r.mu.Unlock()
}
