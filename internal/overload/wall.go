package overload

import (
	"context"
	"sync"
	"time"
)

// WallAdmitter is the proxy's admission gate: the admission core on the
// wall clock, under one mutex, with per-backend adaptive limiters summed
// into its concurrency budget. The no-queueing fast path (tier admitted,
// slot free) is one mutex hold over plain counters — zero allocations.
// A queued request parks on a pooled one-slot channel, into which the core
// sends its verdict under the mutex.
type WallAdmitter struct {
	mu       sync.Mutex
	base     time.Time // wall origin for the duration-typed control laws
	limiters []Limiter
	q        *queue[chan Verdict]
	pool     sync.Pool
}

// NewWallAdmitter returns an admitter for nBackends upstream backends
// under p (which must be Enabled). base anchors the wall clock; pass the
// server's start time.
func NewWallAdmitter(p Policy, nBackends int, base time.Time) *WallAdmitter {
	p = p.withDefaults()
	a := &WallAdmitter{
		base:     base,
		limiters: make([]Limiter, max(nBackends, 1)),
		q:        newQueue(p, func(w chan Verdict, v Verdict) { w <- v }),
	}
	for i := range a.limiters {
		a.limiters[i] = NewLimiter(p.Limiter)
		a.q.limit += a.limiters[i].Limit()
	}
	a.pool.New = func() any { return make(chan Verdict, 1) }
	return a
}

// Admit decides one request carrying a criticality tier. Admitted grants a
// slot the caller must Release; every other verdict is a rejection. When
// the limit is reached the caller parks in the admission queue until a
// slot frees, the drop law rejects it, shutdown flushes it, or ctx ends.
func (a *WallAdmitter) Admit(ctx context.Context, now time.Time, tier int) Verdict {
	tier = clampTier(tier)
	rel := now.Sub(a.base)
	a.mu.Lock()
	v := a.q.admit(rel, tier)
	if v != queued {
		a.mu.Unlock()
		return v
	}
	w := a.pool.Get().(chan Verdict)
	a.q.enqueue(rel, tier, w)
	a.mu.Unlock()

	select {
	case v = <-w:
	case <-ctx.Done():
		a.mu.Lock()
		if a.q.cancel(w) {
			v = ShedCanceled
		} else if v = <-w; v == Admitted {
			// The verdict was sent under a.mu before we took it, so the
			// receive cannot block. A grant goes back: the request left, and
			// it counts once, as a canceled shed.
			a.q.revoke(time.Since(a.base), tier)
			v = ShedCanceled
		}
		a.mu.Unlock()
	}
	a.pool.Put(w)
	return v
}

// Release returns an admitted request's slot and wakes queued waiters into
// the freed capacity.
func (a *WallAdmitter) Release() {
	now := time.Now()
	a.mu.Lock()
	a.q.release()
	a.q.drain(now.Sub(a.base))
	a.mu.Unlock()
}

// Observe feeds one upstream response into the backend's limiter and
// refreshes the aggregate limit. A false ok (transport error, 5xx,
// timeout) is the AIMD decrease signal.
func (a *WallAdmitter) Observe(backend int, rtt time.Duration, ok bool) {
	now := time.Now()
	a.mu.Lock()
	if backend >= 0 && backend < len(a.limiters) {
		l := &a.limiters[backend]
		old := l.Limit()
		l.Observe(rtt, ok)
		a.q.limit += l.Limit() - old
	}
	// A raised limit may free capacity for queued waiters.
	a.q.drain(now.Sub(a.base))
	a.mu.Unlock()
}

// DrainFlush rejects every queued waiter with ShedDraining and stops
// admitting — the shutdown path, so a drain never strands goroutines in
// the admission queue.
func (a *WallAdmitter) DrainFlush() {
	a.mu.Lock()
	a.q.close()
	a.mu.Unlock()
}

// Stats snapshots the admitter's counters.
func (a *WallAdmitter) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.q.snapshot()
}
