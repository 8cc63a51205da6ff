package cluster

import (
	"sync"
	"time"

	"l3/internal/clock"
	"l3/internal/sim"
)

// Lease is the shared lock record leader election competes over, mirroring
// the coordination.k8s.io Lease object: a holder identity plus renewal
// bookkeeping.
type Lease struct {
	Holder    string
	RenewedAt time.Duration
	Duration  time.Duration
}

// LeaseLock is the authoritative store of one Lease. Safe for concurrent
// use.
type LeaseLock struct {
	mu    sync.Mutex
	lease Lease
	held  bool
}

// NewLeaseLock returns an unheld lock.
func NewLeaseLock() *LeaseLock {
	return &LeaseLock{}
}

// TryAcquire attempts to take or renew the lease for id at virtual time
// now, with the given lease duration. It succeeds if the lease is unheld,
// expired, or already held by id (renewal).
func (l *LeaseLock) TryAcquire(id string, now, duration time.Duration) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.held && l.lease.Holder != id && now < l.lease.RenewedAt+l.lease.Duration {
		return false
	}
	l.held = true
	l.lease = Lease{Holder: id, RenewedAt: now, Duration: duration}
	return true
}

// Release gives up the lease if id holds it, letting another candidate
// acquire immediately.
func (l *LeaseLock) Release(id string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.held && l.lease.Holder == id {
		l.held = false
	}
}

// Holder returns the current holder and whether the lease is live at now.
func (l *LeaseLock) Holder(now time.Duration) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.held || now >= l.lease.RenewedAt+l.lease.Duration {
		return "", false
	}
	return l.lease.Holder, true
}

// Election timing, Kubernetes' defaults: an un-renewed lease stays valid for
// leaseDuration, the leader renews every renewInterval and a non-leader
// retries acquisition every retryInterval.
const (
	leaseDuration = 15 * time.Second
	renewInterval = 5 * time.Second
	retryInterval = 2 * time.Second
)

// Elector campaigns for a LeaseLock on the virtual clock. Only the leader
// replica of L3 writes TrafficSplit weights; standbys keep campaigning and
// take over when the leader stops renewing.
type Elector struct {
	engine  *sim.Engine
	lock    *LeaseLock
	id      string
	leading bool
	timer   clock.Timer
	stopped bool
}

// NewElector returns an elector for the candidate id (e.g. a pod name),
// which must not be empty; call Run to start campaigning.
func NewElector(engine *sim.Engine, lock *LeaseLock, id string) *Elector {
	if id == "" {
		panic("cluster: Elector requires an ID")
	}
	return &Elector{engine: engine, lock: lock, id: id}
}

// Run starts the campaign loop. The first acquisition attempt happens
// immediately (on the next engine step). Run after Stop or Crash resumes
// campaigning.
func (e *Elector) Run() {
	e.stopped = false
	e.engine.After(0, e.tick)
}

// Stop halts campaigning, releasing the lease if held.
func (e *Elector) Stop() {
	e.stopped = true
	if e.timer != nil {
		e.timer.Cancel()
	}
	if e.leading {
		e.leading = false
		e.lock.Release(e.id)
	}
}

// Crash halts campaigning without releasing the lease — the failure mode
// of a killed leader process. A held lease stays on the books until it
// expires, so standbys take over only after the lease TTL, matching
// Kubernetes leader-election semantics.
func (e *Elector) Crash() {
	e.stopped = true
	if e.timer != nil {
		e.timer.Cancel()
	}
	e.leading = false
}

// IsLeader reports whether this candidate currently holds the lease.
func (e *Elector) IsLeader() bool { return e.leading }

func (e *Elector) tick() {
	if e.stopped {
		return
	}
	e.leading = e.lock.TryAcquire(e.id, e.engine.Now(), leaseDuration)
	interval := retryInterval
	if e.leading {
		interval = renewInterval
	}
	e.timer = e.engine.After(interval, e.tick)
}
