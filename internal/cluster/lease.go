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

// ElectorConfig parameterises an Elector.
type ElectorConfig struct {
	// ID identifies this candidate (e.g. pod name). Required.
	ID string
	// LeaseDuration is how long an un-renewed lease stays valid
	// (default 15 s, Kubernetes' default).
	LeaseDuration time.Duration
	// RenewInterval is how often the leader renews (default 5 s).
	RenewInterval time.Duration
	// RetryInterval is how often a non-leader retries acquisition
	// (default 2 s).
	RetryInterval time.Duration
	// OnStartedLeading fires when this candidate becomes leader.
	OnStartedLeading func()
	// OnStoppedLeading fires when leadership is lost or resigned.
	OnStoppedLeading func()
}

// Elector campaigns for a LeaseLock on the virtual clock. Only the leader
// replica of L3 writes TrafficSplit weights; standbys keep campaigning and
// take over when the leader stops renewing.
type Elector struct {
	engine  *sim.Engine
	lock    *LeaseLock
	cfg     ElectorConfig
	leading bool
	timer   clock.Timer
	stopped bool
}

// NewElector returns an elector; call Run to start campaigning.
func NewElector(engine *sim.Engine, lock *LeaseLock, cfg ElectorConfig) *Elector {
	if cfg.ID == "" {
		panic("cluster: Elector requires an ID")
	}
	if cfg.LeaseDuration <= 0 {
		cfg.LeaseDuration = 15 * time.Second
	}
	if cfg.RenewInterval <= 0 {
		cfg.RenewInterval = 5 * time.Second
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 2 * time.Second
	}
	return &Elector{engine: engine, lock: lock, cfg: cfg}
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
		e.lock.Release(e.cfg.ID)
		if e.cfg.OnStoppedLeading != nil {
			e.cfg.OnStoppedLeading()
		}
	}
}

// Crash halts campaigning without releasing the lease and without firing
// OnStoppedLeading — the failure mode of a killed leader process. A held
// lease stays on the books until it expires, so standbys take over only
// after the lease TTL, matching Kubernetes leader-election semantics.
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
	now := e.engine.Now()
	acquired := e.lock.TryAcquire(e.cfg.ID, now, e.cfg.LeaseDuration)
	switch {
	case acquired && !e.leading:
		e.leading = true
		if e.cfg.OnStartedLeading != nil {
			e.cfg.OnStartedLeading()
		}
	case !acquired && e.leading:
		e.leading = false
		if e.cfg.OnStoppedLeading != nil {
			e.cfg.OnStoppedLeading()
		}
	}
	interval := e.cfg.RetryInterval
	if e.leading {
		interval = e.cfg.RenewInterval
	}
	e.timer = e.engine.After(interval, e.tick)
}
