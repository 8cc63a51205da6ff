// Package backend models a service deployment receiving traffic: a pool of
// concurrent workers fed by a FIFO queue, whose intrinsic service time and
// success probability follow a pluggable, time-varying Profile. Queueing is
// what makes overload visible: as offered load approaches the worker pool's
// capacity, queue wait inflates observed latency — the saturation behaviour
// L3's rate controller exists to avoid (§3.2) and that the paper observed
// near 1000 RPS on its testbed (§5.3.1).
package backend

import (
	"fmt"
	"time"

	"l3/internal/sim"
)

// Result is the outcome of one served (or rejected) request, as seen at the
// backend: Latency covers queue wait plus execution, not network transit.
type Result struct {
	Latency  time.Duration
	Success  bool
	Rejected bool // true when shed due to a full queue
}

// Profile draws the intrinsic behaviour of the backend for one request
// arriving at virtual time now: its execution time and whether it succeeds.
type Profile func(now time.Duration, rng *sim.Rand) (exec time.Duration, success bool)

// Config parameterises a Replica.
type Config struct {
	// Name identifies the deployment (for errors and instrumentation).
	Name string
	// Concurrency is the number of requests executed in parallel
	// (default 64 — several replicas' worth of request workers).
	Concurrency int
	// QueueCapacity bounds the wait queue; requests beyond it are shed
	// with Rejected results (default 4096).
	QueueCapacity int
}

// Replica is one backend deployment. It is event-driven on the engine and
// not safe for concurrent use (the simulation is single-threaded).
type Replica struct {
	engine  *sim.Engine
	rng     *sim.Rand
	cfg     Config
	profile Profile

	busy  int
	queue []queued

	// down marks a crashed deployment: requests fail fast (connection
	// refused) until Restart. epoch invalidates executions that were
	// in-flight when the crash hit.
	down  bool
	epoch uint64

	served   uint64
	rejected uint64
	maxQueue int

	// freeExecs recycles per-request execution state (and its pre-bound
	// completion callback) between requests; the replica is single-threaded
	// on its engine, so the free list needs no lock.
	freeExecs []*execution
}

// execution is the pooled state of one in-flight request: what the
// completion event needs, plus the event callback bound once per struct so
// the steady-state serve path allocates nothing.
type execution struct {
	r       *Replica
	wait    time.Duration
	exec    time.Duration
	epoch   uint64
	success bool
	done    func(Result)
	fire    func()
}

func (r *Replica) getExec() *execution {
	if n := len(r.freeExecs); n > 0 {
		ex := r.freeExecs[n-1]
		r.freeExecs[n-1] = nil
		r.freeExecs = r.freeExecs[:n-1]
		return ex
	}
	ex := &execution{r: r}
	ex.fire = func() { ex.complete() }
	return ex
}

// complete is the execution-finished event: recycle first (the callback may
// issue nested requests), then settle the request with the caller.
func (ex *execution) complete() {
	r, wait, exec, epoch, success, done := ex.r, ex.wait, ex.exec, ex.epoch, ex.success, ex.done
	ex.done = nil
	r.freeExecs = append(r.freeExecs, ex)
	if epoch != r.epoch {
		// The deployment crashed while this request was executing: the
		// connection died with it. The client has waited exec anyway.
		done(Result{Latency: wait + exec, Success: false})
		return
	}
	r.busy--
	r.served++
	r.next()
	done(Result{Latency: wait + exec, Success: success})
}

// connRefusedDelay is how quickly a request to a crashed deployment fails —
// the RST round-trip of a dead endpoint, much faster than a timeout.
const connRefusedDelay = time.Millisecond

type queued struct {
	enqueued time.Duration
	done     func(Result)
}

// New returns a Replica. profile must not be nil.
func New(engine *sim.Engine, rng *sim.Rand, cfg Config, profile Profile) *Replica {
	if profile == nil {
		panic(fmt.Sprintf("backend %q: nil profile", cfg.Name))
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 64
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 4096
	}
	return &Replica{engine: engine, rng: rng, cfg: cfg, profile: profile}
}

// Serve accepts one request arriving now; done is invoked exactly once when
// the request completes (or immediately, on the next engine step, if shed).
func (r *Replica) Serve(done func(Result)) {
	if done == nil {
		panic(fmt.Sprintf("backend %q: Serve with nil done", r.cfg.Name))
	}
	if r.down {
		r.engine.After(connRefusedDelay, func() {
			done(Result{Latency: connRefusedDelay, Success: false})
		})
		return
	}
	if r.busy < r.cfg.Concurrency {
		r.start(0, done)
		return
	}
	if len(r.queue) >= r.cfg.QueueCapacity {
		r.rejected++
		r.engine.After(0, func() {
			done(Result{Rejected: true})
		})
		return
	}
	r.queue = append(r.queue, queued{enqueued: r.engine.Now(), done: done})
	if len(r.queue) > r.maxQueue {
		r.maxQueue = len(r.queue)
	}
}

func (r *Replica) start(wait time.Duration, done func(Result)) {
	r.busy++
	now := r.engine.Now()
	exec, success := r.profile(now, r.rng)
	if exec < 0 {
		exec = 0
	}
	ex := r.getExec()
	ex.wait, ex.exec, ex.epoch, ex.success, ex.done = wait, exec, r.epoch, success, done
	r.engine.ScheduleAfter(exec, ex.fire)
}

func (r *Replica) next() {
	if len(r.queue) == 0 || r.busy >= r.cfg.Concurrency {
		return
	}
	q := r.queue[0]
	r.queue = r.queue[1:]
	r.start(r.engine.Now()-q.enqueued, q.done)
}

// SetConcurrency resizes the worker pool (autoscaling). Growing drains
// queued requests into the new workers immediately; shrinking lets
// in-flight executions finish and takes effect as workers free up.
// Non-positive values are clamped to 1.
func (r *Replica) SetConcurrency(n int) {
	if n < 1 {
		n = 1
	}
	r.cfg.Concurrency = n
	for r.busy < r.cfg.Concurrency && len(r.queue) > 0 {
		r.next()
	}
}

// Crash takes the deployment down, as a pod kill would: every queued
// request fails immediately, every executing request's connection dies (the
// client sees a failure once its execution time elapses), and subsequent
// requests are refused fast until Restart. Crashing an already-down replica
// is a no-op.
func (r *Replica) Crash() {
	if r.down {
		return
	}
	r.down = true
	r.epoch++
	queue := r.queue
	r.queue = nil
	r.busy = 0
	for _, q := range queue {
		q := q
		r.engine.After(0, func() {
			q.done(Result{Latency: r.engine.Now() - q.enqueued, Success: false})
		})
	}
}

// Restart brings a crashed deployment back. A positive slowStart models a
// cold start: the worker pool comes back at a quarter capacity and ramps
// linearly to full over the window, so a freshly restarted backend saturates
// easily — the transient L3's symptom steering is supposed to notice.
// Restarting a live replica is a no-op.
func (r *Replica) Restart(slowStart time.Duration) {
	if !r.down {
		return
	}
	r.down = false
	if slowStart <= 0 {
		return
	}
	target := r.cfg.Concurrency
	epoch := r.epoch
	const steps = 4
	r.SetConcurrency(target / steps)
	for i := 2; i <= steps; i++ {
		frac := i
		r.engine.After(slowStart*time.Duration(i-1)/(steps-1), func() {
			if r.down || epoch != r.epoch {
				return // crashed again mid-ramp
			}
			r.SetConcurrency(target * frac / steps)
		})
	}
}

// Utilization returns busy workers over pool size, in [0, 1+]: queued work
// shows up as saturation (1.0) rather than pushing past it.
func (r *Replica) Utilization() float64 {
	if r.cfg.Concurrency == 0 {
		return 0
	}
	return float64(r.busy) / float64(r.cfg.Concurrency)
}

// Inflight returns the number of requests executing or queued.
func (r *Replica) Inflight() int { return r.busy + len(r.queue) }

// QueueLen returns the number of queued (not yet executing) requests.
func (r *Replica) QueueLen() int { return len(r.queue) }

// Served returns the number of completed requests.
func (r *Replica) Served() uint64 { return r.served }

// RejectedCount returns the number of shed requests.
func (r *Replica) RejectedCount() uint64 { return r.rejected }

// MaxQueueObserved returns the high-water mark of the queue.
func (r *Replica) MaxQueueObserved() int { return r.maxQueue }

// Name returns the configured deployment name.
func (r *Replica) Name() string { return r.cfg.Name }

// Concurrency returns the worker-pool size.
func (r *Replica) Concurrency() int { return r.cfg.Concurrency }
