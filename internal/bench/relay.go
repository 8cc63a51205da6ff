package bench

import (
	"time"

	"l3/internal/loadgen"
	"l3/internal/mesh"
	"l3/internal/resilience"
)

// relays hands a load generator's done to the completion callbacks the mesh
// and the client layers take, without a closure per request: relay records
// are recycled, their callbacks bound when a record is first made. One
// relays serves one generator, on that generator's timeline.
type relays struct {
	warm   time.Duration // per-tier samples that started before it are dropped
	closed bool          // as are those that complete after the run's drain
	free   []*relay
}

type relay struct {
	pool       *relays
	done       func(time.Duration, bool)
	tierRec    *loadgen.Recorder // when set, also takes the sample, filed under start
	start      time.Duration
	mesh       func(mesh.Result)
	resilience func(resilience.Result)
}

func (p *relays) get(done func(time.Duration, bool)) *relay {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		r.done, r.tierRec = done, nil
		return r
	}
	r := &relay{pool: p, done: done}
	r.mesh = func(res mesh.Result) { r.finish(res.Latency, res.Success) }
	r.resilience = func(res resilience.Result) { r.finish(res.Latency, res.Success) }
	return r
}

// issued passes an issue's error on. A call that failed synchronously never
// runs the relay's callback, so the relay goes back at once.
func (r *relay) issued(err error) error {
	if err != nil {
		r.pool.free = append(r.pool.free, r)
	}
	return err
}

func (r *relay) finish(latency time.Duration, success bool) {
	done, tierRec, start := r.done, r.tierRec, r.start
	r.pool.free = append(r.pool.free, r) // before done, as mesh recycles its call
	if tierRec != nil && start >= r.pool.warm && !r.pool.closed {
		tierRec.Record(start, latency, success)
	}
	done(latency, success)
}
