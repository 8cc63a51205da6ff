package overload

import (
	"sync"
	"time"

	"l3/internal/metrics"
)

// Verdict is the outcome of one admission decision.
type Verdict int8

const (
	// Admitted grants a concurrency slot; the caller must Release it.
	Admitted Verdict = iota
	// ShedTier rejects a tier the gate has clamped.
	ShedTier
	// ShedQueueFull rejects an arrival into a full admission queue.
	ShedQueueFull
	// ShedCoDel drops a queued request whose sojourn tripped the drop law
	// or the MaxWait ceiling.
	ShedCoDel
	// ShedCanceled abandons a queued request whose context ended first.
	ShedCanceled
	// ShedDraining rejects a request arriving or queued at shutdown.
	ShedDraining

	// queued tells the adapter that the arrival waits: it enqueues an
	// entry and learns the verdict when the queue delivers one.
	queued Verdict = -1
)

var verdictNames = [...]string{"admitted", "shed-tier", "shed-queue-full", "shed-codel", "shed-canceled", "shed-draining"}

// String names the verdict for logs and reports.
func (v Verdict) String() string {
	if v < 0 || int(v) >= len(verdictNames) {
		return "unknown"
	}
	return verdictNames[v]
}

// Shed reports whether the verdict rejected the request.
func (v Verdict) Shed() bool { return v != Admitted }

// Stats is a snapshot of one admission queue's counters for /metrics,
// figures and assertions.
type Stats struct {
	Admitted      int64
	Shed          [NumTiers]int64
	CodelDropped  int64
	QueueOverflow int64
	LifoFlips     int64
	Readmits      int64
	// MaxSojourn is the longest queue wait of any request admitted from
	// the queue — the bounded-queue-delay assertion reads it.
	MaxSojourn time.Duration
	// TotalLimit is the concurrency limit the queue admits under (the sum
	// of per-backend limits on the wall); AdmitMax the highest admitted
	// tier.
	TotalLimit int
	AdmitMax   int
	QueueLen   int
}

// clampTier maps any tier onto the valid range.
func clampTier(tier int) int {
	return min(max(tier, 0), NumTiers-1)
}

// slot is one waiting entry: the adapter's handle, its tier and when it
// joined the queue.
type slot[E comparable] struct {
	e    E
	tier int
	at   time.Duration
}

// queue is the admission core both clocks run: the tier gate, the
// in-flight count against the limit its adapter passes in, a bounded ring
// of waiters with adaptive LIFO, and the CoDel verdict at dequeue. It is a
// plain single-threaded value on a clock-relative now; the sim client runs
// it on an engine timeline, the wall admitter under its mutex. Verdicts on
// queued entries go to deliver, which may re-enter the queue (a sim
// callback issues nested calls): every count is settled before it runs.
type queue[E comparable] struct {
	policy  Policy
	codel   CoDel
	gate    TierGate
	deliver func(E, Verdict)

	// limit is set by the adapter: the sim's one limiter's limit, or the
	// sum of the wall's per-backend limits.
	limit    int
	inflight int
	closed   bool

	// ring holds the waiters: head+n index it, lifo flips the dequeue end
	// under a standing queue.
	ring []slot[E]
	head int
	n    int
	lifo bool

	stats Stats
}

// newQueue returns the core for an already-defaulted policy.
func newQueue[E comparable](p Policy, deliver func(E, Verdict)) *queue[E] {
	return &queue[E]{
		policy:  p,
		codel:   NewCoDel(p.Queue),
		gate:    NewTierGate(p),
		deliver: deliver,
		ring:    make([]slot[E], p.Queue.Capacity),
	}
}

// admit decides an arrival of a valid tier: Admitted takes a slot, a shed
// verdict rejects it, and queued asks the caller to enqueue it.
func (q *queue[E]) admit(now time.Duration, tier int) Verdict {
	switch {
	case q.closed:
		q.stats.Shed[tier]++
		return ShedDraining
	case !q.gate.Admit(tier):
		q.stats.Shed[tier]++
		return ShedTier
	case q.inflight < q.limit:
		q.inflight++
		q.stats.Admitted++
		if q.gate.Signal(now, 0) {
			q.stats.Readmits++
		}
		return Admitted
	case q.n >= len(q.ring):
		// Full (or zero-capacity) queue: shed on arrival.
		q.stats.QueueOverflow++
		q.stats.Shed[tier]++
		q.gate.Overloaded(now)
		return ShedQueueFull
	}
	return queued
}

// enqueue parks an arrival admit answered with queued.
func (q *queue[E]) enqueue(now time.Duration, tier int, e E) {
	q.ring[(q.head+q.n)%len(q.ring)] = slot[E]{e: e, tier: tier, at: now}
	q.n++
	if !q.policy.Queue.DisableLIFO && !q.lifo && q.n > len(q.ring)/2 {
		q.lifo = true
		q.stats.LifoFlips++
	}
}

// release returns an admitted request's slot without draining.
func (q *queue[E]) release() {
	if q.inflight > 0 {
		q.inflight--
	}
}

// drain admits queued entries into free slots, applying the CoDel verdict
// to each dequeued sojourn. Under a standing queue the dequeue end flips
// to LIFO so fresh requests ride over the backlog.
func (q *queue[E]) drain(now time.Duration) {
	for q.n > 0 && q.inflight < q.limit {
		q.inflight++
		s := q.pop()
		sojourn := now - s.at
		if q.gate.Signal(now, sojourn) {
			q.stats.Readmits++
		}
		// MaxWait is the hard staleness ceiling: under adaptive LIFO the
		// backlog end can outwait any drop schedule, and issuing a request
		// that old serves nobody.
		if sojourn >= q.policy.Queue.MaxWait {
			q.inflight--
			q.drop(now, s)
			continue
		}
		if q.codel.OnDequeue(now, sojourn) {
			// The drop law decides when to shed; criticality decides who: a
			// strictly more sheddable entry still queued takes the drop in
			// s's place (DAGOR-style), so a critical request is never
			// discarded while sheddable backlog remains. With tiers on, the
			// drop law never discards the top tier at all — an all-critical
			// standing queue is bounded by MaxWait and qcap, trading latency
			// for availability, which is what the tier promises.
			if v, ok := q.stealWorstTier(s.tier); ok {
				// s itself is admitted below: the law shed one request at
				// this drop instant, which is all its pacing asks for.
				q.drop(now, v)
			} else if q.policy.Tiers.Enabled && s.tier == TierCritical {
				q.gate.Overloaded(now)
			} else {
				q.inflight--
				q.drop(now, s)
				continue
			}
		}
		// MaxSojourn tracks admitted requests only: a dropped entry (stale
		// LIFO backlog) was discarded, not served, so its wait is not part
		// of the delay bound admitted traffic experiences.
		q.stats.MaxSojourn = max(q.stats.MaxSojourn, sojourn)
		q.stats.Admitted++
		q.deliver(s.e, Admitted)
	}
}

// drop sheds a dequeued entry by the drop law or the MaxWait ceiling.
func (q *queue[E]) drop(now time.Duration, s slot[E]) {
	q.stats.CodelDropped++
	q.stats.Shed[s.tier]++
	q.gate.Overloaded(now)
	q.deliver(s.e, ShedCoDel)
}

// pop takes the entry at the dequeue end and relaxes LIFO back to FIFO
// once the queue has shrunk below an eighth.
func (q *queue[E]) pop() slot[E] {
	i := q.head
	if q.lifo {
		i = (q.head + q.n - 1) % len(q.ring)
	} else {
		q.head = (q.head + 1) % len(q.ring)
	}
	s := q.ring[i]
	q.ring[i] = slot[E]{}
	q.n--
	if q.lifo && q.n <= len(q.ring)/8 {
		q.lifo = false
	}
	return s
}

// stealWorstTier removes the oldest queued entry of the most sheddable
// tier strictly above tier; ok is false when none is queued.
func (q *queue[E]) stealWorstTier(tier int) (s slot[E], ok bool) {
	best := -1
	for i := 0; i < q.n; i++ {
		if t := q.ring[(q.head+i)%len(q.ring)].tier; t > tier {
			best, tier = i, t
		}
	}
	if best < 0 {
		return s, false
	}
	return q.removeAt(best), true
}

// removeAt removes the entry at offset i from head, compacting the ring
// toward the head so FIFO order is preserved.
func (q *queue[E]) removeAt(i int) slot[E] {
	s := q.ring[(q.head+i)%len(q.ring)]
	for ; i > 0; i-- {
		q.ring[(q.head+i)%len(q.ring)] = q.ring[(q.head+i-1)%len(q.ring)]
	}
	q.ring[q.head] = slot[E]{}
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	return s
}

// cancel takes a waiter that gave up out of the queue, counted as a shed
// of its tier; false means it already had its verdict delivered.
func (q *queue[E]) cancel(e E) bool {
	for i := 0; i < q.n; i++ {
		if q.ring[(q.head+i)%len(q.ring)].e == e {
			q.stats.Shed[q.removeAt(i).tier]++
			return true
		}
	}
	return false
}

// revoke takes back an admission whose caller gave up before it saw the
// grant: it counts as a shed of tier, not an admission, and its slot goes
// to the next waiter. Its wait stays in MaxSojourn, which is under MaxWait
// all the same: a maximum cannot be taken back.
func (q *queue[E]) revoke(now time.Duration, tier int) {
	q.stats.Admitted--
	q.stats.Shed[tier]++
	q.release()
	q.drain(now)
}

// close sheds every queued entry with ShedDraining, oldest first, and
// every later arrival too — the shutdown path.
func (q *queue[E]) close() {
	q.closed = true
	for q.n > 0 {
		s := q.removeAt(0)
		q.stats.Shed[s.tier]++
		q.deliver(s.e, ShedDraining)
	}
}

// snapshot returns the counters with the current limit, gate and depth.
func (q *queue[E]) snapshot() Stats {
	s := q.stats
	s.TotalLimit = q.limit
	s.AdmitMax = q.gate.AdmitMax()
	s.QueueLen = q.n
	return s
}

// Metrics mirrors a queue's Stats into a registry. The queue counts on
// plain integers, so the request path touches no registry; Sync advances
// each counter by the snapshot's delta (an admission revoked after its
// grant dips Admitted, so a counter catches up to the running maximum)
// and sets the limit gauge outright.
type Metrics struct {
	mu                                                 sync.Mutex
	admitted, codelDrop, overflow, lifoFlips, readmits *metrics.Counter
	shed                                               [NumTiers]*metrics.Counter
	limit                                              *metrics.Gauge
}

// NewMetrics registers a service's admission series in reg.
func NewMetrics(reg *metrics.Registry, service string) *Metrics {
	labels := metrics.Labels{"service": service}
	m := &Metrics{
		admitted:  reg.Counter(MetricAdmittedTotal, labels),
		codelDrop: reg.Counter(MetricCodelDroppedTotal, labels),
		overflow:  reg.Counter(MetricQueueOverflowTotal, labels),
		lifoFlips: reg.Counter(MetricLifoFlipsTotal, labels),
		readmits:  reg.Counter(MetricReadmitsTotal, labels),
		limit:     reg.Gauge(MetricConcurrencyLimit, labels),
	}
	for tier := 0; tier < NumTiers; tier++ {
		m.shed[tier] = reg.Counter(MetricShedTotal, labels.With("tier", TierName(tier)))
	}
	return m
}

// Sync folds a snapshot into the registry. Only Sync writes these series;
// it is safe for concurrent use, so two scrapes never add one delta twice.
func (m *Metrics) Sync(st Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	catchUp := func(c *metrics.Counter, v int64) {
		if d := float64(v) - c.Value(); d > 0 {
			c.Add(d)
		}
	}
	catchUp(m.admitted, st.Admitted)
	catchUp(m.codelDrop, st.CodelDropped)
	catchUp(m.overflow, st.QueueOverflow)
	catchUp(m.lifoFlips, st.LifoFlips)
	catchUp(m.readmits, st.Readmits)
	for tier := 0; tier < NumTiers; tier++ {
		catchUp(m.shed[tier], st.Shed[tier])
	}
	m.limit.Set(float64(st.TotalLimit))
}
