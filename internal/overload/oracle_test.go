package overload

import (
	"math/rand"
	"testing"
	"time"
)

// oracleQueue is the sim client's admission queue as it stood before both
// clocks shared one core: its per-service ring, CallTier's queue half,
// drain and stealWorstTier, with the registry counters folded into a Stats
// and the limiter's slot count kept beside the limit the harness passes in.
// The core must answer every stream as this does.
type oracleQueue struct {
	policy Policy
	codel  CoDel
	gate   TierGate

	inflight, limit int

	queue []*oracleOp
	qhead int
	qlen  int
	lifo  bool

	maxSojourn time.Duration
	stats      Stats
	done       func(id int, v Verdict)
}

type oracleOp struct {
	id       int
	tier     int
	queuedAt time.Duration
}

func newOracleQueue(p Policy, done func(id int, v Verdict)) *oracleQueue {
	s := &oracleQueue{policy: p, codel: NewCoDel(p.Queue), gate: NewTierGate(p), done: done}
	if p.Queue.Capacity > 0 {
		s.queue = make([]*oracleOp, p.Queue.Capacity)
	}
	return s
}

func (s *oracleQueue) tryAcquire() bool {
	if s.inflight >= s.limit {
		return false
	}
	s.inflight++
	return true
}

func (s *oracleQueue) release() {
	if s.inflight > 0 {
		s.inflight--
	}
}

// call is CallTier from the tier clamp on.
func (s *oracleQueue) call(now time.Duration, id, tier int) {
	if tier < 0 {
		tier = 0
	} else if tier >= NumTiers {
		tier = NumTiers - 1
	}
	if !s.gate.Admit(tier) {
		s.stats.Shed[tier]++
		s.done(id, ShedTier)
		return
	}
	if s.tryAcquire() {
		s.stats.Admitted++
		if s.gate.Signal(now, 0) {
			s.stats.Readmits++
		}
		s.done(id, Admitted)
		return
	}
	if s.qlen >= len(s.queue) {
		s.stats.QueueOverflow++
		s.stats.Shed[tier]++
		s.gate.Overloaded(now)
		s.done(id, ShedQueueFull)
		return
	}
	s.queue[(s.qhead+s.qlen)%len(s.queue)] = &oracleOp{id: id, tier: tier, queuedAt: now}
	s.qlen++
	if !s.policy.Queue.DisableLIFO {
		if !s.lifo && s.qlen > len(s.queue)/2 {
			s.lifo = true
			s.stats.LifoFlips++
		}
	}
}

func (s *oracleQueue) stealWorstTier(tier int) *oracleOp {
	best, bestTier := -1, tier
	for i := 0; i < s.qlen; i++ {
		if o := s.queue[(s.qhead+i)%len(s.queue)]; o.tier > bestTier {
			best, bestTier = i, o.tier
		}
	}
	if best < 0 {
		return nil
	}
	o := s.queue[(s.qhead+best)%len(s.queue)]
	for ; best > 0; best-- {
		s.queue[(s.qhead+best)%len(s.queue)] = s.queue[(s.qhead+best-1)%len(s.queue)]
	}
	s.queue[s.qhead] = nil
	s.qhead = (s.qhead + 1) % len(s.queue)
	s.qlen--
	return o
}

func (s *oracleQueue) drain(now time.Duration) {
	for s.qlen > 0 && s.tryAcquire() {
		var q *oracleOp
		if s.lifo {
			q = s.queue[(s.qhead+s.qlen-1)%len(s.queue)]
			s.queue[(s.qhead+s.qlen-1)%len(s.queue)] = nil
		} else {
			q = s.queue[s.qhead]
			s.queue[s.qhead] = nil
			s.qhead = (s.qhead + 1) % len(s.queue)
		}
		s.qlen--
		if s.lifo && s.qlen <= len(s.queue)/8 {
			s.lifo = false
		}
		sojourn := now - q.queuedAt
		if s.gate.Signal(now, sojourn) {
			s.stats.Readmits++
		}
		if sojourn >= s.policy.Queue.MaxWait {
			s.release()
			s.stats.CodelDropped++
			s.stats.Shed[q.tier]++
			s.gate.Overloaded(now)
			s.done(q.id, ShedCoDel)
			continue
		}
		if s.codel.OnDequeue(now, sojourn) {
			v := s.stealWorstTier(q.tier)
			if v == nil && s.policy.Tiers.Enabled && q.tier == TierCritical {
				s.gate.Overloaded(now)
			} else if v == nil {
				s.release()
				s.stats.CodelDropped++
				s.stats.Shed[q.tier]++
				s.gate.Overloaded(now)
				s.done(q.id, ShedCoDel)
				continue
			} else {
				s.stats.CodelDropped++
				s.stats.Shed[v.tier]++
				s.gate.Overloaded(now)
				s.done(v.id, ShedCoDel)
			}
		}
		if sojourn > s.maxSojourn {
			s.maxSojourn = sojourn
		}
		s.stats.Admitted++
		s.done(q.id, Admitted)
	}
}

func (s *oracleQueue) snapshot() Stats {
	st := s.stats
	st.MaxSojourn = s.maxSojourn
	st.TotalLimit = s.limit
	st.AdmitMax = s.gate.AdmitMax()
	st.QueueLen = s.qlen
	return st
}

// delivery is one verdict in the order a side delivered it.
type delivery struct {
	id int
	v  Verdict
}

// admissionSide is one half of the differential harness: a limiter that
// adapts on the completions the stream feeds it, an extra limit standing
// for the wall's other backends, the requests it holds in flight in
// admission order, and every verdict it delivered.
type admissionSide struct {
	lim      Limiter
	extra    int
	inflight []int
	log      []delivery
}

func (s *admissionSide) deliver(id int, v Verdict) {
	s.log = append(s.log, delivery{id, v})
	if v == Admitted {
		s.inflight = append(s.inflight, id)
	}
}

// oracleStreamPolicy picks the policy a stream runs under from its first
// byte: tiers on or off, LIFO on or off, and a small or a larger ring, with
// targets and intervals of a few milliseconds so that the drop law, the
// MaxWait ceiling and the gate all act within a short stream.
func oracleStreamPolicy(b byte) Policy {
	p := Policy{
		Limiter: LimiterConfig{Initial: 1 + int(b>>4)%4, Min: 1, Max: 6, Window: 4},
		Queue: QueueConfig{
			Target:      2 * time.Millisecond,
			Interval:    8 * time.Millisecond,
			Capacity:    []int{2, 5, 8, 16}[b%4],
			MaxWait:     24 * time.Millisecond,
			DisableLIFO: b&4 != 0,
		},
		Tiers: TierConfig{Enabled: b&8 != 0, Readmit: 20 * time.Millisecond},
	}
	return p.withDefaults()
}

// replayAdmission runs one stream through the oracle and through the core
// and fails at the first step after which they disagree on a verdict, its
// delivery order, the counters, the limit, the admitted tier or the
// longest admitted sojourn. The stream is a byte program: each op byte
// chooses arrive(tier), complete(which, rtt, ok), a time step or a change
// of the extra limit, and takes its operands from the bytes after it.
func replayAdmission(t *testing.T, stream []byte) {
	t.Helper()
	if len(stream) == 0 {
		return
	}
	p := oracleStreamPolicy(stream[0])
	stream = stream[1:]
	var o, c admissionSide
	o.lim, c.lim = NewLimiter(p.Limiter), NewLimiter(p.Limiter)
	oq := newOracleQueue(p, o.deliver)
	cq := newQueue(p, c.deliver)
	setLimits := func() {
		oq.limit = o.lim.Limit() + o.extra
		cq.limit = c.lim.Limit() + c.extra
	}
	setLimits()

	var now time.Duration
	next := func() int {
		if len(stream) == 0 {
			return 0
		}
		b := stream[0]
		stream = stream[1:]
		return int(b)
	}
	for id, step := 0, 0; len(stream) > 0; step++ {
		op := next()
		switch op % 8 {
		case 0, 1, 2, 3:
			tier := op>>3%5 - 1 // one step past each end, to exercise the clamp
			oq.call(now, id, tier)
			if v := cq.admit(now, clampTier(tier)); v == queued {
				cq.enqueue(now, clampTier(tier), id)
			} else {
				c.deliver(id, v)
			}
			id++
		case 4, 5:
			k, rtt, ok := next(), time.Duration(1+next()%16)*time.Millisecond, op&16 == 0
			if len(o.inflight) == 0 || len(c.inflight) == 0 {
				continue
			}
			for _, s := range []*admissionSide{&o, &c} {
				i := k % len(s.inflight)
				s.inflight = append(s.inflight[:i], s.inflight[i+1:]...)
				s.lim.Observe(rtt, ok)
			}
			oq.release()
			cq.release()
			setLimits()
			oq.drain(now)
			cq.drain(now)
		case 6:
			now += time.Duration(op>>3) * time.Millisecond / 4
		case 7:
			o.extra, c.extra = op>>3%4, op>>3%4
			setLimits()
			oq.drain(now)
			cq.drain(now)
		}
		if i, ok := firstDifference(o.log, c.log); !ok {
			t.Fatalf("step %d (op %d, policy %s): delivery %d on: oracle %v, core %v", step, op, p, i, o.log[i:], c.log[i:])
		}
		if os, cs := oq.snapshot(), cq.snapshot(); os != cs {
			t.Fatalf("step %d (op %d, policy %s): stats\noracle %+v\ncore   %+v", step, op, p, os, cs)
		}
		if oq.inflight != cq.inflight {
			t.Fatalf("step %d: in flight: oracle %d, core %d", step, oq.inflight, cq.inflight)
		}
	}
}

// firstDifference returns the index of the first delivery the two logs
// disagree on; ok is true when they agree.
func firstDifference(a, b []delivery) (i int, ok bool) {
	for ; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i, false
		}
	}
	return i, len(a) == len(b)
}

// admissionStream draws a seeded stream in replayAdmission's grammar. Each
// stream weighs arrivals, completions, time steps and limit changes its own
// way, so some streams idle, some saturate and some sit at the edge.
func admissionStream(rng *rand.Rand, n int) []byte {
	var w [4]int
	for i := range w {
		w[i] = 1 + rng.Intn(8)
	}
	stream := []byte{byte(rng.Intn(256))}
	for len(stream) < n {
		k := rng.Intn(w[0] + w[1] + w[2] + w[3])
		hi := byte(rng.Intn(32)) << 3
		switch {
		case k < w[0]:
			stream = append(stream, hi|byte(rng.Intn(4)))
		case k < w[0]+w[1]:
			stream = append(stream, hi|byte(4+rng.Intn(2)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		case k < w[0]+w[1]+w[2]:
			stream = append(stream, hi|6)
		default:
			stream = append(stream, hi|7)
		}
	}
	return stream
}

// TestAdmissionMatchesOracle replays seeded streams through the old sim
// queue and the core, under every policy shape oracleStreamPolicy makes.
func TestAdmissionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		stream := admissionStream(rng, 3000)
		stream[0] = byte(i)
		replayAdmission(t, stream)
	}
}

// FuzzAdmissionMatchesOracle: any byte program answers the same through
// the old sim queue and the core.
func FuzzAdmissionMatchesOracle(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 16; i++ {
		f.Add(admissionStream(rng, 2000))
	}
	f.Fuzz(replayAdmission)
}
