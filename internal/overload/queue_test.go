package overload

import (
	"testing"
	"time"

	"l3/internal/sim"
)

// TestAdmissionSquareWaveOnSimTime holds the core to its admission policy
// on simulated time: a square wave of mixed tiers at three times
// capacity, then a calm of a tenth, four times over, against a backend whose
// service time grows with concurrency so the limiter moves the limit the
// core is given. It asserts that admitted sojourn stays under MaxWait, that
// sheds are tier-ordered (sheddable before default; critical never by the
// gate or the drop law), that in-flight never exceeds the limit at any
// admission, and that the gate re-admits every tier after each burst —
// with adaptive LIFO and with FIFO, under which the drop law meets a
// standing queue of critical requests.
func TestAdmissionSquareWaveOnSimTime(t *testing.T) {
	for _, lifo := range []string{"on", "off"} {
		t.Run("lifo="+lifo, func(t *testing.T) {
			p, err := ParsePolicy("limit=8,max=32,target=5ms,interval=50ms,qcap=32,maxwait=200ms,tiers=on,readmit=300ms,lifo=" + lifo)
			if err != nil {
				t.Fatal(err)
			}
			squareWave(t, p.withDefaults())
		})
	}
}

func squareWave(t *testing.T, p Policy) {
	e := sim.NewEngine()
	lim := NewLimiter(p.Limiter)
	type req struct {
		tier int
		at   time.Duration
	}
	var (
		q         *queue[*req]
		inflight  int
		verdicts  [NumTiers][ShedDraining + 1]int
		clamped   [NumTiers]time.Duration // first gate shed of each tier in this burst
		limitSeen = map[int]bool{}
	)
	start := func(r *req) {
		inflight++
		if inflight > q.limit {
			t.Errorf("at %v: %d in flight over a limit of %d", e.Now(), inflight, q.limit)
		}
		limitSeen[q.limit] = true
		rtt := 5*time.Millisecond + time.Duration(inflight)*time.Millisecond
		e.ScheduleAfter(rtt, func() {
			inflight--
			q.release()
			lim.Observe(rtt, true)
			q.limit = lim.Limit()
			q.drain(e.Now())
		})
	}
	settle := func(r *req, v Verdict) {
		verdicts[r.tier][v]++
		switch v {
		case Admitted:
			if sojourn := e.Now() - r.at; sojourn >= p.Queue.MaxWait {
				t.Errorf("at %v: admitted after %v in the queue, MaxWait %v", e.Now(), sojourn, p.Queue.MaxWait)
			}
			start(r)
		case ShedCoDel:
			if r.tier == TierCritical && e.Now()-r.at < p.Queue.MaxWait {
				t.Errorf("at %v: the drop law discarded a critical request after %v", e.Now(), e.Now()-r.at)
			}
		case ShedTier:
			if r.tier == TierCritical {
				t.Errorf("at %v: the gate shed a critical request", e.Now())
			}
			if clamped[r.tier] == 0 {
				clamped[r.tier] = e.Now()
			}
		}
	}
	q = newQueue(p, settle)
	q.limit = lim.Limit()

	arrive := func(at time.Duration, tier int) {
		e.Schedule(at, func() {
			r := &req{tier: tier, at: e.Now()}
			if v := q.admit(r.at, tier); v == queued {
				q.enqueue(r.at, tier, r)
			} else {
				settle(r, v)
			}
		})
	}
	const burst, calm = time.Second, 2 * time.Second
	var at time.Duration
	for cycle, n := 0, 0; cycle < 4; cycle++ {
		e.Schedule(at, func() { clamped = [NumTiers]time.Duration{} })
		for end := at + burst; at < end; at += time.Second / 3000 {
			arrive(at, n%NumTiers)
			n++
		}
		e.Schedule(at, func() {
			if clamped[TierSheddable] == 0 || clamped[TierDefault] != 0 && clamped[TierDefault] < clamped[TierSheddable] {
				t.Errorf("cycle %d: gate shed default first (sheddable at %v, default at %v)", cycle, clamped[TierSheddable], clamped[TierDefault])
			}
		})
		for end := at + calm; at < end; at += time.Second / 100 {
			arrive(at, n%NumTiers)
			n++
		}
		e.Schedule(at, func() {
			if got := q.gate.AdmitMax(); got != NumTiers-1 {
				t.Errorf("cycle %d: admitted tiers up to %d after the calm, want every tier", cycle, got)
			}
		})
	}
	e.Run()

	shed := func(tier int) int {
		return verdicts[tier][ShedTier] + verdicts[tier][ShedQueueFull] + verdicts[tier][ShedCoDel]
	}
	if !(shed(TierSheddable) > shed(TierDefault) && shed(TierDefault) > shed(TierCritical)) {
		t.Errorf("sheds by tier (critical, default, sheddable) = %d, %d, %d; want strictly rising", shed(TierCritical), shed(TierDefault), shed(TierSheddable))
	}
	if verdicts[TierDefault][ShedTier] == 0 || verdicts[TierSheddable][ShedCoDel] == 0 {
		t.Errorf("verdicts %v: the wave never clamped default or dropped by the law", verdicts)
	}
	if st := q.snapshot(); st.MaxSojourn >= p.Queue.MaxWait || st.QueueLen != 0 || inflight != 0 || q.inflight != 0 {
		t.Errorf("at rest: %+v, %d in flight (core %d)", st, inflight, q.inflight)
	}
	if len(limitSeen) < 3 {
		t.Errorf("the limiter gave the core only the limits %v", limitSeen)
	}
	t.Logf("verdicts by tier %v; limits seen %d", verdicts, len(limitSeen))
}
