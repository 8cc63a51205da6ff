package overload

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l3/internal/backend"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/wan"
)

func TestParsePolicyRoundTrip(t *testing.T) {
	cases := []string{
		"off",
		"limit=16",
		"limit=16,min=2,max=64,target=5ms,interval=100ms,qcap=128",
		"limit=8,target=10ms,qcap=64,lifo=off,tiers=on,readmit=2s",
	}
	for _, s := range cases {
		p, err := ParsePolicy(s)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", s, err)
		}
		q, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", p.String(), err)
		}
		if q.String() != p.String() {
			t.Fatalf("round trip %q -> %q -> %q", s, p.String(), q.String())
		}
	}
	for _, s := range []string{"limit", "limit=x", "bogus=1", "lifo=maybe"} {
		if _, err := ParsePolicy(s); err == nil {
			t.Fatalf("ParsePolicy(%q) accepted", s)
		}
	}
	// A NaN or an infinity is refused by name; String never shows these keys.
	for _, s := range []string{"limit=8,decrease=NaN", "limit=8,tolerance=+Inf", "alpha=Inf", "beta=-Inf", "decrease=nan"} {
		key, _, _ := strings.Cut(s[strings.LastIndexByte(s, ',')+1:], "=")
		if _, err := ParsePolicy(s); err == nil || !strings.Contains(err.Error(), "bad "+key+" value") {
			t.Fatalf("ParsePolicy(%q) = %v, want an error naming %s", s, err, key)
		}
	}
}

// FuzzParsePolicy: any policy string parses or is refused without a panic;
// an accepted policy holds no NaN or infinity, its String parses again, and
// renders the same once more.
func FuzzParsePolicy(f *testing.F) {
	for _, seed := range []string{"", "off", "limit=16", "limit=16,min=2,max=64,target=5ms,interval=100ms,qcap=128",
		"limit=8,target=10ms,qcap=64,lifo=off,tiers=on,readmit=2s", "limit=8,decrease=NaN", "tolerance=+Inf", "limit=-3,readmit=-1s", "limit=4,alpha=1e400"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePolicy(s)
		if err != nil {
			return
		}
		for _, v := range []float64{p.Limiter.Alpha, p.Limiter.Beta, p.Limiter.Tolerance, p.Limiter.Decrease} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("ParsePolicy(%q) accepted a non-finite value: %+v", s, p.Limiter)
			}
		}
		text := p.String()
		q, err := ParsePolicy(text)
		if err != nil {
			t.Fatalf("ParsePolicy(%q).String() = %q does not parse: %v", s, text, err)
		}
		if again := q.String(); again != text {
			t.Fatalf("ParsePolicy(%q) renders %q, which renders %q", s, text, again)
		}
	})
}

func TestLimiterGrowsAndShrinks(t *testing.T) {
	cfg := Policy{Limiter: LimiterConfig{Initial: 10}}.withDefaults().Limiter
	l := NewLimiter(cfg)
	// Flat RTT at the baseline: estimated queue 0, limit grows every window.
	for i := 0; i < 5*cfg.Window; i++ {
		l.Observe(10*time.Millisecond, true)
	}
	if l.Limit() <= 10 {
		t.Fatalf("limit = %d after flat RTT, want growth", l.Limit())
	}
	grown := l.Limit()
	// Failures: multiplicative decrease, at most once per window.
	for i := 0; i < 2*cfg.Window; i++ {
		l.Observe(10*time.Millisecond, false)
	}
	if l.Limit() >= grown {
		t.Fatalf("limit = %d after failures, want decrease from %d", l.Limit(), grown)
	}
	// RTT far above baseline: Vegas shrink.
	l2 := NewLimiter(cfg)
	for i := 0; i < cfg.Window; i++ {
		l2.Observe(10*time.Millisecond, true)
	}
	start := l2.Limit()
	for i := 0; i < 10*cfg.Window; i++ {
		l2.Observe(100*time.Millisecond, true)
	}
	if l2.Limit() >= start {
		t.Fatalf("limit = %d under queueing RTT, want below %d", l2.Limit(), start)
	}
	if l2.Limit() < cfg.Min {
		t.Fatalf("limit = %d under floor %d", l2.Limit(), cfg.Min)
	}
}

func TestCoDelDropsStandingQueue(t *testing.T) {
	cfg := Policy{Limiter: LimiterConfig{Initial: 1}, Queue: QueueConfig{Target: 5 * time.Millisecond, Interval: 100 * time.Millisecond, Capacity: 16}}.withDefaults().Queue
	c := NewCoDel(cfg)
	now := time.Second
	// Below target: never drops.
	for i := 0; i < 100; i++ {
		if c.OnDequeue(now, time.Millisecond) {
			t.Fatal("dropped below target")
		}
		now += 10 * time.Millisecond
	}
	// Above target: no drop until a full interval has passed.
	drops := 0
	first := -1
	for i := 0; i < 100; i++ {
		if c.OnDequeue(now, 20*time.Millisecond) {
			drops++
			if first < 0 {
				first = i
			}
		}
		now += 10 * time.Millisecond
	}
	if drops == 0 {
		t.Fatal("no drops under standing queue")
	}
	if first < 10 {
		t.Fatalf("first drop at dequeue %d, want after a full interval", first)
	}
	if !c.Dropping() {
		t.Fatal("not in dropping state")
	}
	// Sojourn back under target exits dropping immediately.
	if c.OnDequeue(now, time.Millisecond) {
		t.Fatal("dropped after recovery")
	}
	if c.Dropping() {
		t.Fatal("still dropping after recovery")
	}
}

// TestTierGateHysteresisSquareWave drives the gate with a square wave of
// overload and recovery and asserts tiers clamp under load, re-admit only
// after the full healthy period, and do not flap within one phase.
func TestTierGateHysteresisSquareWave(t *testing.T) {
	p := Policy{
		Limiter: LimiterConfig{Initial: 8},
		Queue:   QueueConfig{Target: 10 * time.Millisecond, Interval: 50 * time.Millisecond, Capacity: 64},
		Tiers:   TierConfig{Enabled: true, Readmit: 500 * time.Millisecond},
	}.withDefaults()
	g := NewTierGate(p)

	transitions, readmits := 0, 0
	last := g.AdmitMax()
	record := func() {
		if g.AdmitMax() != last {
			transitions++
			last = g.AdmitMax()
		}
	}

	now := time.Duration(0)
	for cycle := 0; cycle < 3; cycle++ {
		// Overload phase: 1s of standing-queue signals every 10ms.
		for i := 0; i < 100; i++ {
			now += 10 * time.Millisecond
			g.Signal(now, 30*time.Millisecond)
			g.Overloaded(now)
			record()
		}
		if g.AdmitMax() != 0 {
			t.Fatalf("cycle %d: admitMax = %d under sustained overload, want 0", cycle, g.AdmitMax())
		}
		// Recovery phase: 2s of healthy signals every 10ms.
		for i := 0; i < 200; i++ {
			now += 10 * time.Millisecond
			if g.Signal(now, time.Millisecond) {
				readmits++
			}
			record()
		}
		if g.AdmitMax() != NumTiers-1 {
			t.Fatalf("cycle %d: admitMax = %d after sustained health, want %d", cycle, g.AdmitMax(), NumTiers-1)
		}
	}
	// Each cycle: 2 clamps down + 2 re-admits, no extra flapping.
	if want := 3 * 4; transitions != want {
		t.Fatalf("admitMax transitions = %d, want %d (no flapping)", transitions, want)
	}
	if readmits != 6 {
		t.Fatalf("readmits = %d, want 6", readmits)
	}
	// A short healthy blip must NOT re-admit (hysteresis).
	g2 := NewTierGate(p)
	g2.Overloaded(time.Second)
	for i := 0; i < 10; i++ {
		g2.Signal(time.Second+time.Duration(i)*10*time.Millisecond, time.Millisecond)
	}
	if g2.AdmitMax() != NumTiers-2 {
		t.Fatalf("admitMax = %d after 100ms blip, want still clamped", g2.AdmitMax())
	}
}

// scriptServer serves with whatever latency/outcome its fields hold at
// Serve time.
type scriptServer struct {
	engine  *sim.Engine
	latency time.Duration
	ok      bool
	served  int
}

func (s *scriptServer) Serve(done func(backend.Result)) {
	s.served++
	lat, ok := s.latency, s.ok
	s.engine.ScheduleAfter(lat, func() { done(backend.Result{Latency: lat, Success: ok}) })
}

type testRig struct {
	engine *sim.Engine
	mesh   *mesh.Mesh
	client *Client
	reg    *metrics.Registry
	srv    *scriptServer
}

func newRig(t *testing.T) *testRig {
	t.Helper()
	e := sim.NewEngine()
	reg := metrics.NewRegistry()
	m := mesh.New(e, sim.NewRand(1), wan.New(wan.DefaultConfig()), reg)
	if _, err := m.AddService("api"); err != nil {
		t.Fatal(err)
	}
	srv := &scriptServer{engine: e, latency: 10 * time.Millisecond, ok: true}
	if _, err := m.AddServerBackend("api", "b1", "cluster-1", srv); err != nil {
		t.Fatal(err)
	}
	c := NewClient(m, "cluster-1")
	return &testRig{engine: e, mesh: m, client: c, reg: reg, srv: srv}
}

func TestClientShedsOverLimitAndDrains(t *testing.T) {
	rig := newRig(t)
	pol, err := ParsePolicy("limit=2,max=2,target=50ms,interval=100ms,qcap=4")
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.client.Apply("api", pol); err != nil {
		t.Fatal(err)
	}
	okN, failN := 0, 0
	done := func(r mesh.Result) {
		if r.Success {
			okN++
		} else {
			failN++
		}
	}
	// 10 simultaneous calls into limit 2 + queue 4: 4 shed on arrival.
	for i := 0; i < 10; i++ {
		if err := rig.client.Call("cluster-1", "api", done); err != nil {
			t.Fatal(err)
		}
	}
	if failN != 4 {
		t.Fatalf("immediate sheds = %d, want 4 (queue overflow)", failN)
	}
	rig.engine.Run()
	if okN != 6 {
		t.Fatalf("successes = %d, want 6 (2 in flight + 4 queued drain)", okN)
	}
	labels := metrics.Labels{"service": "api"}
	if v := rig.reg.Counter(MetricQueueOverflowTotal, labels).Value(); v != 4 {
		t.Fatalf("overflow counter = %v, want 4", v)
	}
	if v := rig.reg.Counter(MetricAdmittedTotal, labels).Value(); v != 6 {
		t.Fatalf("admitted counter = %v, want 6", v)
	}
}

func TestClientTierShedding(t *testing.T) {
	rig := newRig(t)
	pol, err := ParsePolicy("limit=1,max=1,target=1ms,interval=20ms,qcap=2,tiers=on,readmit=200ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.client.Apply("api", pol); err != nil {
		t.Fatal(err)
	}
	shed := [NumTiers]int{}
	issue := func(tier int) {
		_ = rig.client.CallTier("cluster-1", "api", tier, func(r mesh.Result) {
			if !r.Success {
				shed[tier]++
			}
		})
	}
	// Offered load far above capacity, all three tiers interleaved.
	for i := 0; i < 300; i++ {
		tier := i % NumTiers
		at := time.Duration(i) * 2 * time.Millisecond
		rig.engine.Schedule(at, func() { issue(tier) })
	}
	rig.engine.Run()
	if shed[TierSheddable] <= shed[TierCritical] {
		t.Fatalf("shed ordering violated: critical=%d default=%d sheddable=%d",
			shed[TierCritical], shed[TierDefault], shed[TierSheddable])
	}
	// One request of slack: a CoDel drop lands on a default-tier request
	// when no more-sheddable entry is queued to steal — once the gate has
	// clamped, sheddable traffic is shed at the door and never queues.
	if shed[TierSheddable] < shed[TierDefault]-1 {
		t.Fatalf("sheddable (%d) shed less than default (%d)", shed[TierSheddable], shed[TierDefault])
	}
}

func TestClientPassThroughWithoutPolicy(t *testing.T) {
	rig := newRig(t)
	got := 0
	if err := rig.client.Call("cluster-1", "api", func(r mesh.Result) {
		if r.Success {
			got++
		}
	}); err != nil {
		t.Fatal(err)
	}
	rig.engine.Run()
	if got != 1 {
		t.Fatalf("pass-through successes = %d, want 1", got)
	}
}

func TestWallAdmitterFastPathAndQueue(t *testing.T) {
	p, err := ParsePolicy("limit=1,max=1,target=5ms,interval=50ms,qcap=8,tiers=on")
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	a := NewWallAdmitter(p, 1, base)
	if v := a.Admit(context.Background(), time.Now(), TierDefault); v != Admitted {
		t.Fatalf("first admit = %v", v)
	}
	// Second request queues; release from another goroutine admits it.
	got := make(chan Verdict, 1)
	go func() { got <- a.Admit(context.Background(), time.Now(), TierDefault) }()
	time.Sleep(10 * time.Millisecond)
	a.Release()
	select {
	case v := <-got:
		if v != Admitted {
			t.Fatalf("queued admit = %v", v)
		}
	case <-time.After(time.Second):
		t.Fatal("queued waiter never woke")
	}
	a.Release()
	st := a.Stats()
	if st.Admitted != 2 || st.MaxSojourn <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWallAdmitterDrainFlush(t *testing.T) {
	p, err := ParsePolicy("limit=1,max=1,target=5ms,interval=50ms,qcap=8")
	if err != nil {
		t.Fatal(err)
	}
	a := NewWallAdmitter(p, 1, time.Now())
	if v := a.Admit(context.Background(), time.Now(), TierDefault); v != Admitted {
		t.Fatalf("first admit = %v", v)
	}
	got := make(chan Verdict, 3)
	for i := 0; i < 3; i++ {
		go func() { got <- a.Admit(context.Background(), time.Now(), TierDefault) }()
	}
	for a.Stats().QueueLen < 3 {
		time.Sleep(time.Millisecond)
	}
	a.DrainFlush()
	for i := 0; i < 3; i++ {
		select {
		case v := <-got:
			if v != ShedDraining {
				t.Fatalf("flushed verdict = %v", v)
			}
		case <-time.After(time.Second):
			t.Fatal("waiter stranded by drain")
		}
	}
	// Post-drain arrivals are rejected, not queued.
	if v := a.Admit(context.Background(), time.Now(), TierCritical); v != ShedDraining {
		t.Fatalf("post-drain admit = %v", v)
	}
}

func TestWallAdmitterContextCancel(t *testing.T) {
	p, err := ParsePolicy("limit=1,max=1,target=5ms,interval=50ms,qcap=8")
	if err != nil {
		t.Fatal(err)
	}
	a := NewWallAdmitter(p, 1, time.Now())
	if v := a.Admit(context.Background(), time.Now(), TierDefault); v != Admitted {
		t.Fatalf("first admit = %v", v)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan Verdict, 1)
	go func() { got <- a.Admit(ctx, time.Now(), TierDefault) }()
	for a.Stats().QueueLen < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case v := <-got:
		if v != ShedCanceled {
			t.Fatalf("canceled verdict = %v", v)
		}
	case <-time.After(time.Second):
		t.Fatal("canceled waiter never returned")
	}
	// The canceled waiter must not absorb the next freed slot.
	a.Release()
	if v := a.Admit(context.Background(), time.Now(), TierDefault); v != Admitted {
		t.Fatalf("post-cancel admit = %v", v)
	}
}

func TestWallAdmitterFastPathAllocs(t *testing.T) {
	p, err := ParsePolicy("limit=64,target=5ms,qcap=8,tiers=on")
	if err != nil {
		t.Fatal(err)
	}
	a := NewWallAdmitter(p, 3, time.Now())
	now := time.Now()
	allocs := testing.AllocsPerRun(10000, func() {
		if v := a.Admit(context.Background(), now, TierDefault); v != Admitted {
			t.Fatalf("admit = %v", v)
		}
		a.Observe(0, 3*time.Millisecond, true)
		a.Release()
	})
	if allocs != 0 {
		t.Fatalf("admit fast path allocs = %v, want 0", allocs)
	}
}

// FuzzParseTier feeds the X-L3-Criticality annotation arbitrary bytes: the
// result is always a valid tier, only the documented spellings leave
// TierDefault, and parsing allocates nothing.
func FuzzParseTier(f *testing.F) {
	for _, v := range []string{"", "critical", "sheddable", "default", "0", "1", "2", "3", "-1", "Critical", " critical", "critical\n", "00"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		got := ParseTier(v)
		want := TierDefault
		switch v {
		case "critical", "0":
			want = TierCritical
		case "sheddable", "2":
			want = TierSheddable
		}
		if got != want || got < 0 || got >= NumTiers {
			t.Fatalf("ParseTier(%q) = %d, want %d", v, got, want)
		}
	})
}

// TestWallAdmitterCanceledWaiterFreesItsSlot: a waiter whose context ends
// leaves the queue when it cancels. Behind one held slot, two waiters queue
// and cancel one after the other; the queue is empty after each, and a
// third arrival still finds room (no overflow, no LIFO flip) and takes the
// slot when it frees.
func TestWallAdmitterCanceledWaiterFreesItsSlot(t *testing.T) {
	p, err := ParsePolicy("limit=1,max=1,qcap=2")
	if err != nil {
		t.Fatal(err)
	}
	a := NewWallAdmitter(p, 1, time.Now())
	if v := a.Admit(context.Background(), time.Now(), TierDefault); v != Admitted {
		t.Fatalf("first admit = %v", v)
	}
	await := func(got <-chan Verdict) Verdict {
		t.Helper()
		select {
		case v := <-got:
			return v
		case <-time.After(2 * time.Second):
			t.Fatal("waiter never returned")
			return 0
		}
	}
	queue := func(ctx context.Context) <-chan Verdict {
		t.Helper()
		got := make(chan Verdict, 1)
		go func() { got <- a.Admit(ctx, time.Now(), TierDefault) }()
		for end := time.Now().Add(2 * time.Second); a.Stats().QueueLen == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(end) {
				t.Fatalf("waiter never queued: %+v", a.Stats())
			}
		}
		return got
	}
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		got := queue(ctx)
		cancel()
		if v := await(got); v != ShedCanceled {
			t.Fatalf("canceled waiter %d: verdict %v", i, v)
		}
		if st := a.Stats(); st.QueueLen != 0 {
			t.Fatalf("canceled waiter %d still queued: %+v", i, st)
		}
	}
	got := queue(context.Background())
	if st := a.Stats(); st.QueueLen != 1 || st.QueueOverflow != 0 || st.LifoFlips != 0 {
		t.Fatalf("third arrival: %+v, want it alone in the queue, no overflow, no flip", st)
	}
	a.Release()
	if v := await(got); v != Admitted {
		t.Fatalf("third arrival: verdict %v", v)
	}
	a.Release()
	if st := a.Stats(); st.Admitted != 2 || st.Shed[TierDefault] != 2 || st.QueueLen != 0 {
		t.Fatalf("at rest: %+v, want 2 admitted and 2 shed", st)
	}
}

// TestWallAdmitterConservesRequests hammers one admitter from many
// goroutines: random tiers, contexts canceled before the call or while it
// waits, held slots released, limits moved by Observe, and a DrainFlush
// partway through. At quiescence every arrival is counted once — admitted,
// or shed in its tier — the admitted count equals the Admitted verdicts
// handed out, and no slot is held. Run it with -race.
func TestWallAdmitterConservesRequests(t *testing.T) {
	p, err := ParsePolicy("limit=3,max=8,target=1ms,interval=5ms,qcap=8,maxwait=20ms,tiers=on,readmit=10ms")
	if err != nil {
		t.Fatal(err)
	}
	a := NewWallAdmitter(p, 2, time.Now())
	const workers, calls = 16, 200
	var arrivals, admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < calls; i++ {
				if g == 0 && i == calls*3/4 {
					a.DrainFlush()
				}
				ctx, cancel := context.WithCancel(context.Background())
				switch rng.Intn(4) {
				case 0:
					cancel()
				case 1:
					time.AfterFunc(time.Duration(rng.Intn(2000))*time.Microsecond, cancel)
				}
				arrivals.Add(1)
				if a.Admit(ctx, time.Now(), rng.Intn(NumTiers+2)-1) == Admitted {
					admitted.Add(1)
					time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
					a.Observe(rng.Intn(2), time.Duration(1+rng.Intn(4))*time.Millisecond, rng.Intn(8) != 0)
					a.Release()
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	st := a.Stats()
	shed := int64(0)
	for _, n := range st.Shed {
		shed += n
	}
	if st.Admitted+shed != arrivals.Load() {
		t.Errorf("admitted %d + shed %d != %d arrivals", st.Admitted, shed, arrivals.Load())
	}
	if st.Admitted != admitted.Load() {
		t.Errorf("admitted count %d, but %d Admitted verdicts returned", st.Admitted, admitted.Load())
	}
	a.mu.Lock()
	inflight := a.q.inflight
	a.mu.Unlock()
	if inflight != 0 || st.QueueLen != 0 {
		t.Errorf("at rest: %d in flight, %d queued", inflight, st.QueueLen)
	}
	t.Logf("%d arrivals: %+v", arrivals.Load(), st)
}
