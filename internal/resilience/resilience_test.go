package resilience

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"l3/internal/backend"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/wan"
)

// scriptServer serves with whatever latency/outcome its fields hold at
// Serve time, so tests can reshape backend behaviour mid-run.
type scriptServer struct {
	engine  *sim.Engine
	latency time.Duration
	ok      bool
	// failFirst fails that many leading requests regardless of ok.
	failFirst int
	served    int
}

func (s *scriptServer) Serve(done func(backend.Result)) {
	s.served++
	lat, ok := s.latency, s.ok && s.served > s.failFirst
	s.engine.ScheduleAfter(lat, func() { done(backend.Result{Latency: lat, Success: ok}) })
}

type testRig struct {
	engine *sim.Engine
	mesh   *mesh.Mesh
	client *Client
	reg    *metrics.Registry
}

func newRig(t *testing.T, servers map[string]*scriptServer) *testRig {
	t.Helper()
	e := sim.NewEngine()
	reg := metrics.NewRegistry()
	m := mesh.New(e, sim.NewRand(1), wan.New(wan.DefaultConfig()), reg)
	if _, err := m.AddService("api"); err != nil {
		t.Fatal(err)
	}
	for name, srv := range servers {
		srv.engine = e
		if _, err := m.AddServerBackend("api", name, "cluster-1", srv); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewClient(m, "cluster-1", sim.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{engine: e, mesh: m, client: c, reg: reg}
}

func counterValue(t *testing.T, reg *metrics.Registry, name string, labels metrics.Labels) float64 {
	t.Helper()
	return reg.Counter(name, labels).Value()
}

func TestPassThroughWithoutPolicy(t *testing.T) {
	rig := newRig(t, map[string]*scriptServer{"b1": {latency: 10 * time.Millisecond, ok: true}})
	var res Result
	if err := rig.client.Call("cluster-1", "api", func(r Result) { res = r }); err != nil {
		t.Fatal(err)
	}
	rig.engine.Run()
	if !res.Success || res.Attempts != 1 || res.Hedged || res.DeadlineExceeded {
		t.Fatalf("pass-through result = %+v", res)
	}
	// 10ms exec + 2×500µs local proxy hops.
	if res.Latency != 11*time.Millisecond {
		t.Fatalf("latency = %v, want 11ms", res.Latency)
	}
}

func TestDeadlineFailsSlowRequestExactlyOnce(t *testing.T) {
	rig := newRig(t, map[string]*scriptServer{"b1": {latency: 200 * time.Millisecond, ok: true}})
	if err := rig.client.Apply("api", Policy{Deadline: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	fired := 0
	var res Result
	var at time.Duration
	_ = rig.client.Call("cluster-1", "api", func(r Result) {
		fired++
		res, at = r, rig.engine.Now()
	})
	rig.engine.Run()
	if fired != 1 {
		t.Fatalf("done fired %d times, want exactly once", fired)
	}
	if res.Success || !res.DeadlineExceeded {
		t.Fatalf("result = %+v, want deadline failure", res)
	}
	if at != 50*time.Millisecond || res.Latency != 50*time.Millisecond {
		t.Fatalf("failed at %v with latency %v, want exactly the 50ms deadline", at, res.Latency)
	}
	labels := metrics.Labels{"service": "api"}
	if v := counterValue(t, rig.reg, MetricDeadlineExceededTotal, labels); v != 1 {
		t.Fatalf("deadline counter = %v, want 1", v)
	}
	// The straggler response (at ~201ms) lands after the op settled and
	// must be accounted as duplicate load, not delivered.
	if v := counterValue(t, rig.reg, MetricDuplicatesTotal, labels); v != 1 {
		t.Fatalf("duplicates counter = %v, want 1", v)
	}
}

func TestCallWithinInheritsTighterDeadline(t *testing.T) {
	rig := newRig(t, map[string]*scriptServer{"b1": {latency: 200 * time.Millisecond, ok: true}})
	if err := rig.client.Apply("api", Policy{Deadline: time.Second}); err != nil {
		t.Fatal(err)
	}
	var res Result
	// The enclosing request has only 30ms of budget left; the service's
	// own 1s deadline must not stretch it.
	_ = rig.client.CallWithin(30*time.Millisecond, "cluster-1", "api", func(r Result) { res = r })
	rig.engine.Run()
	if !res.DeadlineExceeded || res.Latency != 30*time.Millisecond {
		t.Fatalf("result = %+v, want failure at the inherited 30ms deadline", res)
	}
}

func TestRetryStopsWhenDeadlineCannotBeMet(t *testing.T) {
	srv := &scriptServer{latency: 5 * time.Millisecond, ok: false}
	rig := newRig(t, map[string]*scriptServer{"b1": srv})
	// First failure lands at ~6ms; the next backoff (100ms, no jitter)
	// would fire past the 50ms deadline, so the client must report the
	// failure immediately instead of burning the remaining budget.
	err := rig.client.Apply("api", Policy{
		Deadline: 50 * time.Millisecond,
		Retry:    RetryConfig{MaxAttempts: 3, Backoff: 100 * time.Millisecond, Jitter: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	var at time.Duration
	_ = rig.client.Call("cluster-1", "api", func(r Result) { res, at = r, rig.engine.Now() })
	rig.engine.Run()
	if res.Success || res.DeadlineExceeded {
		t.Fatalf("result = %+v, want plain failure (not deadline-fired)", res)
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (retry pointless past deadline)", res.Attempts)
	}
	if at != 6*time.Millisecond {
		t.Fatalf("reported at %v, want immediately at first failure (6ms)", at)
	}
}

func TestRetriesRecoverAfterTransientFailure(t *testing.T) {
	srv := &scriptServer{latency: 2 * time.Millisecond, ok: false}
	rig := newRig(t, map[string]*scriptServer{"b1": srv})
	err := rig.client.Apply("api", Policy{
		Retry: RetryConfig{MaxAttempts: 3, Backoff: 10 * time.Millisecond, Jitter: -1, BudgetRatio: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Heal the backend after the first failure.
	rig.engine.ScheduleAfter(5*time.Millisecond, func() { srv.ok = true })
	var res Result
	_ = rig.client.Call("cluster-1", "api", func(r Result) { res = r })
	rig.engine.Run()
	if !res.Success || res.Attempts != 2 {
		t.Fatalf("result = %+v, want success on attempt 2", res)
	}
	if v := counterValue(t, rig.reg, MetricRetriesTotal, metrics.Labels{"service": "api"}); v != 1 {
		t.Fatalf("retries counter = %v, want 1", v)
	}
}

func TestRetryBudgetBoundsRetryRatio(t *testing.T) {
	srv := &scriptServer{latency: time.Millisecond, ok: false}
	rig := newRig(t, map[string]*scriptServer{"b1": srv})
	const ratio, burst = 0.1, 5.0
	err := rig.client.Apply("api", Policy{
		Retry: RetryConfig{MaxAttempts: 3, Backoff: time.Millisecond, Jitter: -1, BudgetRatio: ratio, BudgetBurst: burst},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		rig.engine.ScheduleAfter(time.Duration(i)*10*time.Millisecond, func() {
			_ = rig.client.Call("cluster-1", "api", func(Result) {})
		})
	}
	rig.engine.Run()
	labels := metrics.Labels{"service": "api"}
	retries := counterValue(t, rig.reg, MetricRetriesTotal, labels)
	max := ratio*n + burst
	if retries > max {
		t.Fatalf("retries = %v for %d requests, budget allows at most %v", retries, n, max)
	}
	if retries < ratio*n/2 {
		t.Fatalf("retries = %v, suspiciously below the earned budget (~%v)", retries, ratio*n)
	}
	if v := counterValue(t, rig.reg, MetricBudgetExhaustedTotal, labels); v == 0 {
		t.Fatal("budget never reported exhaustion under sustained failure")
	}

	// Naive configuration (ratio 0): every request retries to MaxAttempts.
	rig2 := newRig(t, map[string]*scriptServer{"b1": {latency: time.Millisecond, ok: false}})
	if err := rig2.client.Apply("api", Policy{
		Retry: RetryConfig{MaxAttempts: 3, Backoff: time.Millisecond, Jitter: -1},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		rig2.engine.ScheduleAfter(time.Duration(i)*10*time.Millisecond, func() {
			_ = rig2.client.Call("cluster-1", "api", func(Result) {})
		})
	}
	rig2.engine.Run()
	if v := counterValue(t, rig2.reg, MetricRetriesTotal, labels); v != 100 {
		t.Fatalf("naive retries = %v, want 50×2 = 100", v)
	}
}

func TestHedgeWinsOverSlowPrimary(t *testing.T) {
	srv := &scriptServer{latency: 300 * time.Millisecond, ok: true}
	rig := newRig(t, map[string]*scriptServer{"b1": srv})
	err := rig.client.Apply("api", Policy{Hedge: HedgeConfig{Delay: 50 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	// The primary (launched at t=0) is stuck at 300ms; by hedge time the
	// backend has recovered, so the hedge returns fast and wins.
	rig.engine.ScheduleAfter(20*time.Millisecond, func() { srv.latency = 10 * time.Millisecond })
	var res Result
	_ = rig.client.Call("cluster-1", "api", func(r Result) { res = r })
	rig.engine.Run()
	if !res.Success || !res.Hedged || res.Attempts != 2 {
		t.Fatalf("result = %+v, want hedged success with 2 attempts", res)
	}
	// Hedge launches at 50ms, serves 10ms + 1ms hops → 61ms total.
	if res.Latency != 61*time.Millisecond {
		t.Fatalf("latency = %v, want 61ms (hedge path), not 301ms (primary)", res.Latency)
	}
	labels := metrics.Labels{"service": "api"}
	if v := counterValue(t, rig.reg, MetricHedgesTotal, labels); v != 1 {
		t.Fatalf("hedges counter = %v, want 1", v)
	}
	if v := counterValue(t, rig.reg, MetricDuplicatesTotal, labels); v != 1 {
		t.Fatalf("duplicates counter = %v, want 1 (the losing primary)", v)
	}
	if srv.served != 2 {
		t.Fatalf("backend served %d requests, want 2", srv.served)
	}
}

func TestHedgeLearnsPercentileThreshold(t *testing.T) {
	srv := &scriptServer{latency: 10 * time.Millisecond, ok: true}
	rig := newRig(t, map[string]*scriptServer{"b1": srv})
	err := rig.client.Apply("api", Policy{Hedge: HedgeConfig{Percentile: 0.95}})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the latency tracker past the recompute threshold, then make
	// the backend slow: subsequent requests must hedge at ~p95 (≈11ms
	// client-side) instead of waiting the full 500ms.
	for i := 0; i < 100; i++ {
		rig.engine.ScheduleAfter(time.Duration(i)*20*time.Millisecond, func() {
			_ = rig.client.Call("cluster-1", "api", func(Result) {})
		})
	}
	rig.engine.RunUntil(3 * time.Second)
	srv.latency = 500 * time.Millisecond
	var res Result
	_ = rig.client.Call("cluster-1", "api", func(r Result) { res = r })
	// Heal right after the primary is committed to its 500ms, so the
	// hedge (due at ~p95 ≈ 11ms) lands on a fast backend.
	rig.engine.ScheduleAfter(2*time.Millisecond, func() { srv.latency = 10 * time.Millisecond })
	rig.engine.Run()
	if !res.Hedged || !res.Success {
		t.Fatalf("result = %+v, want hedged success", res)
	}
	if res.Latency >= 100*time.Millisecond {
		t.Fatalf("latency = %v, want well under the 501ms primary (hedge at learned p95)", res.Latency)
	}
}

func TestHedgeSpendsBudget(t *testing.T) {
	srv := &scriptServer{latency: 300 * time.Millisecond, ok: true}
	rig := newRig(t, map[string]*scriptServer{"b1": srv})
	err := rig.client.Apply("api", Policy{
		Retry: RetryConfig{MaxAttempts: 2, Backoff: time.Millisecond, Jitter: -1, BudgetRatio: 0.1, BudgetBurst: 1},
		Hedge: HedgeConfig{Delay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two concurrent slow requests, one token in the bucket: only the
	// first can hedge, the second is denied by the budget.
	for i := 0; i < 2; i++ {
		_ = rig.client.Call("cluster-1", "api", func(Result) {})
	}
	rig.engine.Run()
	labels := metrics.Labels{"service": "api"}
	if v := counterValue(t, rig.reg, MetricHedgesTotal, labels); v != 1 {
		t.Fatalf("hedges = %v, want 1 (second denied by budget)", v)
	}
	if v := counterValue(t, rig.reg, MetricBudgetExhaustedTotal, labels); v != 1 {
		t.Fatalf("budget exhaustions = %v, want 1", v)
	}
}

func TestParsePolicy(t *testing.T) {
	p, err := ParsePolicy("deadline=1s,retries=3,backoff=10ms,factor=1.5,jitter=0.3,budget=0.2,burst=20,hedge=p95,hedgemin=5ms,breaker=5,ejection=5s,maxejection=40s,maxejectpct=0.4")
	if err != nil {
		t.Fatal(err)
	}
	want := Policy{
		Deadline: time.Second,
		Retry:    RetryConfig{MaxAttempts: 3, Backoff: 10 * time.Millisecond, BackoffFactor: 1.5, Jitter: 0.3, BudgetRatio: 0.2, BudgetBurst: 20},
		Hedge:    HedgeConfig{Percentile: 0.95, MinDelay: 5 * time.Millisecond},
		Breaker:  BreakerConfig{ConsecutiveFailures: 5, BaseEjection: 5 * time.Second, MaxEjection: 40 * time.Second, MaxEjectionPercent: 0.4},
	}
	if p != want {
		t.Fatalf("ParsePolicy = %+v, want %+v", p, want)
	}
	if _, err := ParsePolicy("hedge=75ms"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"nope=1", "deadline", "retries=x", "hedge=pxx", "budget=-0.1", "deadline=-1s", "retries=-2", "hedge=p-5"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Fatalf("ParsePolicy(%q) accepted", bad)
		}
	}
	// A NaN or an infinity is refused by name; String would hide it (a NaN
	// budget prints as no budget) while the policy ran with it.
	for _, bad := range []string{"retries=3,budget=NaN", "factor=+Inf", "maxejectpct=NaN", "burst=Inf", "jitter=NaN", "jitter=+Inf", "hedge=pNaN", "hedge=pInf"} {
		key, _, _ := strings.Cut(bad[strings.LastIndexByte(bad, ',')+1:], "=")
		if _, err := ParsePolicy(bad); err == nil || !strings.Contains(err.Error(), "bad "+key+" value") {
			t.Fatalf("ParsePolicy(%q) = %v, want an error naming %s", bad, err, key)
		}
	}
	if p, err := ParsePolicy("retries=3,jitter=-Inf"); err != nil || !math.IsInf(p.Retry.Jitter, -1) {
		t.Fatalf(`ParsePolicy("retries=3,jitter=-Inf") = %+v, %v; want jitter disabled`, p.Retry, err)
	}
}

// FuzzParsePolicy: any policy string parses or is refused without a panic;
// an accepted policy holds no NaN or infinity (but jitter's -Inf, which
// disables it), its String parses again, and renders the same once more.
func FuzzParsePolicy(f *testing.F) {
	for _, seed := range []string{"", "off", "deadline=1s,retries=3,backoff=10ms,factor=1.5,jitter=0.3,budget=0.2,burst=20,hedge=p95,hedgemin=5ms,breaker=5,ejection=5s,maxejection=40s,maxejectpct=0.4",
		"hedge=75ms", "retries=3,budget=NaN", "factor=+Inf", "maxejectpct=NaN", "jitter=-Inf", "hedge=p-5", "hedge=p0.3", "retries=3,pertry=1.5ns", "retries=1", " retries = 2 , , budget=0x1p-2"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePolicy(s)
		if err != nil {
			return
		}
		for _, v := range []float64{p.Retry.BackoffFactor, max(p.Retry.Jitter, 0), p.Retry.BudgetRatio, p.Retry.BudgetBurst, p.Hedge.Percentile, p.Breaker.MaxEjectionPercent} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("ParsePolicy(%q) accepted a non-finite value: %+v", s, p)
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

func TestPolicyStringRoundTrips(t *testing.T) {
	p := Policy{
		Deadline: time.Second,
		Retry:    RetryConfig{MaxAttempts: 3, Backoff: 10 * time.Millisecond, BudgetRatio: 0.2},
		Hedge:    HedgeConfig{Percentile: 0.95},
		Breaker:  BreakerConfig{ConsecutiveFailures: 5},
	}
	back, err := ParsePolicy(p.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", p.String(), err)
	}
	if back != p {
		t.Fatalf("round trip %q = %+v, want %+v", p.String(), back, p)
	}
	if (Policy{}).String() != "off" {
		t.Fatalf("zero policy String = %q, want off", (Policy{}).String())
	}
	if back, err := ParsePolicy("off"); err != nil || back != (Policy{}) {
		t.Fatalf(`ParsePolicy("off") = %+v, %v; want the zero policy`, back, err)
	}
}

func TestApplyUnknownServiceErrors(t *testing.T) {
	rig := newRig(t, map[string]*scriptServer{"b1": {latency: time.Millisecond, ok: true}})
	if err := rig.client.Apply("nope", Policy{Deadline: time.Second}); err == nil {
		t.Fatal("Apply for unknown service accepted")
	}
}

func TestDeterministicAcrossIdenticalRuns(t *testing.T) {
	run := func() (Result, float64) {
		srv := &scriptServer{latency: 2 * time.Millisecond, ok: false}
		rig := newRig(t, map[string]*scriptServer{"b1": srv})
		_ = rig.client.Apply("api", Policy{
			Deadline: 80 * time.Millisecond,
			Retry:    RetryConfig{MaxAttempts: 4, Backoff: 5 * time.Millisecond, Jitter: 0.4, BudgetRatio: 0.5},
		})
		rig.engine.ScheduleAfter(10*time.Millisecond, func() { srv.ok = true })
		var last Result
		for i := 0; i < 20; i++ {
			rig.engine.ScheduleAfter(time.Duration(i)*3*time.Millisecond, func() {
				_ = rig.client.Call("cluster-1", "api", func(r Result) { last = r })
			})
		}
		rig.engine.Run()
		return last, counterValue(t, rig.reg, MetricRetriesTotal, metrics.Labels{"service": "api"})
	}
	r1, c1 := run()
	r2, c2 := run()
	if r1 != r2 || c1 != c2 {
		t.Fatalf("identical seeded runs diverged: %+v/%v vs %+v/%v", r1, c1, r2, c2)
	}
}

func TestAttemptTimeoutAbandonsSlowAttemptsAndRetries(t *testing.T) {
	// 100ms backend behind a 20ms per-try timeout: every attempt is
	// abandoned and retried until MaxAttempts, and the logical request
	// fails long before the first response would have arrived. All three
	// abandoned responses land as duplicates — the wasted work the server
	// still performed.
	srv := &scriptServer{latency: 100 * time.Millisecond, ok: true}
	rig := newRig(t, map[string]*scriptServer{"b1": srv})
	if err := rig.client.Apply("api", Policy{
		Retry: RetryConfig{MaxAttempts: 3, AttemptTimeout: 20 * time.Millisecond, Backoff: 5 * time.Millisecond, Jitter: -1},
	}); err != nil {
		t.Fatal(err)
	}
	var res Result
	fired := 0
	if err := rig.client.Call("cluster-1", "api", func(r Result) { fired++; res = r }); err != nil {
		t.Fatal(err)
	}
	rig.engine.Run()
	if fired != 1 {
		t.Fatalf("done fired %d times", fired)
	}
	if res.Success || res.Attempts != 3 {
		t.Fatalf("result = %+v, want 3 abandoned attempts and failure", res)
	}
	// Timeouts at 20/45/75ms (backoff 5ms doubling to 10ms between), final
	// failure at the third timeout.
	if res.Latency != 75*time.Millisecond {
		t.Fatalf("latency = %v, want 75ms", res.Latency)
	}
	if srv.served != 3 {
		t.Fatalf("server saw %d attempts, want 3 (abandoned work still served)", srv.served)
	}
	if d := counterValue(t, rig.reg, MetricDuplicatesTotal, metrics.Labels{"service": "api"}); d != 3 {
		t.Fatalf("duplicates = %v, want 3 late responses", d)
	}
}

func TestAttemptTimeoutRetrySucceedsAfterHeal(t *testing.T) {
	srv := &scriptServer{latency: 100 * time.Millisecond, ok: true}
	rig := newRig(t, map[string]*scriptServer{"b1": srv})
	if err := rig.client.Apply("api", Policy{
		Retry: RetryConfig{MaxAttempts: 3, AttemptTimeout: 20 * time.Millisecond, Backoff: 5 * time.Millisecond, Jitter: -1},
	}); err != nil {
		t.Fatal(err)
	}
	// Heal before the retry launches: the second attempt answers fast.
	rig.engine.After(10*time.Millisecond, func() { srv.latency = time.Millisecond })
	var res Result
	if err := rig.client.Call("cluster-1", "api", func(r Result) { res = r }); err != nil {
		t.Fatal(err)
	}
	rig.engine.Run()
	if !res.Success || res.Attempts != 2 {
		t.Fatalf("result = %+v, want success on the second attempt", res)
	}
	// Abandoned at 20ms, retry at 25ms, 1ms exec + 1ms hops.
	if res.Latency != 27*time.Millisecond {
		t.Fatalf("latency = %v, want 27ms", res.Latency)
	}
	if d := counterValue(t, rig.reg, MetricDuplicatesTotal, metrics.Labels{"service": "api"}); d != 1 {
		t.Fatalf("duplicates = %v, want 1 (the abandoned first attempt)", d)
	}
}

func TestParsePolicyPerTryTimeout(t *testing.T) {
	p, err := ParsePolicy("retries=3,pertry=250ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.Retry.AttemptTimeout != 250*time.Millisecond {
		t.Fatalf("AttemptTimeout = %v", p.Retry.AttemptTimeout)
	}
	if s := p.String(); s != "retries=3,pertry=250ms" {
		t.Fatalf("String() = %q", s)
	}
}

// TestPlainRetries pins the unbudgeted retry client (the configuration the
// bench's retry-penalty ablation runs): recorded latency spans every
// attempt plus geometrically growing backoff, MaxAttempts bounds the tries,
// done fires exactly once, and a deadline admits only the retries whose
// backoff still fits.
func TestPlainRetries(t *testing.T) {
	cases := []struct {
		name         string
		srv          scriptServer
		policy       Policy
		wantSuccess  bool
		wantAttempts int
		wantLatency  time.Duration
	}{
		// 3 attempts × 11ms + backoffs 20ms + 40ms.
		{"succeeds on the third try", scriptServer{latency: 10 * time.Millisecond, ok: true, failFirst: 2},
			Policy{Retry: RetryConfig{MaxAttempts: 3, Backoff: 20 * time.Millisecond, Jitter: -1}},
			true, 3, 93 * time.Millisecond},
		// Instant failures isolate the backoff: 4 × 1ms hops + 10+30+90.
		{"gives up after max attempts", scriptServer{},
			Policy{Retry: RetryConfig{MaxAttempts: 4, Backoff: 10 * time.Millisecond, BackoffFactor: 3, Jitter: -1}},
			false, 4, 134 * time.Millisecond},
		// First failure at 1ms, retry at 51ms fails at 52ms; the next
		// backoff (100ms) would cross the 60ms deadline.
		{"deadline leaves room for one retry", scriptServer{},
			Policy{Deadline: 60 * time.Millisecond,
				Retry: RetryConfig{MaxAttempts: 4, Backoff: 50 * time.Millisecond, Jitter: -1}},
			false, 2, 52 * time.Millisecond},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			srv := tc.srv
			rig := newRig(t, map[string]*scriptServer{"b1": &srv})
			if err := rig.client.Apply("api", tc.policy); err != nil {
				t.Fatal(err)
			}
			fired := 0
			var res Result
			if err := rig.client.Call("cluster-1", "api", func(r Result) { res = r; fired++ }); err != nil {
				t.Fatal(err)
			}
			rig.engine.Run()
			if fired != 1 {
				t.Fatalf("done fired %d times, want exactly once", fired)
			}
			if res.Success != tc.wantSuccess || res.Attempts != tc.wantAttempts || res.Latency != tc.wantLatency {
				t.Fatalf("result = %+v, want success=%v attempts=%d latency=%v",
					res, tc.wantSuccess, tc.wantAttempts, tc.wantLatency)
			}
		})
	}
}

func TestCallUnknownServiceErrorsSynchronously(t *testing.T) {
	rig := newRig(t, map[string]*scriptServer{"b1": {latency: time.Millisecond, ok: true}})
	if err := rig.client.Call("cluster-1", "nope", func(Result) {}); err == nil {
		t.Fatal("unknown service accepted")
	}
	if err := rig.client.Call("cluster-2", "api", func(Result) {}); err == nil {
		t.Fatal("call from a cluster the client is not bound to accepted")
	}
}

// TestRetriesLiftSuccessGeometrically: 50% failure per attempt and 3
// attempts leave a failure probability of 1/8.
func TestRetriesLiftSuccessGeometrically(t *testing.T) {
	e := sim.NewEngine()
	m := mesh.New(e, sim.NewRand(1), wan.New(wan.DefaultConfig()), metrics.NewRegistry())
	if _, err := m.AddService("api"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddBackend("api", "b", "cluster-1", backend.Config{},
		func(_ time.Duration, r *sim.Rand) (time.Duration, bool) {
			return time.Millisecond, r.Bool(0.5)
		}); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(m, "cluster-1", sim.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Apply("api", Policy{Retry: RetryConfig{MaxAttempts: 3}}); err != nil {
		t.Fatal(err)
	}
	succ, total := 0, 2000
	for i := 0; i < total; i++ {
		e.ScheduleAfter(time.Duration(i)*5*time.Millisecond, func() {
			_ = c.Call("cluster-1", "api", func(r Result) {
				if r.Success {
					succ++
				}
			})
		})
	}
	e.Run()
	if rate := float64(succ) / float64(total); rate < 0.85 || rate > 0.90 {
		t.Fatalf("success after 3 attempts = %v, want ~0.875", rate)
	}
}

// TestJitterSpreadsBackoffDeterministically: lockstep clients would all
// wait 10+20+40 = 70ms of backoff; ±50% jitter must spread them inside its
// envelope, reproducibly for a seed and differently across seeds.
func TestJitterSpreadsBackoffDeterministically(t *testing.T) {
	run := func(seed uint64) []time.Duration {
		// Instant failures isolate the backoff contribution; each request's
		// total latency is 4×1ms hops + the three jittered backoffs.
		rig := newRig(t, map[string]*scriptServer{"b1": {}})
		c, err := NewClient(rig.mesh, "cluster-1", sim.NewRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Apply("api", Policy{
			Retry: RetryConfig{MaxAttempts: 4, Backoff: 10 * time.Millisecond, Jitter: 0.5},
		}); err != nil {
			t.Fatal(err)
		}
		var lats []time.Duration
		for i := 0; i < 8; i++ {
			rig.engine.ScheduleAfter(time.Duration(i)*time.Second, func() {
				_ = c.Call("cluster-1", "api", func(r Result) { lats = append(lats, r.Latency) })
			})
		}
		rig.engine.Run()
		return lats
	}
	a := run(7)
	distinct := map[time.Duration]bool{}
	for _, l := range a {
		distinct[l] = true
		backoff := l - 4*time.Millisecond
		if backoff < 35*time.Millisecond || backoff > 105*time.Millisecond {
			t.Fatalf("jittered backoff sum %v outside ±50%% envelope of 70ms", backoff)
		}
		if backoff == 70*time.Millisecond {
			t.Fatalf("backoff exactly nominal; jitter not applied")
		}
	}
	if len(distinct) < 4 {
		t.Fatalf("only %d distinct latencies in 8 jittered runs; clients still in lockstep", len(distinct))
	}
	if b := run(7); !reflect.DeepEqual(a, b) {
		t.Fatalf("seeded jitter not deterministic: %v vs %v", a, b)
	}
	if c := run(8); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical jitter")
	}
}
