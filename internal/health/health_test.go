package health

import (
	"testing"
	"time"

	"l3/internal/backend"
	"l3/internal/balancer"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/sim"
)

// flakyServer fails (or hangs) on demand.
type flakyServer struct {
	engine  *sim.Engine
	latency time.Duration
	fail    bool
	hang    bool
	probes  int
}

func (s *flakyServer) Serve(done func(backend.Result)) {
	s.probes++
	if s.hang {
		return // never answers
	}
	ok := !s.fail
	s.engine.After(s.latency, func() {
		done(backend.Result{Latency: s.latency, Success: ok})
	})
}

func newBackend(e *sim.Engine, name string) (*mesh.Backend, *flakyServer) {
	srv := &flakyServer{engine: e, latency: 5 * time.Millisecond}
	return &mesh.Backend{Name: name, Cluster: "c", Server: srv}, srv
}

func TestBackendStartsHealthy(t *testing.T) {
	e := sim.NewEngine()
	c := NewChecker(e, Config{})
	b, _ := newBackend(e, "b")
	c.Watch(b)
	if !c.Healthy("b") || !c.Healthy("unknown") {
		t.Fatal("backends must start (and default) healthy")
	}
}

func TestEjectionAfterConsecutiveFailures(t *testing.T) {
	e := sim.NewEngine()
	c := NewChecker(e, Config{Interval: 10 * time.Second})
	b, srv := newBackend(e, "b")
	c.Watch(b)
	srv.fail = true
	e.RunUntil(25 * time.Second) // two failed probes: still in rotation
	if !c.Healthy("b") {
		t.Fatal("ejected before the threshold")
	}
	e.RunUntil(35 * time.Second) // third failure
	if c.Healthy("b") {
		t.Fatal("not ejected after 3 consecutive failures")
	}
	if c.Transitions("b") != 1 {
		t.Fatalf("transitions = %d", c.Transitions("b"))
	}
}

func TestRecoveryAfterConsecutiveSuccesses(t *testing.T) {
	e := sim.NewEngine()
	c := NewChecker(e, Config{Interval: 10 * time.Second})
	b, srv := newBackend(e, "b")
	c.Watch(b)
	srv.fail = true
	e.RunUntil(35 * time.Second)
	if c.Healthy("b") {
		t.Fatal("setup: not ejected")
	}
	srv.fail = false
	e.RunUntil(45 * time.Second) // one success: not yet
	if c.Healthy("b") {
		t.Fatal("restored after a single success")
	}
	e.RunUntil(60 * time.Second) // second success
	if !c.Healthy("b") {
		t.Fatal("not restored after 2 consecutive successes")
	}
}

func TestIntermittentFailuresDoNotEject(t *testing.T) {
	e := sim.NewEngine()
	c := NewChecker(e, Config{Interval: 10 * time.Second})
	b, srv := newBackend(e, "b")
	c.Watch(b)
	// Alternate failure and success: consecFail never reaches 3.
	e.Every(10*time.Second, func() { srv.fail = !srv.fail })
	e.RunUntil(5 * time.Minute)
	if !c.Healthy("b") {
		t.Fatal("intermittent failures ejected the backend")
	}
}

func TestTimeoutCountsAsFailure(t *testing.T) {
	e := sim.NewEngine()
	c := NewChecker(e, Config{Interval: 10 * time.Second, Timeout: time.Second})
	b, srv := newBackend(e, "b")
	c.Watch(b)
	srv.hang = true
	e.RunUntil(35 * time.Second) // third probe times out at 31 s
	if c.Healthy("b") {
		t.Fatal("hanging backend not ejected via probe timeout")
	}
}

func TestLateAnswerAfterTimeoutIgnored(t *testing.T) {
	e := sim.NewEngine()
	c := NewChecker(e, Config{Interval: 10 * time.Second, Timeout: time.Second})
	b, srv := newBackend(e, "b")
	srv.latency = 3 * time.Second // always answers, but after the timeout
	c.Watch(b)
	e.RunUntil(40 * time.Second)
	if c.Healthy("b") {
		t.Fatal("slow-answering backend should count as failing")
	}
}

func TestWatchIsIdempotentAndStopHalts(t *testing.T) {
	e := sim.NewEngine()
	c := NewChecker(e, Config{Interval: 10 * time.Second})
	b, srv := newBackend(e, "b")
	c.Watch(b)
	c.Watch(b) // second Watch must not double-probe
	e.RunUntil(35 * time.Second)
	if srv.probes != 3 {
		t.Fatalf("probes = %d, want 3 (one per interval)", srv.probes)
	}
	c.Stop()
	e.RunUntil(2 * time.Minute)
	if srv.probes != 3 {
		t.Fatalf("probing continued after Stop: %d", srv.probes)
	}
}

func TestFailoverPickerFiltersUnhealthy(t *testing.T) {
	e := sim.NewEngine()
	c := NewChecker(e, Config{Interval: 10 * time.Second})
	good, _ := newBackend(e, "good")
	bad, badSrv := newBackend(e, "bad")
	c.WatchAll([]*mesh.Backend{good, bad})
	badSrv.fail = true
	e.RunUntil(35 * time.Second)
	if c.Healthy("bad") {
		t.Fatal("setup: not ejected")
	}

	p := balancer.NewFilter(func(_ time.Duration, name string) bool { return c.Healthy(name) }, balancer.NewRoundRobin(), nil)
	for i := 0; i < 10; i++ {
		if got := p.Pick(0, "c1", "svc", []*mesh.Backend{good, bad}); got.Name != "good" {
			t.Fatalf("picked ejected backend %s", got.Name)
		}
	}
}

func TestFailoverPickerFailsOpen(t *testing.T) {
	e := sim.NewEngine()
	c := NewChecker(e, Config{Interval: 10 * time.Second})
	a, aSrv := newBackend(e, "a")
	b, bSrv := newBackend(e, "b")
	c.WatchAll([]*mesh.Backend{a, b})
	aSrv.fail, bSrv.fail = true, true
	e.RunUntil(35 * time.Second)
	if c.Healthy("a") || c.Healthy("b") {
		t.Fatal("setup: not both ejected")
	}
	p := balancer.NewFilter(func(_ time.Duration, name string) bool { return c.Healthy(name) }, balancer.NewRoundRobin(), nil)
	if got := p.Pick(0, "c1", "svc", []*mesh.Backend{a, b}); got == nil {
		t.Fatal("all-unhealthy must fail open, not return nil")
	}
}

func TestNilEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil clock did not panic")
		}
	}()
	NewChecker(nil, Config{})
}

func TestStopSilencesInFlightProbeTimeout(t *testing.T) {
	// A probe launched just before Stop leaves its timeout timer armed.
	// Without the stopped guard that timer fires later, records a
	// failure, and can eject a backend from a checker the caller already
	// shut down.
	e := sim.NewEngine()
	reg := metrics.NewRegistry()
	c := NewChecker(e, Config{Interval: 10 * time.Second, Timeout: time.Second, Registry: reg})
	b, srv := newBackend(e, "b")
	srv.hang = true // probe will never answer; only the timeout could record
	c.Watch(b)
	// Two probes have timed out; the third fires now and its timeout,
	// armed for t=31s, would be the ejecting failure.
	e.RunUntil(30 * time.Second)
	c.Stop()
	e.RunUntil(time.Minute)
	if !c.Healthy("b") {
		t.Fatal("in-flight probe timeout ejected backend after Stop")
	}
	if v := reg.Counter(MetricEjectionsTotal, metrics.Labels{"backend": "b"}).Value(); v != 0 {
		t.Fatalf("ejections counted after Stop: %v", v)
	}
}

func TestStopIsTerminalAndIdempotent(t *testing.T) {
	e := sim.NewEngine()
	c := NewChecker(e, Config{Interval: 10 * time.Second})
	b, srv := newBackend(e, "b")
	c.Watch(b)
	e.RunUntil(15 * time.Second)
	c.Stop()
	c.Stop() // idempotent
	c.Watch(b)
	b2, srv2 := newBackend(e, "b2")
	c.Watch(b2) // Watch after Stop must not restart probing
	e.RunUntil(2 * time.Minute)
	if srv.probes != 1 || srv2.probes != 0 {
		t.Fatalf("probes after Stop: %d/%d, want 1/0", srv.probes, srv2.probes)
	}
	// State frozen at Stop remains queryable.
	if !c.Healthy("b") {
		t.Fatal("frozen state lost")
	}
}

func TestStopDuringRunInterleavesCleanly(t *testing.T) {
	// Stop issued from inside the event loop (as a bench teardown does),
	// racing the same tick that launches a probe: timestamp-ordered
	// delivery must leave no probe activity after the stop event.
	e := sim.NewEngine()
	c := NewChecker(e, Config{Interval: 10 * time.Second, Timeout: time.Second})
	b, srv := newBackend(e, "b")
	srv.fail = true
	c.Watch(b)
	e.At(25*time.Second, func() { c.Stop() })
	e.RunUntil(5 * time.Minute)
	if srv.probes != 2 {
		t.Fatalf("probes = %d, want the 2 pre-Stop ticks", srv.probes)
	}
}

func TestEjectionRestoreCountersStayConsistent(t *testing.T) {
	// Drive a flapping backend through many eject/restore cycles and pin
	// the counter invariants: ejections == healthy→unhealthy transitions,
	// restores == the reverse, and the difference matches the final state.
	e := sim.NewEngine()
	reg := metrics.NewRegistry()
	c := NewChecker(e, Config{Interval: time.Second, Timeout: 100 * time.Millisecond, Registry: reg})
	b, srv := newBackend(e, "b")
	srv.latency = time.Millisecond
	c.Watch(b)
	e.Every(5*time.Second, func() { srv.fail = !srv.fail })
	e.RunUntil(10 * time.Minute)
	c.Stop()
	e.RunUntil(11 * time.Minute)

	ej := reg.Counter(MetricEjectionsTotal, metrics.Labels{"backend": "b"}).Value()
	re := reg.Counter(MetricRestoresTotal, metrics.Labels{"backend": "b"}).Value()
	if ej == 0 {
		t.Fatal("flapping backend never ejected")
	}
	if float64(c.Transitions("b")) != ej+re {
		t.Fatalf("transitions = %d, counters say %v", c.Transitions("b"), ej+re)
	}
	diff := ej - re
	if c.Healthy("b") && diff != 0 {
		t.Fatalf("healthy backend but ejections-restores = %v, want 0", diff)
	}
	if !c.Healthy("b") && diff != 1 {
		t.Fatalf("unhealthy backend but ejections-restores = %v, want 1", diff)
	}
}

func TestCheckersAreIndependentUnderRace(t *testing.T) {
	// Independent engines/checkers on concurrent goroutines: run under
	// `go test -race` this pins that Watch/Stop/record share no hidden
	// global state across instances.
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(seed int) {
			defer func() { done <- struct{}{} }()
			e := sim.NewEngine()
			reg := metrics.NewRegistry()
			c := NewChecker(e, Config{Interval: time.Second, Timeout: 100 * time.Millisecond, Registry: reg})
			b, srv := newBackend(e, "b")
			srv.latency = time.Millisecond
			c.Watch(b)
			e.Every(3*time.Second, func() { srv.fail = !srv.fail })
			e.At(time.Duration(30+seed)*time.Second, func() { c.Stop() })
			e.RunUntil(2 * time.Minute)
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
