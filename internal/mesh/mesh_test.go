package mesh

import (
	"testing"
	"time"

	"l3/internal/backend"
	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/wan"
)

func newTestMesh(t *testing.T) (*Mesh, *sim.Engine) {
	t.Helper()
	e := sim.NewEngine()
	m := New(e, sim.NewRand(1), wan.New(wan.DefaultConfig()), metrics.NewRegistry())
	return m, e
}

func constProfile(d time.Duration, ok bool) backend.Profile {
	return func(time.Duration, *sim.Rand) (time.Duration, bool) { return d, ok }
}

func addBackend(t *testing.T, m *Mesh, svc, name, cluster string, d time.Duration, ok bool) *Backend {
	t.Helper()
	b, err := m.AddBackend(svc, name, cluster, backend.Config{}, constProfile(d, ok))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// pickFirst always routes to the first backend.
type pickFirst struct{}

func (pickFirst) Pick(_ time.Duration, _, _ string, bs []*Backend) *Backend { return bs[0] }

// recordingPicker routes to the first backend and records observations.
type recordingPicker struct {
	observed []string
}

func (p *recordingPicker) Pick(_ time.Duration, _, _ string, bs []*Backend) *Backend { return bs[0] }
func (p *recordingPicker) Observe(_ time.Duration, src, b string, _ time.Duration, _ bool) {
	p.observed = append(p.observed, src+"->"+b)
}

func TestAddServiceAndBackendValidation(t *testing.T) {
	m, _ := newTestMesh(t)
	if _, err := m.AddService(""); err == nil {
		t.Fatal("empty service name accepted")
	}
	if _, err := m.AddService("api"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddService("api"); err == nil {
		t.Fatal("duplicate service accepted")
	}
	if _, err := m.AddBackend("nope", "b", "c1", backend.Config{}, constProfile(0, true)); err == nil {
		t.Fatal("backend for unknown service accepted")
	}
	addBackend(t, m, "api", "api-c1", "cluster-1", time.Millisecond, true)
	if _, err := m.AddBackend("api", "api-c1", "cluster-1", backend.Config{}, constProfile(0, true)); err == nil {
		t.Fatal("duplicate backend accepted")
	}
	svc, ok := m.Service("api")
	if !ok || len(svc.Backends()) != 1 {
		t.Fatal("Service lookup broken")
	}
}

func TestCallUnknownServiceErrors(t *testing.T) {
	m, _ := newTestMesh(t)
	if err := m.Call("cluster-1", "nope", func(Result) {}); err == nil {
		t.Fatal("Call to unknown service did not error")
	}
	_, _ = m.AddService("empty")
	if err := m.Call("cluster-1", "empty", func(Result) {}); err == nil {
		t.Fatal("Call to backend-less service did not error")
	}
}

func TestLocalCallLatencyIsServicePlusLocalHops(t *testing.T) {
	m, e := newTestMesh(t)
	_, _ = m.AddService("api")
	addBackend(t, m, "api", "api-c1", "cluster-1", 100*time.Millisecond, true)
	var res Result
	if err := m.Call("cluster-1", "api", func(r Result) { res = r }); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(time.Second)
	// 100ms exec + 2×500µs local proxy hops.
	want := 101 * time.Millisecond
	if res.Latency != want {
		t.Fatalf("latency = %v, want %v", res.Latency, want)
	}
	if !res.Success || res.Backend != "api-c1" {
		t.Fatalf("result = %+v", res)
	}
}

func TestRemoteCallAddsWANDelay(t *testing.T) {
	m, e := newTestMesh(t)
	_, _ = m.AddService("api")
	addBackend(t, m, "api", "api-c2", "cluster-2", 100*time.Millisecond, true)
	var res Result
	_ = m.Call("cluster-1", "api", func(r Result) { res = r })
	e.RunUntil(time.Second)
	if res.Latency <= 103*time.Millisecond {
		t.Fatalf("remote latency = %v, want clearly above local path (~10ms WAN RTT)", res.Latency)
	}
	if res.Latency > 130*time.Millisecond {
		t.Fatalf("remote latency = %v, implausibly high", res.Latency)
	}
}

func TestPickerChoosesBackend(t *testing.T) {
	m, e := newTestMesh(t)
	_, _ = m.AddService("api")
	addBackend(t, m, "api", "api-c1", "cluster-1", time.Millisecond, true)
	addBackend(t, m, "api", "api-c2", "cluster-2", time.Millisecond, true)
	if err := m.SetPicker("api", pickFirst{}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPicker("nope", pickFirst{}); err == nil {
		t.Fatal("SetPicker on unknown service accepted")
	}
	counts := map[string]int{}
	for i := 0; i < 20; i++ {
		_ = m.Call("cluster-1", "api", func(r Result) { counts[r.Backend]++ })
	}
	e.RunUntil(time.Second)
	if counts["api-c1"] != 20 {
		t.Fatalf("picker bypassed: %v", counts)
	}
}

func TestNilPickerFallsBackToRandom(t *testing.T) {
	m, e := newTestMesh(t)
	_, _ = m.AddService("api")
	addBackend(t, m, "api", "a", "cluster-1", time.Millisecond, true)
	addBackend(t, m, "api", "b", "cluster-2", time.Millisecond, true)
	counts := map[string]int{}
	for i := 0; i < 200; i++ {
		_ = m.Call("cluster-1", "api", func(r Result) { counts[r.Backend]++ })
	}
	e.RunUntil(time.Minute)
	if counts["a"] == 0 || counts["b"] == 0 {
		t.Fatalf("random fallback never used a backend: %v", counts)
	}
}

func TestMetricsRecorded(t *testing.T) {
	m, e := newTestMesh(t)
	_, _ = m.AddService("api")
	addBackend(t, m, "api", "good", "cluster-1", 10*time.Millisecond, true)
	_ = m.SetPicker("api", pickFirst{})
	for i := 0; i < 10; i++ {
		_ = m.Call("cluster-1", "api", func(Result) {})
	}
	e.RunUntil(time.Second)

	reg := m.Registry()
	succ := reg.Counter(MetricResponseTotal, metrics.Labels{
		"service": "api", "backend": "good", "classification": ClassSuccess, "src": "cluster-1",
	})
	if succ.Value() != 10 {
		t.Fatalf("success counter = %v, want 10", succ.Value())
	}
	inflight := reg.Gauge(MetricInflight, metrics.Labels{"service": "api", "backend": "good", "src": "cluster-1"})
	if inflight.Value() != 0 {
		t.Fatalf("inflight at rest = %v, want 0", inflight.Value())
	}
}

func TestFailureClassification(t *testing.T) {
	m, e := newTestMesh(t)
	_, _ = m.AddService("api")
	addBackend(t, m, "api", "bad", "cluster-1", time.Millisecond, false)
	_ = m.SetPicker("api", pickFirst{})
	var failures int
	for i := 0; i < 5; i++ {
		_ = m.Call("cluster-1", "api", func(r Result) {
			if !r.Success {
				failures++
			}
		})
	}
	e.RunUntil(time.Second)
	if failures != 5 {
		t.Fatalf("failures = %d, want 5", failures)
	}
	fail := m.Registry().Counter(MetricResponseTotal, metrics.Labels{
		"service": "api", "backend": "bad", "classification": ClassFailure, "src": "cluster-1",
	})
	if fail.Value() != 5 {
		t.Fatalf("failure counter = %v, want 5", fail.Value())
	}
}

func TestInflightGaugeDuringRequest(t *testing.T) {
	m, e := newTestMesh(t)
	_, _ = m.AddService("api")
	addBackend(t, m, "api", "slow", "cluster-1", time.Second, true)
	_ = m.SetPicker("api", pickFirst{})
	for i := 0; i < 3; i++ {
		_ = m.Call("cluster-1", "api", func(Result) {})
	}
	inflight := m.Registry().Gauge(MetricInflight, metrics.Labels{"service": "api", "backend": "slow", "src": "cluster-1"})
	if inflight.Value() != 3 {
		t.Fatalf("inflight right after issue = %v, want 3", inflight.Value())
	}
	e.RunUntil(500 * time.Millisecond)
	if inflight.Value() != 3 {
		t.Fatalf("inflight mid-flight = %v, want 3", inflight.Value())
	}
	e.RunUntil(5 * time.Second)
	if inflight.Value() != 0 {
		t.Fatalf("inflight after completion = %v, want 0", inflight.Value())
	}
}

func TestObserverReceivesFeedback(t *testing.T) {
	m, e := newTestMesh(t)
	_, _ = m.AddService("api")
	addBackend(t, m, "api", "x", "cluster-1", time.Millisecond, true)
	p := &recordingPicker{}
	_ = m.SetPicker("api", p)
	for i := 0; i < 4; i++ {
		_ = m.Call("cluster-1", "api", func(Result) {})
	}
	e.RunUntil(time.Second)
	if len(p.observed) != 4 {
		t.Fatalf("observer saw %d responses, want 4", len(p.observed))
	}
}

func TestRejectedRequestIsFailure(t *testing.T) {
	m, e := newTestMesh(t)
	_, _ = m.AddService("api")
	b, err := m.AddBackend("api", "tiny", "cluster-1",
		backend.Config{Concurrency: 1, QueueCapacity: 1}, constProfile(time.Second, true))
	if err != nil {
		t.Fatal(err)
	}
	_ = b
	_ = m.SetPicker("api", pickFirst{})
	var results []Result
	for i := 0; i < 3; i++ {
		_ = m.Call("cluster-1", "api", func(r Result) { results = append(results, r) })
	}
	e.RunUntil(time.Minute)
	failures := 0
	for _, r := range results {
		if !r.Success {
			failures++
		}
	}
	if failures != 1 {
		t.Fatalf("shed request not classified as failure: %+v", results)
	}
}

func TestNewPanicsOnNilDeps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil deps) did not panic")
		}
	}()
	New(nil, nil, nil, nil)
}

func TestMetricsSeparatedBySourceCluster(t *testing.T) {
	m, e := newTestMesh(t)
	_, _ = m.AddService("api")
	addBackend(t, m, "api", "b", "cluster-1", time.Millisecond, true)
	_ = m.SetPicker("api", pickFirst{})
	for i := 0; i < 3; i++ {
		_ = m.Call("cluster-1", "api", func(Result) {})
	}
	for i := 0; i < 7; i++ {
		_ = m.Call("cluster-2", "api", func(Result) {})
	}
	e.RunUntil(time.Second)
	reg := m.Registry()
	c1 := reg.Counter(MetricResponseTotal, metrics.Labels{
		"service": "api", "backend": "b", "classification": ClassSuccess, "src": "cluster-1",
	})
	c2 := reg.Counter(MetricResponseTotal, metrics.Labels{
		"service": "api", "backend": "b", "classification": ClassSuccess, "src": "cluster-2",
	})
	if c1.Value() != 3 || c2.Value() != 7 {
		t.Fatalf("per-source counters = %v/%v, want 3/7", c1.Value(), c2.Value())
	}
}

func TestPickerReceivesSourceCluster(t *testing.T) {
	m, e := newTestMesh(t)
	_, _ = m.AddService("api")
	addBackend(t, m, "api", "b", "cluster-1", time.Millisecond, true)
	p := &srcRecorder{}
	_ = m.SetPicker("api", p)
	_ = m.Call("cluster-3", "api", func(Result) {})
	e.RunUntil(time.Second)
	if len(p.srcs) != 1 || p.srcs[0] != "cluster-3" {
		t.Fatalf("picker saw srcs %v", p.srcs)
	}
}

type srcRecorder struct{ srcs []string }

func (s *srcRecorder) Pick(_ time.Duration, src, _ string, bs []*Backend) *Backend {
	s.srcs = append(s.srcs, src)
	return bs[0]
}

// TestQuietFollowsTheInflightGauges: Quiet is false while an attempt is
// unanswered, failed ones included, and true once every answer is in.
func TestQuietFollowsTheInflightGauges(t *testing.T) {
	m, e := newTestMesh(t)
	if _, err := m.AddService("api"); err != nil {
		t.Fatal(err)
	}
	addBackend(t, m, "api", "api-c1", "cluster-1", 50*time.Millisecond, false)
	if err := m.SetPicker("api", pickFirst{}); err != nil {
		t.Fatal(err)
	}
	if !m.Quiet() {
		t.Fatal("a mesh that has issued nothing is not quiet")
	}
	answered := 0
	for _, src := range []string{"cluster-1", "cluster-2"} {
		if err := m.Call(src, "api", func(Result) { answered++ }); err != nil {
			t.Fatal(err)
		}
	}
	if m.Quiet() {
		t.Fatal("quiet with two attempts in flight")
	}
	e.RunUntil(time.Minute)
	if answered != 2 || !m.Quiet() {
		t.Fatalf("%d of 2 answered, quiet %v: want both and quiet", answered, m.Quiet())
	}
}
