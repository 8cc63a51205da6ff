package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"l3/internal/mesh"
	"l3/internal/metrics"
)

func testServer(t *testing.T, mutate func(*Config), stubs ...*StubBackend) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.Algo = AlgoRR
	cfg.ScrapeInterval = 500 * time.Millisecond
	cfg.HealthInterval = 200 * time.Millisecond
	cfg.HealthTimeout = 100 * time.Millisecond
	cfg.DrainTimeout = 5 * time.Second
	for _, s := range stubs {
		cfg.Backends = append(cfg.Backends, s.BackendConfigOf())
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return srv
}

func mustGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

func TestMetricsEndpointAndDrain(t *testing.T) {
	a, err := NewStubBackend("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewStubBackend("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	srv := testServer(t, nil, a, b)
	for i := 0; i < 50; i++ {
		if code, _ := mustGet(t, srv.URL()+"/"); code != http.StatusOK {
			t.Fatalf("proxy request %d: status %d", i, code)
		}
	}

	// /metrics must parse as Prometheus exposition and carry the mesh
	// schema for both backends.
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseExposition(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	var total float64
	seen := map[string]bool{}
	for _, s := range samples {
		if s.Name == mesh.MetricResponseTotal && s.Labels["classification"] == mesh.ClassSuccess {
			total += s.Value
			seen[s.Labels["backend"]] = true
			if s.Labels["service"] != "api" || s.Labels["src"] != srcLabel {
				t.Fatalf("bad label schema on %v", s.Labels)
			}
		}
	}
	if total != 50 {
		t.Fatalf("response_total success sum = %v, want 50", total)
	}
	if !seen["a"] || !seen["b"] {
		t.Fatalf("response_total backends = %v, want both a and b", seen)
	}
	if code, _ := mustGet(t, srv.URL()+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if code, _ := mustGet(t, srv.URL()+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}

	dropped, err := srv.ShutdownTimeout()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if dropped != 0 {
		t.Fatalf("drain dropped %d in-flight requests, want 0", dropped)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	a, err := NewStubBackend("a", 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	srv := testServer(t, nil, a)

	// One slow request in flight across the drain boundary.
	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL() + "/")
		if err != nil {
			done <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond) // let it reach the stub's sleep

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	dropped, err := srv.Shutdown(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if dropped != 0 {
		t.Fatalf("drain dropped %d, want 0 (the in-flight request had 5s to finish)", dropped)
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight request during drain = %d, want 200", code)
	}
	// The listener is closed; fresh connections must fail.
	if _, err := http.Get(srv.URL() + "/"); err == nil {
		t.Fatal("post-drain request succeeded, want connection error")
	}
}

func TestFailoverAvoidsUnhealthyBackend(t *testing.T) {
	good, err := NewStubBackend("good", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	bad, err := NewStubBackend("bad", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	bad.SetUnhealthy(true)

	srv := testServer(t, func(c *Config) { c.Algo = AlgoFailover }, good, bad)
	defer srv.ShutdownTimeout()

	// Wait for the prober to demote the bad backend (threshold is a few
	// failed probes at 200 ms).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if !backendByName(srv, "bad").Healthy() {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if backendByName(srv, "bad").Healthy() {
		t.Fatal("checker never demoted the 503-ing backend")
	}

	before := good.Requests()
	for i := 0; i < 100; i++ {
		if code, _ := mustGet(t, srv.URL()+"/"); code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	if got := good.Requests() - before; got != 100 {
		t.Fatalf("healthy backend served %d of 100 requests, want all", got)
	}
}

func backendByName(srv *Server, name string) *Backend {
	for _, b := range srv.backends {
		if b.Name == name {
			return b
		}
	}
	return nil
}

func TestRetryRecoversTransportError(t *testing.T) {
	live, err := NewStubBackend("live", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	// Reserve a port and close it: connections there fail instantly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	srv := testServer(t, func(c *Config) {
		c.Backends = append(c.Backends, BackendConfig{Name: "dead", URL: deadURL})
	}, live)
	defer srv.ShutdownTimeout()

	for i := 0; i < 100; i++ {
		code, body := mustGet(t, srv.URL()+"/")
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d body %q (transport errors should retry)", i, code, body)
		}
	}
	if srv.Handler().Retries() == 0 {
		t.Fatal("no retries recorded against a dead backend in rotation")
	}
}

// TestServeSmoke is the serve-smoke acceptance run: the full selftest —
// two fast stubs, one slow, one pass per algorithm under open-loop load,
// ~1k requests per pass — asserting the L3 control loop measurably beats
// round-robin on p99, the weight table shifted off the slow backend and every
// drain dropped nothing. The proxy layer's zero-allocation bar is pinned
// apart from the live run, by TestMeasureProxyLayerAllocsAgrees.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("serve smoke needs ~25s of wall clock")
	}
	var out strings.Builder
	report, err := RunSelftest(SelftestOptions{Rate: 120, Duration: 6 * time.Second}, &out)
	if err != nil {
		t.Fatalf("selftest: %v\n%s", err, out.String())
	}
	t.Logf("serve-smoke report:\n%s", out.String())

	rr, l3 := report.result(AlgoRR), report.result(AlgoL3)
	if rr == nil || l3 == nil {
		t.Fatal("report missing an algorithm pass")
	}
	if total := rr.Issued + l3.Issued; total < 1000 {
		t.Errorf("smoke drove %d requests total, want >= 1000", total)
	}
	for _, res := range []*AlgoResult{rr, l3} {
		if res.Issued < 400 {
			t.Errorf("%s pass issued %d requests, want >= 400", res.Algo, res.Issued)
		}
		if res.Errors != 0 {
			t.Errorf("%s pass had %d issue errors", res.Algo, res.Errors)
		}
		if res.SuccessRate < 0.99 {
			t.Errorf("%s pass success rate %v, want >= 0.99", res.Algo, res.SuccessRate)
		}
		if res.Dropped != 0 {
			t.Errorf("%s pass dropped %d in-flight requests on drain, want 0", res.Algo, res.Dropped)
		}
		if res.Scrapes == 0 {
			t.Errorf("%s pass recorded no successful /metrics self-scrapes", res.Algo)
		}
	}
	if l3.P99 >= rr.P99/3 {
		t.Errorf("l3 p99 %v vs rr p99 %v: want at least 3x better", l3.P99, rr.P99)
	}
	slow, fastA, fastB := l3.Weights["slow-c"], l3.Weights["fast-a"], l3.Weights["fast-b"]
	if slow >= fastA/5 || slow >= fastB/5 {
		t.Errorf("l3 weights %v: slow backend not demoted", l3.Weights)
	}
	if !strings.Contains(out.String(), "p99") {
		t.Error("report output missing p99")
	}
}
