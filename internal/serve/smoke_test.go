package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"l3/internal/core"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/overload"
	"l3/internal/resilience"
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

	// An upstream 500 is a whole answer: the client gets it, it is not
	// retried, and /metrics counts it as a failure of its backend.
	b.SetFailing(true)
	var got500 float64
	for i := 0; i < 20; i++ {
		if code, _ := mustGet(t, srv.URL()+"/"); code == http.StatusInternalServerError {
			got500++
		}
	}
	b.SetFailing(false)
	failed := scraped(t, srv, mesh.MetricResponseTotal, metrics.Labels{"backend": "b", "classification": mesh.ClassFailure})
	if got500 == 0 || failed != got500 {
		t.Fatalf("%v answers of 500 reached the client, %v failures of b on /metrics; want the same, above 0", got500, failed)
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
	t.Parallel() // it waits on health probes
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

// TestRetryRecoversTransportError puts a backend that fails every attempt
// at the transport beside a live one: one refuses connections (a closed
// port), the other accepts, reads the request and answers with a TCP RST.
// Each such attempt counts as a failure on /metrics and is retried on the
// live backend, so every request answers 200.
func TestRetryRecoversTransportError(t *testing.T) {
	for _, tc := range []struct {
		name string
		dead func(t *testing.T) string
	}{
		{"refused", refusingURL},
		{"reset", resettingURL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live, err := NewStubBackend("live", 0)
			if err != nil {
				t.Fatal(err)
			}
			defer live.Close()
			deadURL := tc.dead(t)
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
			if scraped(t, srv, resilience.MetricRetriesTotal, nil) == 0 {
				t.Fatal("no retries recorded against a dead backend in rotation")
			}
			failed := scraped(t, srv, mesh.MetricResponseTotal, metrics.Labels{"backend": "dead", "classification": mesh.ClassFailure})
			if failed == 0 {
				t.Fatal("no failed attempt on the dead backend counted on /metrics")
			}
		})
	}
}

// refusingURL reserves a port and closes it: connections there fail
// instantly.
func refusingURL(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	return "http://" + ln.Addr().String()
}

// resettingURL serves a listener that reads one request off each
// connection and tears it down with an RST (SO_LINGER 0): a crashed process
// behind a live socket.
func resettingURL(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				http.ReadRequest(bufio.NewReader(conn))
				conn.(*net.TCPConn).SetLinger(0)
				conn.Close()
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// poll checks cond every 50 ms until it holds or d passes.
func poll(d time.Duration, cond func() bool) bool {
	for end := time.Now().Add(d); ; time.Sleep(50 * time.Millisecond) {
		if cond() {
			return true
		}
		if time.Now().After(end) {
			return false
		}
	}
}

// closedLoop starts four closed-loop clients that keep traffic on while the
// control plane steers and the breaker trips, and returns the function that
// stops them and waits; calling it again is a no-op. A 500 ms budget bounds
// each of their attempts at 250 ms, so one that meets a stalled stub fails
// then.
func closedLoop(t *testing.T, srv *Server) (stop func()) {
	done := make(chan struct{})
	var clients sync.WaitGroup
	for i := 0; i < 4; i++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				getWithBudget(context.Background(), t, srv, "500")
			}
		}()
	}
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		clients.Wait()
	}
}

// weights reads l3_backend_weight of the three stubs off /metrics.
func weights(t *testing.T, srv *Server) [3]float64 {
	var w [3]float64
	for i := range w {
		w[i] = scraped(t, srv, core.MetricWeight, metrics.Labels{"backend": fmt.Sprintf("cb-%d", i)})
	}
	return w
}

// movedOffSlow reports whether /metrics shows the controller's weight moved
// off the slow stub cb-2: below 0.8 times either fast stub's.
func movedOffSlow(t *testing.T, srv *Server) bool {
	w := weights(t, srv)
	return w[2] > 0 && w[2] < 0.8*min(w[0], w[1])
}

// TestServeWallSmoke is the wall plane's one smoke test: one live server
// over three stubs with 250 ms control rounds, checking only what needs
// real sockets — that each policy reaches /metrics or the wire. The policies
// themselves are asserted exactly on simulated time: the weight shift in
// internal/core's TestControllerSkewedFleetBeatsRoundRobin, the breaker in
// TestBreakerEjectsAfterConsecutiveFailures, shedding in
// TestAdmissionSquareWaveOnSimTime.
func TestServeWallSmoke(t *testing.T) {
	t.Parallel() // it waits on control rounds
	srv, stubs := chaosServer(t, 3, func(c *Config) {
		// Four slots a backend, pinned; two queue places waiting up to 2 s.
		c.Overload = "limit=4,min=4,max=4,qcap=2,maxwait=2s,tiers=off"
	})
	stubs[2].SetLatency(100 * time.Millisecond)
	client := &http.Client{Timeout: 10 * time.Second}
	get := func() (*http.Response, error) {
		resp, err := client.Get(srv.URL() + "/")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return resp, err
	}
	// L3 moves weight off the slow stub, as /metrics reports it.
	stop := closedLoop(t, srv)
	defer stop()
	if !poll(10*time.Second, func() bool { return movedOffSlow(t, srv) }) {
		t.Errorf("l3_backend_weight %v: weight did not move off the 100 ms stub", weights(t, srv))
	}

	// A stalled stub trips its breaker.
	ejections := func() float64 {
		return scraped(t, srv, resilience.MetricBreakerEjectionsTotal, metrics.Labels{"backend": "cb-0"})
	}
	stubs[0].SetStalled(true)
	if !poll(5*time.Second, func() bool { return ejections() > 0 }) {
		t.Error("resilience_breaker_ejections_total for the stalled stub never rose on /metrics")
	}
	stubs[0].SetStalled(false)
	stop()

	// With every stub stalled, twelve requests take the twelve slots, two
	// park in the queue and the rest are shed on the wire.
	for _, s := range stubs {
		s.SetStalled(true)
	}
	const fired = 18
	var inflight sync.WaitGroup
	shed := make(chan *http.Response, fired)
	for i := 0; i < fired; i++ {
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			if resp, err := get(); err == nil && resp.StatusCode != http.StatusOK {
				shed <- resp
			}
		}()
	}
	select {
	case resp := <-shed:
		if c := resp.StatusCode; c != http.StatusTooManyRequests && c != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Errorf("shed answer: status %d, Retry-After %q; want 429 or 503 with Retry-After", c, resp.Header.Get("Retry-After"))
		}
	case <-time.After(5 * time.Second):
		t.Error("no request shed with every slot held and the queue full")
	}
	for _, gauge := range []string{MetricAdmissionQueueDepth, mesh.MetricInflight, overload.MetricShedTotal} {
		if !poll(2*time.Second, func() bool { return scraped(t, srv, gauge, nil) > 0 }) {
			t.Errorf("%s stayed 0 on /metrics under overload", gauge)
		}
	}
	for _, s := range stubs {
		s.SetStalled(false)
	}
	inflight.Wait()

	// A drain with requests in flight drops none of them.
	for _, s := range stubs {
		s.SetLatency(300 * time.Millisecond)
	}
	done := make(chan int, 6)
	for i := 0; i < cap(done); i++ {
		go func() {
			resp, err := get()
			if err != nil {
				done <- 0
				return
			}
			done <- resp.StatusCode
		}()
	}
	if !poll(2*time.Second, func() bool { return srv.Handler().Inflight() == int64(cap(done)) }) {
		t.Errorf("%d requests in flight before the drain, want %d", srv.Handler().Inflight(), cap(done))
	}
	dropped, err := srv.ShutdownTimeout()
	if err != nil || dropped != 0 {
		t.Errorf("drain: %d dropped, err %v; want 0, nil", dropped, err)
	}
	for i := 0; i < cap(done); i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("request in flight across the drain: status %d, want 200", code)
		}
	}
}

// TestServeWallC3FollowsTheInterval runs C3 on the wall clock. Its filters
// scale with the scrape interval as L3's do: at 250 ms rounds the latency
// EWMA's half-life is 1 s, so within 10 s a fast stub's R̄ falls from its
// 5 s seed to milliseconds and its weight 1/(R̄·(1+q̂³)) rises above 1. At the
// 20 s half-life of a 5 s interval, R̄ would still be above 1.7 s (the first
// sample halves the seed) and every weight below 0.3.
func TestServeWallC3FollowsTheInterval(t *testing.T) {
	t.Parallel() // it waits on control rounds
	srv, stubs := chaosServer(t, 3, func(c *Config) { c.Algo = AlgoC3 })
	stubs[2].SetLatency(100 * time.Millisecond)
	defer closedLoop(t, srv)()
	if !poll(10*time.Second, func() bool { return movedOffSlow(t, srv) && weights(t, srv)[0] > 1 }) {
		t.Errorf("l3_backend_weight %v: C3 did not move weight off the 100 ms stub, or a fast stub's weight stayed at or below 1", weights(t, srv))
	}
}
