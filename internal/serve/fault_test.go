package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/resilience"
)

// chaosServer boots an L3 server over n 5 ms stubs with 250 ms control loops.
func chaosServer(t *testing.T, n int, mutate func(*Config)) (*Server, []*StubBackend) {
	t.Helper()
	var stubs []*StubBackend
	cfg := DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.Algo = AlgoL3
	cfg.ScrapeInterval = 250 * time.Millisecond
	cfg.ReconcileInterval = 250 * time.Millisecond
	cfg.Window = 2 * time.Second
	cfg.HealthInterval = 2 * time.Second
	cfg.HealthTimeout = 500 * time.Millisecond
	cfg.DrainTimeout = 3 * time.Second
	for i := 0; i < n; i++ {
		s, err := NewStubBackend(fmt.Sprintf("cb-%d", i), 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		stubs = append(stubs, s)
		cfg.Backends = append(cfg.Backends, s.BackendConfigOf())
	}
	t.Cleanup(func() {
		for _, s := range stubs {
			s.Close()
		}
	})
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
	return srv, stubs
}

// TestDrainMidHedge drains the server while requests are mid-flight against
// a stalled backend — retried, hedged, some doomed. The drain must count
// each in-flight request once, finish inside the configured timeout, and
// leak no goroutines.
func TestDrainMidHedge(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, stubs := chaosServer(t, 2, func(c *Config) {
		// In-flight work outlives the drain window.
		c.Resilience = DefaultResilience + ",deadline=10s,pertry=5s"
		c.DrainTimeout = time.Second
	})
	// Warm the hedge tracker past its 64-observation gate so in-flight
	// requests at drain time have a hedge armed.
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 80; i++ {
		resp, err := client.Get(srv.URL() + "/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Stall both backends and launch requests that will still be in flight
	// (stalled primaries, stalled hedges) when the drain begins.
	for _, s := range stubs {
		s.SetStalled(true)
	}
	const inflight = 8
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(srv.URL() + "/")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Handler().Inflight() < inflight && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Handler().Inflight(); got != inflight {
		t.Fatalf("inflight = %d before drain, want %d", got, inflight)
	}

	drainStart := time.Now()
	dropped, err := srv.ShutdownTimeout()
	drainTook := time.Since(drainStart)
	if err != nil && err != http.ErrServerClosed {
		// A timed-out drain reports context.DeadlineExceeded alongside the
		// dropped count; that is the expected shape here.
		t.Logf("drain err (expected with stalled in-flight work): %v", err)
	}
	if dropped != inflight {
		t.Errorf("dropped = %d, want %d (each stalled request counted once)", dropped, inflight)
	}
	if drainTook > 3*time.Second {
		t.Errorf("drain took %v, want bounded by ~DrainTimeout (1s) + slack", drainTook)
	}

	// Release the stalled handlers and in-flight clients, then the goroutine
	// population must return to the baseline.
	for _, s := range stubs {
		s.SetStalled(false)
	}
	wg.Wait()
	var after int
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
		client.CloseIdleConnections()
		// Requests the drain abandoned finish only after the un-stall above
		// and re-pool their upstream connections; flush those too.
		srv.CloseIdleConnections()
		if after = runtime.NumGoroutine(); after <= before+2 {
			break
		}
	}
	if after > before+2 {
		t.Errorf("goroutines: %d before, %d after drain — leak", before, after)
	}
}

// TestFailStaticEngagesAndReleases starves the control plane of scrapes and
// watches the degraded mode: engagement after StaleAfter, weight decay
// toward uniform, release on the next good scrape.
func TestFailStaticEngagesAndReleases(t *testing.T) {
	t.Parallel() // it waits on control rounds
	srv, _ := chaosServer(t, 3, func(c *Config) {
		c.StaleAfter = 500 * time.Millisecond
	})
	defer srv.ShutdownTimeout()
	if !srv.ScrapeWait(1, 5*time.Second) {
		t.Fatal("control plane never scraped")
	}

	// Skew the published table so the decay has something to pull uniform.
	srv.Router().rebuild(srv.backends, map[string]int64{"cb-0": 900, "cb-1": 50, "cb-2": 50})

	srv.Control().SetDropping(true)
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Control().FailStaticActive() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !srv.Control().FailStaticActive() {
		t.Fatal("fail-static never engaged with scrapes dropped")
	}
	if got := srv.Control().FailStaticEngagements(); got != 1 {
		t.Fatalf("engagements = %d, want 1", got)
	}

	// Decay: within a few reconcile ticks the dominant backend's share must
	// shrink toward uniform (1/3), and never below it.
	share := func() float64 {
		w := srv.Router().Weights()
		var total uint64
		for _, v := range w {
			total += v
		}
		return float64(w["cb-0"]) / float64(total)
	}
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
		if share() < 0.5 {
			break
		}
	}
	if s := share(); s >= 0.5 || s < 0.33 {
		t.Fatalf("cb-0 share = %.3f under decay, want in [1/3, 0.5)", s)
	}

	// Heal: the next successful scrape lifts the mode.
	srv.Control().SetDropping(false)
	deadline = time.Now().Add(5 * time.Second)
	for srv.Control().FailStaticActive() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if srv.Control().FailStaticActive() {
		t.Fatal("fail-static never released after scrapes resumed")
	}
}

// scraped sums the samples named name on srv's /metrics whose labels
// include match — what an operator reads.
func scraped(t *testing.T, srv *Server, name string, match metrics.Labels) float64 {
	t.Helper()
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := metrics.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	var sum float64
next:
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		for k, v := range match {
			if s.Labels[k] != v {
				continue next
			}
		}
		sum += s.Value
	}
	return sum
}

// deadlineExceeded reads resilience_deadline_exceeded_total off /metrics.
func deadlineExceeded(t *testing.T, srv *Server) float64 {
	t.Helper()
	return scraped(t, srv, resilience.MetricDeadlineExceededTotal, nil)
}

// getWithBudget sends a GET through srv with an X-L3-Deadline of budget
// under ctx and returns its status (0 for a client-side error) and how long
// it took. It may run off the test's goroutine.
func getWithBudget(ctx context.Context, t *testing.T, srv *Server, budget string) (int, time.Duration) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL()+"/", nil)
	if err != nil {
		t.Error(err)
		return 0, 0
	}
	req.Header.Set(HeaderDeadline, budget)
	start := time.Now()
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Do(req)
	if err != nil {
		return 0, time.Since(start)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(start)
}

// TestDeadlineBudgetReturns504 sends a request whose X-L3-Deadline is far
// shorter than the only backend's stall: the proxy must answer 504 at
// roughly the budget, not ride its policy's larger 10 s deadline, and
// /metrics must count exactly one request failed by its deadline.
func TestDeadlineBudgetReturns504(t *testing.T) {
	srv, stubs := chaosServer(t, 1, nil)
	defer srv.ShutdownTimeout()
	stubs[0].SetStalled(true)

	before := deadlineExceeded(t, srv)
	status, took := getWithBudget(context.Background(), t, srv, "200")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", status)
	}
	if took > 2*time.Second {
		t.Fatalf("504 took %v, want ~200ms budget", took)
	}
	if got := deadlineExceeded(t, srv) - before; got != 1 {
		t.Fatalf("resilience_deadline_exceeded_total rose by %v, want 1", got)
	}
}

// TestPerTryLongerThanBudgetEndsAtTheBudget pins the attempt deadline's min
// rule: with a per-try bound of 5 s and a header budget of 200 ms, the one
// attempt ends at the budget, and the request answers 504 about then.
func TestPerTryLongerThanBudgetEndsAtTheBudget(t *testing.T) {
	srv, stubs := chaosServer(t, 1, func(c *Config) { c.Resilience = DefaultResilience + ",pertry=5s" })
	defer srv.ShutdownTimeout()
	stubs[0].SetStalled(true)

	before := deadlineExceeded(t, srv)
	status, took := getWithBudget(context.Background(), t, srv, "200")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", status)
	}
	if took < 150*time.Millisecond || took > time.Second {
		t.Fatalf("504 took %v, want about the 200ms budget, not the 5s per-try bound", took)
	}
	if got := deadlineExceeded(t, srv) - before; got != 1 {
		t.Fatalf("resilience_deadline_exceeded_total rose by %v, want 1", got)
	}
}

// TestClientCancelIsNotADeadline: a client that hangs up while its request
// stalls upstream has not been failed by its deadline. Nothing is counted,
// and the attempt leaves the backend's in-flight gauge and the handler.
func TestClientCancelIsNotADeadline(t *testing.T) {
	srv, stubs := chaosServer(t, 1, nil)
	defer srv.ShutdownTimeout()
	stubs[0].SetStalled(true)

	before := deadlineExceeded(t, srv)
	inflight := func() float64 {
		return scraped(t, srv, mesh.MetricInflight, metrics.Labels{"backend": "cb-0"})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan int)
	go func() {
		status, _ := getWithBudget(ctx, t, srv, "2000")
		done <- status
	}()
	for end := time.Now().Add(2 * time.Second); inflight() != 1 && time.Now().Before(end); {
		time.Sleep(10 * time.Millisecond)
	}
	if got := inflight(); got != 1 {
		t.Fatalf("backend in-flight gauge = %v while the request stalls, want 1", got)
	}
	cancel()
	if status := <-done; status != 0 {
		t.Fatalf("status = %d, want the client's own cancel", status)
	}
	for end := time.Now().Add(3 * time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if srv.Handler().Inflight() == 0 && inflight() == 0 {
			break
		}
	}
	if got := srv.Handler().Inflight(); got != 0 {
		t.Errorf("handler in-flight = %d after the client left, want 0", got)
	}
	if got := inflight(); got != 0 {
		t.Errorf("backend in-flight gauge = %v after the client left, want 0", got)
	}
	// The budget (2 s) has not run out: had the proxy kept the request, the
	// in-flight checks above would have failed first.
	if got := deadlineExceeded(t, srv) - before; got != 0 {
		t.Errorf("resilience_deadline_exceeded_total rose by %v after a client cancel, want 0", got)
	}
}

// TestDeadlinePropagatesShrunkenBudget checks the header-level half of
// deadline propagation: the backend sees X-L3-Deadline no larger than the
// client sent, and smaller once retries have burned budget.
func TestDeadlinePropagatesShrunkenBudget(t *testing.T) {
	srv, stubs := chaosServer(t, 1, nil)
	defer srv.ShutdownTimeout()
	_ = stubs

	// A raw stub observing the forwarded header.
	seen := make(chan string, 1)
	obs, err := NewStubBackend("observer", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	obs.srv.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case seen <- r.Header.Get(HeaderDeadline):
		default:
		}
		w.WriteHeader(http.StatusOK)
	})

	cfg := DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.Algo = AlgoRR
	cfg.Backends = []BackendConfig{{Name: "observer", URL: obs.URL()}}
	srv2, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv2.ShutdownTimeout()

	req, err := http.NewRequest(http.MethodGet, srv2.URL()+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderDeadline, "750")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	got := <-seen
	ms, err := strconv.Atoi(got)
	if err != nil {
		t.Fatalf("backend saw X-L3-Deadline=%q, want integer millis", got)
	}
	if ms <= 0 || ms > 750 {
		t.Fatalf("propagated deadline %dms, want in (0, 750]", ms)
	}
}

// TestPanicRecovery feeds the handler a panicking round-tripper: the request
// must come back 500 (when nothing was written) and the process must live.
func TestPanicRecovery(t *testing.T) {
	srv, _ := chaosServer(t, 2, nil)
	defer srv.ShutdownTimeout()

	h := srv.Handler()
	orig := h.transport
	h.transport = panicTripper{}
	defer func() { h.transport = orig }()

	resp, err := http.Get(srv.URL() + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError && resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 500 or 502 from recovered panic", resp.StatusCode)
	}
	if got := h.panics.Load(); got == 0 {
		t.Fatal("panic counter did not increment")
	}
	// The proxy must still serve: restore the transport and round-trip again.
	h.transport = orig
	resp, err = http.Get(srv.URL() + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d after recovery, want 200", resp.StatusCode)
	}
}

type panicTripper struct{}

func (panicTripper) RoundTrip(*http.Request) (*http.Response, error) {
	panic("chaos: transport panic")
}

// TestHedgedRequestRescuesStalledBackend is the hedging path end to end: two
// backends, tracker warmed, one stalled — requests that pick the stalled
// backend as primary must be rescued by a hedge at ~the learned delay rather
// than waiting for a per-try timeout, and the stalled backend must still
// accumulate breaker failures (the cancelled-primary accounting).
func TestHedgedRequestRescuesStalledBackend(t *testing.T) {
	t.Parallel() // its stalled primaries mostly wait
	srv, stubs := chaosServer(t, 2, func(c *Config) {
		// Hedging, not the per-try bound, must do the rescuing.
		c.Resilience = DefaultResilience + ",deadline=5s,pertry=2s"
	})
	defer srv.ShutdownTimeout()

	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 80; i++ {
		resp, err := client.Get(srv.URL() + "/")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if d := srv.res.learnedDelay(); d == 0 {
		t.Fatal("hedge delay still unlearned after 80 successes")
	}

	stubs[0].SetStalled(true)
	defer stubs[0].SetStalled(false)
	var slow int
	var ejectionsSeen bool
	for i := 0; i < 60; i++ {
		start := time.Now()
		resp, err := client.Get(srv.URL() + "/")
		if err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d under single-backend stall", i, resp.StatusCode)
		}
		if took > time.Second {
			slow++
		}
		if ejectionsOf(srv.dataReg, srv.backends[0]) > 0 {
			ejectionsSeen = true
		}
	}
	if slow > 2 {
		t.Errorf("%d/60 requests waited >1s despite hedging", slow)
	}
	if !ejectionsSeen {
		t.Error("stalled backend never tripped its breaker — cancelled-primary failures not recorded")
	}
}
