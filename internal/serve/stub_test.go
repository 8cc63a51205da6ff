package serve

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// StubBackend is a controllable upstream for the tests: a settable latency,
// a fail switch that answers 500, a health endpoint that can be flipped, a
// stall that holds requests open without a byte until it is lifted, and
// request accounting. The switches are atomics, so a test flips them while
// handlers read them mid-request.
type StubBackend struct {
	Name string

	latencyNs atomic.Int64
	failing   atomic.Bool
	unhealthy atomic.Bool
	stalled   atomic.Bool
	requests  atomic.Int64

	listener net.Listener
	srv      *http.Server
	done     chan struct{}
}

// NewStubBackend starts a stub on an ephemeral 127.0.0.1 port.
func NewStubBackend(name string, latency time.Duration) (*StubBackend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &StubBackend{Name: name, listener: ln, done: make(chan struct{})}
	s.latencyNs.Store(int64(latency))
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// A stalled backend cannot answer its health check either.
		if s.stalled.Load() {
			s.stallUntilLifted(r)
			return
		}
		if s.unhealthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if s.stalled.Load() {
			s.stallUntilLifted(r)
			return
		}
		if d := time.Duration(s.latencyNs.Load()); d > 0 {
			time.Sleep(d)
		}
		if s.failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintln(w, "stub failure")
			return
		}
		fmt.Fprintf(w, "ok from %s\n", s.Name)
	})
	s.srv = &http.Server{Handler: mux}
	go func() {
		s.srv.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

// stallUntilLifted holds the request open without writing a byte: the
// connection is accepted and the request parsed, but no response comes until
// the stall is lifted (polled) or the client gives up.
func (s *StubBackend) stallUntilLifted(r *http.Request) {
	for s.stalled.Load() {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// URL returns the stub's base URL.
func (s *StubBackend) URL() string { return "http://" + s.listener.Addr().String() }

// SetLatency changes the per-request sleep.
func (s *StubBackend) SetLatency(d time.Duration) { s.latencyNs.Store(int64(d)) }

// SetFailing makes (or stops making) every request answer 500.
func (s *StubBackend) SetFailing(v bool) { s.failing.Store(v) }

// SetUnhealthy makes (or stops making) /healthz answer 503.
func (s *StubBackend) SetUnhealthy(v bool) { s.unhealthy.Store(v) }

// SetStalled makes (or stops making) the stub accept requests and never
// answer them; lifting the stall releases the requests already held.
func (s *StubBackend) SetStalled(on bool) { s.stalled.Store(on) }

// Requests returns the number of proxied requests served (health probes hit
// /healthz and are not counted).
func (s *StubBackend) Requests() int64 { return s.requests.Load() }

// Close stops the stub immediately, releasing any stalled handlers.
func (s *StubBackend) Close() {
	s.stalled.Store(false)
	s.srv.Close()
	<-s.done
}

// BackendConfigOf returns the serve config entry pointing at the stub.
func (s *StubBackend) BackendConfigOf() BackendConfig {
	return BackendConfig{Name: s.Name, URL: s.URL()}
}

func newTestStub(t *testing.T, name string, latency time.Duration) *StubBackend {
	t.Helper()
	s, err := NewStubBackend(name, latency)
	if err != nil {
		t.Fatalf("NewStubBackend: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// The stub's own switches, each checked over a live socket.

func TestChaosStubHealthy(t *testing.T) {
	s := newTestStub(t, "api-a", 0)
	resp, err := http.Get(s.URL() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "ok from api-a") {
		t.Fatalf("status %d body %q", resp.StatusCode, body)
	}
}

func TestChaosStubStallReleasesOnHeal(t *testing.T) {
	s := newTestStub(t, "api-a", 0)
	s.SetStalled(true)
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(s.URL() + "/")
		if resp != nil {
			resp.Body.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("stalled request returned early (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	s.SetStalled(false)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("healed request failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("request still stuck after heal")
	}
}

func TestChaosStubExtraLatency(t *testing.T) {
	s := newTestStub(t, "api-a", 0)
	s.SetLatency(80 * time.Millisecond)
	start := time.Now()
	resp, err := http.Get(s.URL() + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if d := time.Since(start); d < 80*time.Millisecond {
		t.Fatalf("answered in %v despite 80ms of latency", d)
	}
}
