package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"l3/internal/clock"
	"l3/internal/metrics"
	"l3/internal/overload"
)

// Server assembles the serve mode: data plane (Router + proxy handler on
// real sockets), control plane (control.go on a clock.Wall), and the
// operational endpoints (/metrics, /healthz, /debug/pprof).
type Server struct {
	cfg  Config
	wall *clock.Wall

	// dataReg holds the data plane's mesh-schema metrics (what the control
	// plane scrapes and steers from); ctrlReg holds the control plane's own
	// self-metrics (guard verdicts, reconcile counters, health transitions).
	// Both are exposed on /metrics.
	dataReg *metrics.Registry
	ctrlReg *metrics.Registry

	backends []*Backend
	router   *Router
	res      *wallResilience
	handler  *proxyHandler
	control  *control

	// admitter is the overload-control gate ahead of backend pick (nil when
	// cfg.Overload is empty/off); admMetrics are its /metrics handles.
	admitter   *overload.WallAdmitter
	admMetrics *admissionMetrics

	// transport is the one upstream pool every attempt goes through;
	// Shutdown closes its idle connections.
	transport *http.Transport

	listener net.Listener
	httpSrv  *http.Server
	serveErr chan error
}

// NewServer builds a stopped server from a validated config. Call Start to
// listen and arm the control plane.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDerived()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		wall:     clock.NewWall(),
		dataReg:  metrics.NewRegistry(),
		ctrlReg:  metrics.NewRegistry(),
		serveErr: make(chan error, 1),
	}
	transport := newUpstreamTransport(cfg)
	s.transport = transport
	for i, bc := range cfg.Backends {
		b, err := newBackend(bc, cfg.Service, s.dataReg)
		if err != nil {
			return nil, fmt.Errorf("serve: backend %s: %w", bc.Name, err)
		}
		b.idx = i
		s.backends = append(s.backends, b)
	}
	s.router = NewRouter(s.backends)
	res, err := cfg.ResiliencePolicy()
	if err != nil {
		return nil, err // unreachable after Validate; defensive
	}
	s.res = newWallResilience(res, cfg.Service, s.backends, s.dataReg)
	if pol, err := cfg.OverloadPolicy(); err != nil {
		return nil, err // unreachable after Validate; defensive
	} else if pol.Enabled() {
		s.admitter = overload.NewWallAdmitter(pol, len(s.backends), time.Now())
		s.admMetrics = newAdmissionMetrics(s.dataReg, cfg.Service)
	}
	s.handler = &proxyHandler{router: s.router, nowFn: s.wall.Now, res: s.res, transport: transport, admitter: s.admitter}
	return s, nil
}

// Start binds the listener, serves in a background goroutine, and arms the
// control plane. With cfg.Listen ending in ":0" the kernel picks the port;
// Addr reports the bound address.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Listen)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", s.cfg.Listen, err)
	}
	s.listener = ln

	// The control plane scrapes through the real listener, same path a
	// Prometheus would take. Built before the listener serves so the
	// endpoint handlers below read s.control without racing the assignment.
	metricsURL := fmt.Sprintf("http://%s/metrics", ln.Addr().String())
	s.control = newControl(s.cfg, s.wall, s.router, s.backends, s.ctrlReg, metricsURL)

	mux := http.NewServeMux()
	// The /metrics handler reads the registries directly, never under the
	// wall clock's mutex: queued behind a long control callback, the
	// self-scrape would time out and count as a dropped scrape.
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Fail-static is degraded-but-serving: the proxy still answers, so
		// the health check stays green with the mode on the wire for
		// operators to see.
		w.WriteHeader(http.StatusOK)
		if s.control.FailStaticActive() {
			fmt.Fprintln(w, "degraded: fail-static (control plane stale)")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", s.handler)

	s.httpSrv = &http.Server{Handler: mux}
	go func() {
		err := s.httpSrv.Serve(ln)
		if err != nil && err != http.ErrServerClosed {
			s.serveErr <- err
		}
		close(s.serveErr)
	}()

	// start touches single-threaded control state from this goroutine; no
	// wall callbacks can be pending yet because nothing has been scheduled.
	s.control.start(s.router)
	return nil
}

func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// The admission layer's counters live behind the admitter's own mutex;
	// each scrape folds a snapshot into the registry so /metrics (and the
	// control plane's self-scrape) sees them without hot-path registry work.
	if s.admitter != nil {
		s.admMetrics.sync(s.admitter.Stats())
	}
	if err := s.dataReg.WritePrometheus(w); err != nil {
		return
	}
	s.ctrlReg.WritePrometheus(w)
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.listener == nil {
		return s.cfg.Listen
	}
	return s.listener.Addr().String()
}

// URL returns the server's base URL (valid after Start).
func (s *Server) URL() string { return "http://" + s.Addr() }

// Handler exposes the proxy handler (tests, drain accounting).
func (s *Server) Handler() *proxyHandler { return s.handler }

// Router exposes the routing table.
func (s *Server) Router() *Router { return s.router }

// Control exposes the control plane.
func (s *Server) Control() *control { return s.control }

// DataRegistry exposes the data-plane metric registry.
func (s *Server) DataRegistry() *metrics.Registry { return s.dataReg }

// Shutdown drains gracefully: stop admitting proxy requests, let in-flight
// requests finish (bounded by the context), halt the control loops, stop the
// wall clock. It returns the number of requests still in flight when the
// drain gave up — zero on a clean drain.
func (s *Server) Shutdown(ctx context.Context) (dropped int64, err error) {
	if s.httpSrv == nil {
		return 0, nil
	}
	s.handler.draining.Store(true)
	// Flush the admission queue before waiting on connections: every parked
	// waiter wakes with ShedDraining, answers 503 and releases its
	// connection, so a loaded admission queue cannot stall the drain.
	if s.admitter != nil {
		s.admitter.DrainFlush()
	}
	// Control loops stop first so no callback re-arms after the wall stops;
	// the scrape GET may still be in flight — Shutdown below waits for it.
	s.wall.Do(s.control.stop)
	err = s.httpSrv.Shutdown(ctx)
	dropped = s.handler.Inflight()
	s.wall.Stop()
	// Release pooled upstream sockets. Requests the drain abandoned may
	// still finish later and re-pool their connections; CloseIdleConnections
	// is safe to call again (see the drain test's settle loop).
	s.transport.CloseIdleConnections()
	if serveErr := <-s.serveErr; serveErr != nil && err == nil {
		err = serveErr
	}
	return dropped, err
}

// CloseIdleConnections closes the upstream transport's pooled keep-alive
// connections. Shutdown calls it once; callers that let abandoned in-flight
// work finish after a timed-out drain can call it again to flush the
// connections that work returned to the pool.
func (s *Server) CloseIdleConnections() { s.transport.CloseIdleConnections() }

// ShutdownTimeout is Shutdown with the configured drain deadline.
func (s *Server) ShutdownTimeout() (int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}

// WaitErr returns the terminal serve error, if the listener failed.
func (s *Server) WaitErr() <-chan error { return s.serveErr }

// ScrapeWait blocks until the control plane has completed at least n
// successful self-scrapes or the timeout passes.
func (s *Server) ScrapeWait(n int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.control != nil && s.control.Scrapes() >= n {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}
