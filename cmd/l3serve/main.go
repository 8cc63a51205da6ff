// Command l3serve runs the repository's mesh machinery as a real reverse
// proxy: weighted TrafficSplit routing, the L3/C3 latency-aware controllers,
// health probing, circuit breaking and retry budgets — against live HTTP
// backends on a wall clock instead of the simulator's virtual one.
//
// Usage:
//
//	l3serve -backends 'a=http://10.0.0.1:8001,b=http://10.0.0.2:8001'
//	L3SERVE_ALGO=c3 l3serve -backends ...    # environment sets the rest
//
// Configuration layers, later wins: defaults, L3SERVE_* environment
// variables (L3SERVE_RESILIENCE holds the retry, hedge, breaker and deadline
// policy in l3bench's -resilience grammar), the -listen, -backends and -algo
// flags. The serving process exposes /metrics (Prometheus text format — also
// what its own control plane scrapes), /healthz, and /debug/pprof on the
// same listener, and drains gracefully on SIGTERM/SIGINT: new proxy requests
// are refused, in-flight requests finish (bounded by L3SERVE_DRAIN_TIMEOUT),
// then the process reports how many requests, if any, were still in flight
// when the deadline hit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"l3/internal/serve"
)

// stdout/stderr are swappable so tests can silence the tool's output.
var (
	stdout io.Writer = os.Stdout
	stderr io.Writer = os.Stderr
)

// signals delivers shutdown signals; swappable so tests can trigger a
// drain without killing the test process.
var signals = func() <-chan os.Signal {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGTERM, syscall.SIGINT)
	return ch
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "l3serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("l3serve", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "", "listen address (overrides L3SERVE_LISTEN)")
		backends = fs.String("backends", "", "backend list 'name=url,name=url' (overrides L3SERVE_BACKENDS)")
		algo     = fs.String("algo", "", "balancing algorithm: rr, failover, l3 or c3 (overrides L3SERVE_ALGO)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := serve.LoadConfig()
	if err != nil {
		return err
	}
	if *listen != "" {
		cfg.Listen = *listen
	}
	if *algo != "" {
		cfg.Algo = *algo
	}
	if *backends != "" {
		if cfg.Backends, err = serve.ParseBackendList(*backends); err != nil {
			return err
		}
	}

	srv, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "l3serve: serving %s via %s on %s (%d backends)\n",
		cfg.Service, cfg.Algo, srv.Addr(), len(cfg.Backends))

	select {
	case sig := <-signals():
		fmt.Fprintf(stdout, "l3serve: %v, draining (timeout %v)\n", sig, cfg.DrainTimeout)
	case err := <-srv.WaitErr():
		if err != nil {
			return err
		}
	}

	start := time.Now()
	dropped, err := srv.ShutdownTimeout()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if dropped > 0 {
		return fmt.Errorf("drain: %d requests still in flight after %v", dropped, time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(stdout, "l3serve: drained clean in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
