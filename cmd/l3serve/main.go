// Command l3serve runs the repository's mesh machinery as a real reverse
// proxy: weighted TrafficSplit routing, the L3/C3 latency-aware controllers,
// health probing, circuit breaking and retry budgets — against live HTTP
// backends on a wall clock instead of the simulator's virtual one.
//
// Usage:
//
//	l3serve -backends 'a=http://10.0.0.1:8001,b=http://10.0.0.2:8001'
//	l3serve -config l3serve.yaml             # YAML config (env overrides apply)
//	l3serve -config l3serve.yaml -algo rr    # flag overrides both
//	l3serve -selftest                        # skewed-stub rr-vs-l3 benchmark
//	l3serve -chaostest                       # scripted fault schedule + recovery assertions
//	l3serve -chaostest -quick                # compressed schedule for CI
//	l3serve -chaostest -chaos 'stall@3s+4s:chaos-a'
//
// Configuration layers, later wins: YAML file, L3SERVE_* environment
// variables, command-line flags. The serving process exposes /metrics
// (Prometheus text format — also what its own control plane scrapes),
// /healthz, and /debug/pprof on the same listener, and drains gracefully on
// SIGTERM/SIGINT: new proxy requests are refused, in-flight requests finish
// (bounded by drain_timeout), then the process reports how many requests, if
// any, were still in flight when the deadline hit.
//
// The selftest needs no external backends: it spins up two fast and one
// slow stub, runs one pass per algorithm under the open-loop wall-clock load
// generator, and reports achieved RPS, p50/p99/p999 and the converged weight
// table.
//
// The chaostest likewise self-hosts: chaos-capable stubs, open-loop load,
// and a scripted fault schedule (stall, connection resets, scrape outage by
// default — the same kind@at[+dur] grammar as the simulator's -chaos flag)
// run against the live proxy. It exits nonzero unless every recovery
// assertion holds: the breaker ejects a stalled backend within a bounded
// number of failures, windowed p99 re-converges (time-to-recover is
// reported), and a starved control plane engages and then releases
// fail-static. -selftest and -chaostest compose.
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
		configPath = fs.String("config", "", "YAML config file (see docs; L3SERVE_* env vars override)")
		listen     = fs.String("listen", "", "listen address (overrides config)")
		backends   = fs.String("backends", "", "backend list 'name=url,name=url' (overrides config)")
		algo       = fs.String("algo", "", "balancing algorithm: rr, failover, l3 or c3 (overrides config)")
		selftest   = fs.Bool("selftest", false, "run the built-in skewed-stub benchmark instead of serving")
		chaostest  = fs.Bool("chaostest", false, "run the scripted fault schedule against a live proxy and assert recovery (composes with -selftest)")
		chaosSched = fs.String("chaos", "", "with -chaostest: fault schedule override (kind@start[+dur][:operands];...)")
		quick      = fs.Bool("quick", false, "with -chaostest: compressed schedule for CI smoke runs")
		rate       = fs.Float64("rate", 0, "with -selftest/-chaostest: offered rps (selftest default 250, chaostest 150)")
		duration   = fs.Duration("duration", 0, "with -selftest: measured window per pass (default 6s)")
		warmup     = fs.Duration("warmup", 0, "with -selftest: cap on the convergence wait before measuring (default 12s)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *selftest || *chaostest {
		if *selftest {
			if _, err := serve.RunSelftest(serve.SelftestOptions{
				Rate:     *rate,
				Duration: *duration,
				WarmUp:   *warmup,
			}, stdout); err != nil {
				return err
			}
		}
		if *chaostest {
			// A failed recovery assertion must fail the command: callers
			// depend on the exit code.
			if _, err := serve.RunChaostest(serve.ChaostestOptions{
				Rate:     *rate,
				Schedule: *chaosSched,
				Quick:    *quick,
			}, stdout); err != nil {
				return err
			}
			// The overload scene rides every chaostest (skipped only when a
			// custom -chaos schedule narrows the run to specific faults):
			// saturating square-wave load against the admission-controlled
			// proxy, asserting bounded queue delay and tier-ordered shedding.
			if *chaosSched == "" {
				if _, err := serve.RunOverloadChaostest(serve.OverloadOptions{
					Quick: *quick,
				}, stdout); err != nil {
					return err
				}
			}
		}
		return nil
	}

	cfg, err := serve.LoadConfig(*configPath)
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
