package serve

import (
	"fmt"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"l3/internal/overload"
	"l3/internal/resilience"
)

// Algorithms the serving mode can run. They mirror internal/bench's
// ablation arms: weighted selection with uniform weights (rr), uniform
// weights gated on health probes (failover), and the two metric-driven
// controllers (l3, c3).
const (
	AlgoRR       = "rr"
	AlgoFailover = "failover"
	AlgoL3       = "l3"
	AlgoC3       = "c3"
)

// BackendConfig names one upstream HTTP server.
type BackendConfig struct {
	// Name is the backend's identity in metrics, TrafficSplits and logs.
	Name string
	// URL is the upstream base URL (scheme + host[:port]).
	URL string
}

// Config parameterises a serve.Server. Durations are real wall-clock time.
type Config struct {
	// Listen is the proxy's listen address (default "127.0.0.1:8080";
	// ":0" picks an ephemeral port, the smoke tests' mode).
	Listen string
	// Service is the logical service name carried in every metric label
	// and the TrafficSplit (default "api").
	Service string
	// Algo selects the balancing algorithm: rr, failover, l3 or c3
	// (default l3).
	Algo string
	// Backends are the upstreams. At least one is required.
	Backends []BackendConfig

	// ScrapeInterval is how often the control plane scrapes its own
	// /metrics endpoint over HTTP (default 5s, the paper's Prometheus
	// interval; the smoke tests shrink it).
	ScrapeInterval time.Duration
	// ScrapeTimeout bounds one self-scrape GET (default and cap:
	// ScrapeInterval/2, so a stalled /metrics can never push the next
	// control round late).
	ScrapeTimeout time.Duration
	// ReconcileInterval is the controller's reweighting period (default
	// matches ScrapeInterval).
	ReconcileInterval time.Duration
	// Window is the collector's trailing query window (default 2×
	// ScrapeInterval, min 2s).
	Window time.Duration
	// Percentile is the latency quantile steering L3 (default 0.99).
	Percentile float64
	// Guard enables the internal/guard hardening layer — ingestion
	// hygiene, write gating, stall watchdog (default true).
	Guard bool

	// HealthInterval is the HTTP health-probe period (default 2s).
	HealthInterval time.Duration
	// HealthTimeout fails an unanswered probe (default 1s).
	HealthTimeout time.Duration
	// HealthPath is the upstream path probed (default "/healthz").
	HealthPath string

	// Resilience is the proxy's deadline, retry, hedge and breaker policy in
	// resilience.ParsePolicy's key=value grammar, the one l3bench's
	// -resilience flag takes (default DefaultResilience; empty or "off"
	// disables every mechanism). Without pertry each attempt gets an even
	// share of the remaining deadline.
	Resilience string

	// StaleAfter is how long the control plane may go without a
	// successful self-scrape before the data plane enters fail-static
	// mode: the routing table freezes against further control writes and
	// decays toward uniform (default 3× ScrapeInterval; negative
	// disables).
	StaleAfter time.Duration
	// DecayFactor is the per-reconcile-tick multiplier pulling fail-static
	// weights toward uniform: 1 freezes the last table forever, smaller
	// values forget the stale signal faster (default 0.8).
	DecayFactor float64

	// DrainTimeout bounds graceful shutdown (default 15s).
	DrainTimeout time.Duration

	// Overload is the admission-control policy in internal/overload's
	// key=value grammar ("limit=32,target=20ms,qcap=128,tiers=on"; empty
	// or "off" disables). When enabled the proxy runs an adaptive
	// concurrency limiter with a CoDel admission queue ahead of backend
	// selection; shed requests answer 429 (tier-gated) or 503 with
	// Retry-After before any upstream work happens.
	Overload string
	// MaxIdleConnsPerHost caps the transport's idle keep-alive
	// connections per upstream (default 32). The Go default of 2 forces
	// reconnect churn exactly when a burst needs the pool most.
	MaxIdleConnsPerHost int
	// IdleConnTimeout closes idle upstream connections after this long
	// (default 90s).
	IdleConnTimeout time.Duration
}

// DefaultResilience is the proxy's default resilience policy: a 10 s
// deadline, one retry, a 0.2 budget, hedging at the p95 of observed
// successes (never sooner than 1 ms), and a breaker that ejects a backend for
// 2 s after 5 consecutive failures, with no cap on how many it ejects.
const DefaultResilience = "deadline=10s,retries=2,budget=0.2,hedge=p95,hedgemin=1ms," +
	"breaker=5,ejection=2s,maxejection=2s,maxejectpct=1"

// DefaultConfig returns the documented defaults (no backends).
func DefaultConfig() Config {
	return Config{
		Listen:         "127.0.0.1:8080",
		Service:        "api",
		Algo:           AlgoL3,
		ScrapeInterval: 5 * time.Second,
		Percentile:     0.99,
		Guard:          true,
		HealthInterval: 2 * time.Second,
		HealthTimeout:  time.Second,
		HealthPath:     "/healthz",
		Resilience:     DefaultResilience,
		DecayFactor:    0.8,
		DrainTimeout:   15 * time.Second,

		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	}
}

// withDerived fills the intervals that default relative to others.
func (c Config) withDerived() Config {
	if c.ReconcileInterval <= 0 {
		c.ReconcileInterval = c.ScrapeInterval
	}
	if c.Window <= 0 {
		c.Window = 2 * c.ScrapeInterval
		if c.Window < 2*time.Second {
			c.Window = 2 * time.Second
		}
	}
	if c.ScrapeTimeout <= 0 || c.ScrapeTimeout > c.ScrapeInterval/2 {
		c.ScrapeTimeout = c.ScrapeInterval / 2
	}
	if c.StaleAfter == 0 {
		c.StaleAfter = 3 * c.ScrapeInterval
	}
	return c
}

// Validate checks the configuration, returning every problem at once so an
// operator fixes a bad environment in one round trip.
func (c Config) Validate() error {
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	if c.Listen == "" {
		bad("listen address is empty")
	}
	if c.Service == "" {
		bad("service name is empty")
	}
	switch c.Algo {
	case AlgoRR, AlgoFailover, AlgoL3, AlgoC3:
	default:
		bad("algo %q is not one of rr, failover, l3, c3", c.Algo)
	}
	if len(c.Backends) == 0 {
		bad("no backends configured")
	}
	seen := make(map[string]bool, len(c.Backends))
	for i, b := range c.Backends {
		if b.Name == "" {
			bad("backend %d has no name", i)
		}
		if seen[b.Name] {
			bad("backend name %q is duplicated", b.Name)
		}
		seen[b.Name] = true
		u, err := url.Parse(b.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			bad("backend %q URL %q is not an absolute http(s) URL", b.Name, b.URL)
		} else if u.Scheme != "http" && u.Scheme != "https" {
			bad("backend %q URL scheme %q is not http or https", b.Name, u.Scheme)
		}
	}
	if c.ScrapeInterval <= 0 {
		bad("scrape_interval must be positive")
	}
	if c.Percentile <= 0 || c.Percentile >= 1 {
		bad("percentile %v is outside (0, 1)", c.Percentile)
	}
	if _, err := c.ResiliencePolicy(); err != nil {
		bad("resilience policy: %v", err)
	}
	if c.DecayFactor <= 0 || c.DecayFactor > 1 {
		bad("decay_factor %v is outside (0, 1]", c.DecayFactor)
	}
	if _, err := c.OverloadPolicy(); err != nil {
		bad("overload policy: %v", err)
	}
	if c.MaxIdleConnsPerHost < 1 {
		bad("max_idle_conns_per_host must be at least 1")
	}
	if c.IdleConnTimeout <= 0 {
		bad("idle_conn_timeout must be positive")
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("serve: invalid config:\n  - %s", strings.Join(problems, "\n  - "))
}

// LoadConfig builds the effective configuration: defaults, then L3SERVE_*
// environment overrides. Validation happens in NewServer, after any
// command-line overrides land on top.
func LoadConfig() (Config, error) {
	return loadConfig(os.LookupEnv)
}

func loadConfig(lookup func(string) (string, bool)) (Config, error) {
	cfg := DefaultConfig()
	if err := cfg.applyEnv(lookup); err != nil {
		return cfg, err
	}
	return cfg.withDerived(), nil
}

// applyEnv folds L3SERVE_* variables over the config. Every scalar key has
// an override; backends use L3SERVE_BACKENDS="name=url,name=url". A value
// that does not parse leaves its key as it was and is the error returned
// (the first, if several).
func (c *Config) applyEnv(lookup func(string) (string, bool)) error {
	var firstErr error
	set := func(name string, parse func(string) error) {
		if v, ok := lookup(name); ok {
			if err := parse(v); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("serve: %s: %w", name, err)
			}
		}
	}
	text := func(v string) (string, error) { return v, nil }
	float := func(v string) (float64, error) { return strconv.ParseFloat(v, 64) }
	set("L3SERVE_LISTEN", into(&c.Listen, text))
	set("L3SERVE_SERVICE", into(&c.Service, text))
	set("L3SERVE_ALGO", into(&c.Algo, text))
	set("L3SERVE_HEALTH_PATH", into(&c.HealthPath, text))
	set("L3SERVE_OVERLOAD", into(&c.Overload, text))
	set("L3SERVE_RESILIENCE", into(&c.Resilience, text))
	set("L3SERVE_SCRAPE_INTERVAL", into(&c.ScrapeInterval, time.ParseDuration))
	set("L3SERVE_SCRAPE_TIMEOUT", into(&c.ScrapeTimeout, time.ParseDuration))
	set("L3SERVE_STALE_AFTER", into(&c.StaleAfter, time.ParseDuration))
	set("L3SERVE_RECONCILE_INTERVAL", into(&c.ReconcileInterval, time.ParseDuration))
	set("L3SERVE_WINDOW", into(&c.Window, time.ParseDuration))
	set("L3SERVE_HEALTH_INTERVAL", into(&c.HealthInterval, time.ParseDuration))
	set("L3SERVE_HEALTH_TIMEOUT", into(&c.HealthTimeout, time.ParseDuration))
	set("L3SERVE_DRAIN_TIMEOUT", into(&c.DrainTimeout, time.ParseDuration))
	set("L3SERVE_IDLE_CONN_TIMEOUT", into(&c.IdleConnTimeout, time.ParseDuration))
	set("L3SERVE_PERCENTILE", into(&c.Percentile, float))
	set("L3SERVE_DECAY_FACTOR", into(&c.DecayFactor, float))
	set("L3SERVE_GUARD", into(&c.Guard, strconv.ParseBool))
	set("L3SERVE_MAX_IDLE_CONNS_PER_HOST", into(&c.MaxIdleConnsPerHost, strconv.Atoi))
	set("L3SERVE_BACKENDS", into(&c.Backends, ParseBackendList))
	return firstErr
}

// into returns a setter that parses a value into dst, leaving dst alone when
// it does not parse.
func into[T any](dst *T, parse func(string) (T, error)) func(string) error {
	return func(v string) error {
		x, err := parse(v)
		if err == nil {
			*dst = x
		}
		return err
	}
}

// ParseBackendList parses the "name=url,name=url" form shared by the
// L3SERVE_BACKENDS variable and the -backends flag.
func ParseBackendList(s string) ([]BackendConfig, error) {
	var out []BackendConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, u, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("backend %q is not name=url", part)
		}
		out = append(out, BackendConfig{Name: strings.TrimSpace(name), URL: strings.TrimSpace(u)})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty backend list")
	}
	return out, nil
}

// ResiliencePolicy parses the Resilience string; defaults are applied when
// the core resolves it. An empty or "off" string returns a disabled policy
// and no error.
func (c Config) ResiliencePolicy() (resilience.Policy, error) {
	return resilience.ParsePolicy(c.Resilience)
}

// OverloadPolicy parses the Overload string into a policy with defaults
// applied. An empty or "off" string returns a disabled policy and no error.
func (c Config) OverloadPolicy() (overload.Policy, error) {
	if strings.TrimSpace(c.Overload) == "" {
		return overload.Policy{}, nil
	}
	return overload.ParsePolicy(c.Overload)
}

// BackendNames returns the configured backend names, sorted.
func (c Config) BackendNames() []string {
	names := make([]string, len(c.Backends))
	for i, b := range c.Backends {
		names[i] = b.Name
	}
	sort.Strings(names)
	return names
}
