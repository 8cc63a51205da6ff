package serve

import (
	"strings"
	"testing"
	"time"
)

func envMap(m map[string]string) func(string) (string, bool) {
	return func(k string) (string, bool) {
		v, ok := m[k]
		return v, ok
	}
}

func TestLoadConfigLayering(t *testing.T) {
	// The environment over defaults; derived intervals follow.
	cfg, err := loadConfig(envMap(map[string]string{
		"L3SERVE_LISTEN":          "127.0.0.1:9999",
		"L3SERVE_ALGO":            "failover",
		"L3SERVE_SCRAPE_INTERVAL": "1s",
		"L3SERVE_BACKENDS":        "x=http://127.0.0.1:1, y=http://127.0.0.1:2",
		"L3SERVE_RESILIENCE":      "deadline=3s,retries=3,budget=0.1,breaker=7",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Listen != "127.0.0.1:9999" || cfg.Algo != AlgoFailover {
		t.Fatalf("Listen, Algo = %q, %q, want the env values", cfg.Listen, cfg.Algo)
	}
	if got := cfg.BackendNames(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("Backends = %v, want env override [x y]", got)
	}
	pol, err := cfg.ResiliencePolicy()
	if err != nil {
		t.Fatal(err)
	}
	if pol.Deadline != 3*time.Second || pol.Retry.MaxAttempts != 3 || pol.Retry.BudgetRatio != 0.1 || pol.Breaker.ConsecutiveFailures != 7 || pol.Hedge.Percentile != 0 {
		t.Fatalf("resilience policy = %+v, want the env string's, with no hedge", pol)
	}
	// Derived: reconcile follows scrape, window = 2× scrape floored at 2s.
	if cfg.ReconcileInterval != time.Second {
		t.Fatalf("ReconcileInterval = %v, want 1s (derived from scrape)", cfg.ReconcileInterval)
	}
	if cfg.Window != 2*time.Second {
		t.Fatalf("Window = %v, want 2s floor", cfg.Window)
	}
	// Untouched keys keep documented defaults.
	if cfg.Service != "api" || cfg.Percentile != 0.99 || !cfg.Guard {
		t.Fatalf("defaults leaked: service=%q percentile=%v guard=%v", cfg.Service, cfg.Percentile, cfg.Guard)
	}
	// Without L3SERVE_RESILIENCE the default policy stands.
	if cfg, err = loadConfig(envMap(nil)); err != nil || cfg.Resilience != DefaultResilience {
		t.Fatalf("Resilience = %q, %v; want DefaultResilience", cfg.Resilience, err)
	}
}

// TestLoadConfigUnknownKey: a typoed key in a policy string is an error at
// validation, not a silent run on defaults.
func TestLoadConfigUnknownKey(t *testing.T) {
	cfg, err := loadConfig(envMap(map[string]string{
		"L3SERVE_BACKENDS":   "a=http://h:1",
		"L3SERVE_RESILIENCE": "retries=2,budgte=0.1",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), `unknown policy key "budgte"`) {
		t.Fatalf("err = %v, want unknown-key error", err)
	}
}

func TestValidateCollectsAllProblems(t *testing.T) {
	cfg := Config{
		Algo:     "fancy",
		Backends: []BackendConfig{{Name: "", URL: "not-a-url"}, {Name: "a", URL: "http://x"}, {Name: "a", URL: "http://y"}},
	}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("want error")
	}
	for _, sub := range []string{
		"listen address is empty",
		"service name is empty",
		`algo "fancy"`,
		"has no name",
		`name "a" is duplicated`,
		"not an absolute http(s) URL",
		"scrape_interval must be positive",
		"percentile",
	} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("error missing %q:\n%v", sub, err)
		}
	}
}

func TestParseBackendList(t *testing.T) {
	got, err := ParseBackendList("a=http://h:1, b=http://h:2,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "a" || got[1].URL != "http://h:2" {
		t.Fatalf("got %+v", got)
	}
	if _, err := ParseBackendList("nourl"); err == nil {
		t.Fatal("want error for entry without =")
	}
	if _, err := ParseBackendList(" , "); err == nil {
		t.Fatal("want error for empty list")
	}
}

func TestLoadConfigOverloadAndPoolKnobs(t *testing.T) {
	cfg, err := loadConfig(envMap(map[string]string{
		"L3SERVE_BACKENDS":                "a=http://10.0.0.1:8001",
		"L3SERVE_OVERLOAD":                "limit=16,target=10ms,qcap=64,tiers=on",
		"L3SERVE_MAX_IDLE_CONNS_PER_HOST": "7",
		"L3SERVE_IDLE_CONN_TIMEOUT":       "45s",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxIdleConnsPerHost != 7 || cfg.IdleConnTimeout != 45*time.Second {
		t.Fatalf("pool knobs = %d/%v, want env values 7/45s", cfg.MaxIdleConnsPerHost, cfg.IdleConnTimeout)
	}
	pol, err := cfg.OverloadPolicy()
	if err != nil {
		t.Fatal(err)
	}
	if !pol.Enabled() || pol.Limiter.Initial != 16 || !pol.Tiers.Enabled {
		t.Fatalf("overload policy = %+v, want enabled limit=16 tiers=on", pol)
	}

	// "off" parses as a disabled policy, for both policy strings.
	cfg, err = loadConfig(envMap(map[string]string{
		"L3SERVE_OVERLOAD":   "off",
		"L3SERVE_RESILIENCE": "off",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if pol, err := cfg.OverloadPolicy(); err != nil || pol.Enabled() {
		t.Fatalf("OverloadPolicy() = %+v, %v; want disabled, nil", pol, err)
	}
	if pol, err := cfg.ResiliencePolicy(); err != nil || pol.Enabled() {
		t.Fatalf("ResiliencePolicy() = %+v, %v; want disabled, nil", pol, err)
	}

	// Validation rejects malformed policies and bad pool bounds, naming each.
	bad, err := loadConfig(envMap(map[string]string{
		"L3SERVE_BACKENDS":                "a=http://h:1",
		"L3SERVE_OVERLOAD":                "limit=banana",
		"L3SERVE_RESILIENCE":              "retries=lots",
		"L3SERVE_MAX_IDLE_CONNS_PER_HOST": "0",
		"L3SERVE_IDLE_CONN_TIMEOUT":       "-1s",
	}))
	if err != nil {
		t.Fatal(err)
	}
	err = bad.Validate()
	if err == nil {
		t.Fatal("want error")
	}
	for _, sub := range []string{"overload policy", "resilience policy", `bad retries value "lots"`, "max_idle_conns_per_host", "idle_conn_timeout"} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("error missing %q:\n%v", sub, err)
		}
	}
}

func TestLoadConfigBadEnvDuration(t *testing.T) {
	_, err := loadConfig(envMap(map[string]string{
		"L3SERVE_SCRAPE_INTERVAL": "soon",
		"L3SERVE_BACKENDS":        "a=http://h:1",
	}))
	if err == nil || !strings.Contains(err.Error(), "L3SERVE_SCRAPE_INTERVAL") {
		t.Fatalf("err = %v, want duration parse error naming the variable", err)
	}
}
