package resilience

import (
	"testing"
	"time"

	"l3/internal/backend"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/wan"
)

// The resilience layer's allocation contract, pinned per ISSUE 4:
//
//   - pass-through (no policy applied): 0 allocs/op — the layer adds one
//     pooled op + one pooled attempt on top of mesh.Call's own 0-alloc
//     lifecycle, all recycled;
//   - budgeted-retry path (deadline + retries, failures forcing backoff):
//     0 allocs/op steady state — backoff/deadline timers are caller-owned
//     and rebound in place (sim.Engine.AtTimer), attempts pooled;
//   - hedged path (every request hedges): 0 allocs/op steady state.
//
// Any regression that reintroduces per-request closures, Timer handles or
// map writes shows up here as a non-zero count.

func newAllocRig(t *testing.T, profile backend.Profile) (*sim.Engine, *Client) {
	t.Helper()
	e := sim.NewEngine()
	m := mesh.New(e, sim.NewRand(1), wan.New(wan.DefaultConfig()), metrics.NewRegistry())
	if _, err := m.AddService("api"); err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct{ name, cluster string }{
		{"api-c1", "cluster-1"}, {"api-c2", "cluster-1"},
	} {
		if _, err := m.AddBackend("api", b.name, b.cluster, backend.Config{}, profile); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewClient(m, "cluster-1", sim.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	return e, c
}

func measure(t *testing.T, e *sim.Engine, c *Client, path string, want float64) {
	t.Helper()
	completed := 0
	onDone := func(Result) { completed++ }
	issue := func() {
		if err := c.Call("cluster-1", "api", onDone); err != nil {
			t.Fatal(err)
		}
		e.Run()
	}
	for i := 0; i < 8; i++ {
		issue() // warm pools, route caches, series and the event heap
	}
	if allocs := testing.AllocsPerRun(200, issue); allocs != want {
		t.Fatalf("%s path allocates %.1f objects per request, pinned at %.0f", path, allocs, want)
	}
	if completed == 0 {
		t.Fatal("no requests completed")
	}
}

func TestDisabledPathAllocationFree(t *testing.T) {
	ok := func(time.Duration, *sim.Rand) (time.Duration, bool) { return time.Millisecond, true }
	e, c := newAllocRig(t, ok)
	measure(t, e, c, "pass-through", 0)
}

func TestBudgetedRetryPathAllocationFree(t *testing.T) {
	// Fail every other request so the retry/backoff machinery exercises
	// on a steady stream of both outcomes.
	n := 0
	flaky := func(time.Duration, *sim.Rand) (time.Duration, bool) {
		n++
		return time.Millisecond, n%2 == 0
	}
	e, c := newAllocRig(t, flaky)
	if err := c.Apply("api", Policy{
		Deadline: time.Second,
		Retry: RetryConfig{
			MaxAttempts: 3, Backoff: 5 * time.Millisecond, Jitter: 0.2,
			BudgetRatio: 1, AttemptTimeout: 50 * time.Millisecond,
		},
	}); err != nil {
		t.Fatal(err)
	}
	measure(t, e, c, "budgeted-retry", 0)
}

func TestHedgedPathAllocationFree(t *testing.T) {
	ok := func(time.Duration, *sim.Rand) (time.Duration, bool) { return 20 * time.Millisecond, true }
	e, c := newAllocRig(t, ok)
	// Fixed 5ms hedge delay: every 20ms request hedges, the two attempts
	// race, and the loser settles through the duplicate path.
	if err := c.Apply("api", Policy{
		Hedge: HedgeConfig{Delay: 5 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	measure(t, e, c, "hedged", 0)
}

func TestBreakerPathAllocationFree(t *testing.T) {
	// Failing backends keep the breaker's eject/restore cycle and the
	// picker filter hot.
	n := 0
	flaky := func(time.Duration, *sim.Rand) (time.Duration, bool) {
		n++
		return time.Millisecond, n%4 != 0
	}
	e, c := newAllocRig(t, flaky)
	if err := c.Apply("api", Policy{
		Breaker: BreakerConfig{ConsecutiveFailures: 2, BaseEjection: 10 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	measure(t, e, c, "breaker", 0)
}
