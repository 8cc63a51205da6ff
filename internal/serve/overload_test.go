package serve

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l3/internal/overload"
)

// TestDrainWithQueuedAdmissions drains the server while the admission queue
// holds parked requests behind stalled backends: the queued requests must be
// flushed with 503s (not stranded), the stalled in-flight ones counted as
// dropped, and the goroutine population must return to baseline once the
// stall lifts.
func TestDrainWithQueuedAdmissions(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, stubs := chaosServer(t, 2, func(c *Config) {
		// One slot per backend, so two admitted requests saturate the
		// concurrency budget and everything else parks in the queue.
		c.Overload = "limit=1,max=1,target=20ms,qcap=32,tiers=on"
		// Queued work outlives the drain window; hedges would hold extra
		// slots mid-drain.
		c.Resilience = DefaultResilience + ",deadline=10s,pertry=5s,hedge=p0"
		c.DrainTimeout = time.Second
	})

	for _, s := range stubs {
		s.SetStalled(true)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	var wg sync.WaitGroup
	var got503, gotOther atomic.Int64
	fire := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := client.Get(srv.URL() + "/")
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable {
					got503.Add(1)
				} else {
					gotOther.Add(1)
				}
			}()
		}
	}

	// Two requests take the two slots and stall in flight…
	const admitted = 2
	fire(admitted)
	deadline := time.Now().Add(2 * time.Second)
	for srv.Admitter().Stats().Admitted < admitted && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Admitter().Stats().Admitted; got != admitted {
		t.Fatalf("admitted = %d before queueing, want %d", got, admitted)
	}
	// …then six more park in the admission queue.
	const queued = 6
	fire(queued)
	for srv.Admitter().Stats().QueueLen < queued && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Admitter().Stats().QueueLen; got != queued {
		t.Fatalf("queue length = %d before drain, want %d", got, queued)
	}

	dropped, err := srv.ShutdownTimeout()
	if err != nil {
		// The stalled in-flight pair outlives DrainTimeout; a deadline error
		// alongside the dropped count is the expected shape.
		t.Logf("drain err (expected with stalled in-flight work): %v", err)
	}
	if dropped != admitted {
		t.Errorf("dropped = %d, want %d (queued requests flushed, not dropped)", dropped, admitted)
	}
	st := srv.Admitter().Stats()
	var shedTotal int64
	for tier := 0; tier < overload.NumTiers; tier++ {
		shedTotal += st.Shed[tier]
	}
	if shedTotal != queued {
		t.Errorf("admitter shed %d, want the %d flushed queue entries", shedTotal, queued)
	}
	if st.QueueLen != 0 {
		t.Errorf("queue length = %d after drain, want 0", st.QueueLen)
	}

	// The flushed waiters answer 503 promptly even while the stall holds.
	for end := time.Now().Add(2 * time.Second); got503.Load() < queued && time.Now().Before(end); {
		time.Sleep(10 * time.Millisecond)
	}
	if got503.Load() != queued {
		t.Errorf("queued requests answered 503: %d, want %d (other: %d)", got503.Load(), queued, gotOther.Load())
	}

	// Release the stalled handlers; every goroutine must come home.
	for _, s := range stubs {
		s.SetStalled(false)
	}
	wg.Wait()
	var after int
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
		client.CloseIdleConnections()
		srv.CloseIdleConnections()
		if after = runtime.NumGoroutine(); after <= before+2 {
			break
		}
	}
	if after > before+2 {
		t.Errorf("goroutines: %d before, %d after drain — leak", before, after)
	}
}

// TestServeOverloadScene is the wall-clock overload gate: the quick
// square-wave scene — warm, saturating burst, recovery — against the live
// admission-controlled proxy, asserting bounded queue delay, tier-ordered
// shedding, live in-flight gauges and full tier re-admission end to end.
// ~10s of wall time; `make overload-smoke` runs it explicitly (with the
// report shown), so -short skips it here.
func TestServeOverloadScene(t *testing.T) {
	if testing.Short() {
		t.Skip("overload scene needs ~10s of wall-clock; run make overload-smoke")
	}
	var buf strings.Builder
	_, err := RunOverloadChaostest(OverloadOptions{Quick: true}, &buf)
	t.Log("\n" + buf.String())
	if err != nil {
		t.Fatal(err)
	}
}

// TestAdmitPathAllocsPinned pins the serve-side admission fast path at zero
// allocations per admitted request (Admit grant + Observe + Release) under
// the policy shape the proxy runs: the gate must cost nothing when the
// system is healthy.
func TestAdmitPathAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pin not meaningful under -race")
	}
	p, err := overload.ParsePolicy("limit=64,target=20ms,qcap=32")
	if err != nil {
		t.Fatal(err)
	}
	a := overload.NewWallAdmitter(p, 3, time.Now())
	ctx := context.Background()
	allocs := testing.AllocsPerRun(10000, func() {
		if v := a.Admit(ctx, time.Now(), overload.TierDefault); v == overload.Admitted {
			a.Observe(0, 5*time.Millisecond, true)
			a.Release()
		}
	})
	if allocs != 0 {
		t.Fatalf("admit fast path allocs = %v per op, contract is 0", allocs)
	}
}
