package serve

import (
	"context"
	"io"
	"net/http"
	"runtime"
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
	for srv.admitter.Stats().Admitted < admitted && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.admitter.Stats().Admitted; got != admitted {
		t.Fatalf("admitted = %d before queueing, want %d", got, admitted)
	}
	// …then six more park in the admission queue.
	const queued = 6
	fire(queued)
	for srv.admitter.Stats().QueueLen < queued && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.admitter.Stats().QueueLen; got != queued {
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
	st := srv.admitter.Stats()
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

// TestQueuedRequestShedAtItsDeadline parks a request with a 300 ms
// X-L3-Deadline behind a stalled one that holds the only admission slot:
// its deadline ends the wait, so it leaves the queue counted as shed and is
// answered about when its budget runs out.
func TestQueuedRequestShedAtItsDeadline(t *testing.T) {
	srv, stubs := chaosServer(t, 1, func(c *Config) {
		// One slot; a drop law too slow to act within the budget.
		c.Overload = "limit=1,max=1,target=5s,maxwait=10s,qcap=8,tiers=off"
		c.Resilience = DefaultResilience + ",deadline=10s,pertry=5s,hedge=p0"
	})
	defer srv.ShutdownTimeout()
	stubs[0].SetStalled(true)

	holder := make(chan int, 1)
	go func() {
		status, _ := getWithBudget(context.Background(), t, srv, "4000")
		holder <- status
	}()
	for end := time.Now().Add(2 * time.Second); srv.admitter.Stats().Admitted < 1 && time.Now().Before(end); {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.admitter.Stats().Admitted; got != 1 {
		t.Fatalf("admitted = %d before queueing, want 1", got)
	}

	status, took := getWithBudget(context.Background(), t, srv, "300")
	if status != http.StatusServiceUnavailable {
		t.Errorf("queued request: status %d, want 503", status)
	}
	if took < 250*time.Millisecond || took > 1500*time.Millisecond {
		t.Errorf("queued request answered after %v, want about its 300ms budget", took)
	}
	st := srv.admitter.Stats()
	var shed int64
	for tier := 0; tier < overload.NumTiers; tier++ {
		shed += st.Shed[tier]
	}
	if shed != 1 {
		t.Errorf("admitter shed %d, want the 1 request whose deadline ended its wait", shed)
	}
	// Its queue entry is skipped, not admitted, once the slot comes free.
	stubs[0].SetStalled(false)
	if status := <-holder; status != http.StatusOK {
		t.Errorf("slot holder: status %d after the stall lifted, want 200", status)
	}
	// The holder's slot is released just after its answer went out.
	for end := time.Now().Add(time.Second); srv.admitter.Stats().QueueLen != 0 && time.Now().Before(end); {
		time.Sleep(5 * time.Millisecond)
	}
	if st := srv.admitter.Stats(); st.Admitted != 1 || st.QueueLen != 0 {
		t.Errorf("after the slot came free: admitted %d, %d queued; want 1 and 0", st.Admitted, st.QueueLen)
	}
}
