package cluster

import (
	"testing"
	"time"

	"l3/internal/sim"
)

func TestLeaseLockAcquireReleaseExpiry(t *testing.T) {
	l := NewLeaseLock()
	if _, held := l.Holder(0); held {
		t.Fatal("fresh lock reports a holder")
	}
	if !l.TryAcquire("a", 0, 10*time.Second) {
		t.Fatal("acquire of free lock failed")
	}
	if l.TryAcquire("b", 5*time.Second, 10*time.Second) {
		t.Fatal("b acquired a live lease held by a")
	}
	// Renewal by the holder succeeds and extends.
	if !l.TryAcquire("a", 8*time.Second, 10*time.Second) {
		t.Fatal("holder renewal failed")
	}
	if l.TryAcquire("b", 17*time.Second, 10*time.Second) {
		t.Fatal("b acquired before renewed lease expired")
	}
	// After expiry anyone can take it.
	if !l.TryAcquire("b", 19*time.Second, 10*time.Second) {
		t.Fatal("b could not acquire expired lease")
	}
	holder, held := l.Holder(19 * time.Second)
	if !held || holder != "b" {
		t.Fatalf("holder = %q, %v", holder, held)
	}
	// Release by non-holder is a no-op; by holder frees immediately.
	l.Release("a")
	if _, held := l.Holder(19 * time.Second); !held {
		t.Fatal("release by non-holder freed the lease")
	}
	l.Release("b")
	if _, held := l.Holder(19 * time.Second); held {
		t.Fatal("release by holder did not free the lease")
	}
}

func TestSingleElectorBecomesLeader(t *testing.T) {
	e := sim.NewEngine()
	lock := NewLeaseLock()
	el := NewElector(e, lock, "a")
	el.Run()
	e.RunUntil(time.Second)
	if !el.IsLeader() {
		t.Fatal("sole candidate is not leader")
	}
	// Leadership is stable across many renew cycles: sampled finer than
	// any renew or retry interval, it never lapses.
	lapses := 0
	e.Every(500*time.Millisecond, func() {
		if !el.IsLeader() {
			lapses++
		}
	})
	e.RunUntil(5 * time.Minute)
	if lapses != 0 {
		t.Fatalf("leadership flapped: %d samples without it", lapses)
	}
}

func TestOnlyOneLeaderAmongCandidates(t *testing.T) {
	e := sim.NewEngine()
	lock := NewLeaseLock()
	var electors []*Elector
	for _, id := range []string{"a", "b", "c"} {
		el := NewElector(e, lock, id)
		electors = append(electors, el)
		el.Run()
	}
	e.RunUntil(time.Minute)
	leaders := 0
	for _, el := range electors {
		if el.IsLeader() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want exactly 1", leaders)
	}
}

func TestFailoverAfterLeaderStops(t *testing.T) {
	e := sim.NewEngine()
	lock := NewLeaseLock()
	a := NewElector(e, lock, "a")
	b := NewElector(e, lock, "b")
	a.Run()
	e.RunUntil(time.Second) // a acquires first
	b.Run()
	e.RunUntil(10 * time.Second)
	if !a.IsLeader() || b.IsLeader() {
		t.Fatalf("initial leadership wrong: a=%v b=%v", a.IsLeader(), b.IsLeader())
	}
	stoppedAt := e.Now()
	a.Stop() // releases the lease
	e.RunUntil(stoppedAt + 5*time.Second)
	if !b.IsLeader() {
		t.Fatal("b did not take over within its retry interval after release")
	}
}

func TestFailoverAfterLeaderCrashes(t *testing.T) {
	// A "crash" is a leader that stops renewing without releasing: the
	// standby must take over only after lease expiry.
	e := sim.NewEngine()
	lock := NewLeaseLock()
	a := NewElector(e, lock, "a")
	b := NewElector(e, lock, "b")
	a.Run()
	b.Run()
	e.RunUntil(10 * time.Second)
	a.Crash() // stops renewing without Release
	crash := e.Now()
	e.RunUntil(crash + 10*time.Second)
	if b.IsLeader() {
		t.Fatal("b took over before the lease expired")
	}
	e.RunUntil(crash + 20*time.Second)
	if !b.IsLeader() {
		t.Fatal("b did not take over after lease expiry")
	}
}

// TestLeaderKillFailoverWithinTTL pins the failover window the chaos
// engine's leaderkill fault relies on: a crashed leader's lease stays on
// the books, the standby acquires within one lease TTL plus one retry
// interval, and at no instant do two electors both report leadership.
func TestLeaderKillFailoverWithinTTL(t *testing.T) {
	e := sim.NewEngine()
	lock := NewLeaseLock()
	a := NewElector(e, lock, "a")
	b := NewElector(e, lock, "b")
	a.Run()
	e.RunUntil(time.Second) // deterministic initial leader
	b.Run()

	// Sample the both-leaders invariant continuously, finer than any
	// renew/retry interval.
	overlaps := 0
	e.Every(500*time.Millisecond, func() {
		if a.IsLeader() && b.IsLeader() {
			overlaps++
		}
	})

	e.RunUntil(30 * time.Second)
	if !a.IsLeader() {
		t.Fatal("a is not the initial leader")
	}
	kill := e.Now()
	a.Crash()

	// The standby must NOT lead before the crashed leader's lease expires…
	e.RunUntil(kill + leaseDuration - time.Second)
	if b.IsLeader() {
		t.Fatal("b led before the crashed leader's lease expired")
	}
	// …and MUST lead within TTL + one retry interval.
	e.RunUntil(kill + leaseDuration + retryInterval + time.Second)
	if !b.IsLeader() {
		t.Fatal("b did not take over within lease TTL + retry interval")
	}

	// A revived ex-leader rejoins as a standby, not a second leader.
	a.Run()
	e.RunUntil(e.Now() + 30*time.Second)
	if a.IsLeader() || !b.IsLeader() {
		t.Fatalf("after revival: a=%v b=%v, want b sole leader", a.IsLeader(), b.IsLeader())
	}
	if overlaps != 0 {
		t.Fatalf("observed %d instants with two leaders", overlaps)
	}
}

func TestElectorRequiresID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty ID did not panic")
		}
	}()
	NewElector(sim.NewEngine(), NewLeaseLock(), "")
}
