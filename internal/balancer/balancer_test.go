package balancer

import (
	"math"
	"testing"
	"time"

	"l3/internal/mesh"
	"l3/internal/sim"
	"l3/internal/smi"
)

func backends(names ...string) []*mesh.Backend {
	out := make([]*mesh.Backend, len(names))
	for i, n := range names {
		out[i] = &mesh.Backend{Name: n, Cluster: "cluster-" + n}
	}
	return out
}

func TestRoundRobinCycles(t *testing.T) {
	rr := NewRoundRobin()
	bs := backends("a", "b", "c")
	var got []string
	for i := 0; i < 6; i++ {
		got = append(got, rr.Pick(0, "c1", "svc", bs).Name)
	}
	want := []string{"a", "b", "c", "a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v, want %v", got, want)
		}
	}
}

func TestRoundRobinPerServiceCounters(t *testing.T) {
	rr := NewRoundRobin()
	bs := backends("a", "b")
	if rr.Pick(0, "c1", "s1", bs).Name != "a" {
		t.Fatal("s1 first pick wrong")
	}
	if rr.Pick(0, "c1", "s2", bs).Name != "a" {
		t.Fatal("s2 should have its own counter")
	}
	if rr.Pick(0, "c1", "s1", bs).Name != "b" {
		t.Fatal("s1 second pick wrong")
	}
}

func TestRoundRobinEmpty(t *testing.T) {
	if NewRoundRobin().Pick(0, "c1", "s", nil) != nil {
		t.Fatal("empty backends should return nil")
	}
}

func TestWeightedSplitFollowsRatios(t *testing.T) {
	splits := smi.NewStore()
	_ = splits.Create(&smi.TrafficSplit{
		Name: "svc", RootService: "svc",
		Backends: []smi.Backend{
			{Service: "a", Weight: 900},
			{Service: "b", Weight: 100},
		},
	})
	w := NewWeightedSplit(splits, sim.NewRand(1), nil)
	bs := backends("a", "b")
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[w.Pick(0, "c1", "svc", bs).Name]++
	}
	frac := float64(counts["a"]) / n
	if math.Abs(frac-0.9) > 0.02 {
		t.Fatalf("a received %.3f of traffic, want ~0.9", frac)
	}
}

func TestWeightedSplitZeroWeightBackendStarved(t *testing.T) {
	splits := smi.NewStore()
	_ = splits.Create(&smi.TrafficSplit{
		Name: "svc", RootService: "svc",
		Backends: []smi.Backend{
			{Service: "a", Weight: 100},
			{Service: "b", Weight: 0},
		},
	})
	w := NewWeightedSplit(splits, sim.NewRand(1), nil)
	bs := backends("a", "b")
	for i := 0; i < 1000; i++ {
		if w.Pick(0, "c1", "svc", bs).Name == "b" {
			t.Fatal("zero-weight backend received traffic")
		}
	}
}

func TestWeightedSplitMissingSplitUniform(t *testing.T) {
	w := NewWeightedSplit(smi.NewStore(), sim.NewRand(1), nil)
	bs := backends("a", "b")
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		counts[w.Pick(0, "c1", "svc", bs).Name]++
	}
	if counts["a"] < 800 || counts["b"] < 800 {
		t.Fatalf("fallback not ~uniform: %v", counts)
	}
}

func TestWeightedSplitAllZeroWeightsUniform(t *testing.T) {
	splits := smi.NewStore()
	_ = splits.Create(&smi.TrafficSplit{
		Name: "svc", RootService: "svc",
		Backends: []smi.Backend{{Service: "a", Weight: 0}, {Service: "b", Weight: 0}},
	})
	w := NewWeightedSplit(splits, sim.NewRand(1), nil)
	bs := backends("a", "b")
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		counts[w.Pick(0, "c1", "svc", bs).Name]++
	}
	if counts["a"] == 0 || counts["b"] == 0 {
		t.Fatalf("inert split starved a backend: %v", counts)
	}
}

func TestWeightedSplitCustomNameMapping(t *testing.T) {
	splits := smi.NewStore()
	_ = splits.Create(&smi.TrafficSplit{
		Name: "split-for-svc", RootService: "svc",
		Backends: []smi.Backend{{Service: "a", Weight: 1}},
	})
	w := NewWeightedSplit(splits, sim.NewRand(1), func(_, s string) string { return "split-for-" + s })
	bs := backends("a", "b")
	for i := 0; i < 100; i++ {
		if w.Pick(0, "c1", "svc", bs).Name != "a" {
			t.Fatal("name mapping not applied")
		}
	}
}

func TestWeightedSplitTracksLiveUpdates(t *testing.T) {
	splits := smi.NewStore()
	_ = splits.Create(&smi.TrafficSplit{
		Name: "svc", RootService: "svc",
		Backends: []smi.Backend{{Service: "a", Weight: 1}, {Service: "b", Weight: 0}},
	})
	w := NewWeightedSplit(splits, sim.NewRand(1), nil)
	bs := backends("a", "b")
	if w.Pick(0, "c1", "svc", bs).Name != "a" {
		t.Fatal("initial weights not honoured")
	}
	ts, _ := splits.Get("svc")
	next, _ := ts.WithWeights(map[string]int64{"a": 0, "b": 1})
	_ = splits.Update(next)
	for i := 0; i < 100; i++ {
		if w.Pick(0, "c1", "svc", bs).Name != "b" {
			t.Fatal("weight update not picked up")
		}
	}
}

func TestP2CPrefersFasterBackend(t *testing.T) {
	p := NewP2C(sim.NewRand(1), 5*time.Second, time.Second)
	bs := backends("fast", "slow")
	// Teach it: fast answers in 10ms, slow in 500ms.
	for i := 0; i < 50; i++ {
		now := time.Duration(i) * 100 * time.Millisecond
		p.Observe(now, "c1", "fast", 10*time.Millisecond, true)
		p.Observe(now, "c1", "slow", 500*time.Millisecond, true)
	}
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		b := p.Pick(10*time.Second, "c1", "svc", bs)
		counts[b.Name]++
		p.Observe(10*time.Second, "c1", b.Name, map[string]time.Duration{
			"fast": 10 * time.Millisecond, "slow": 500 * time.Millisecond,
		}[b.Name], true)
	}
	if counts["fast"] < counts["slow"]*2 {
		t.Fatalf("P2C did not prefer the fast backend: %v", counts)
	}
}

func TestP2CSingleBackend(t *testing.T) {
	p := NewP2C(sim.NewRand(1), 0, 0)
	bs := backends("only")
	if p.Pick(0, "c1", "svc", bs).Name != "only" {
		t.Fatal("single backend not picked")
	}
	if p.Pick(0, "c1", "svc", nil) != nil {
		t.Fatal("empty backends should return nil")
	}
}

func TestP2CInflightPressureSpreadsLoad(t *testing.T) {
	// With equal latency, a backend loaded with outstanding requests must
	// lose to an idle one.
	p := NewP2C(sim.NewRand(1), 5*time.Second, 100*time.Millisecond)
	bs := backends("a", "b")
	// Issue many picks without completions: inflight builds on whichever
	// is chosen, so counts should stay roughly balanced.
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		counts[p.Pick(0, "c1", "svc", bs).Name]++
	}
	ratio := float64(counts["a"]) / float64(counts["b"]+1)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("inflight pressure did not balance: %v", counts)
	}
}

func TestP2CObserveUnknownBackendSafe(t *testing.T) {
	p := NewP2C(sim.NewRand(1), time.Second, time.Second)
	p.Observe(0, "c1", "never-picked", time.Millisecond, true) // must not panic
}

func TestPreferClusterRoutesLocally(t *testing.T) {
	p := NewPreferCluster("cluster-a", nil)
	bs := backends("a", "b") // clusters cluster-a, cluster-b
	for i := 0; i < 10; i++ {
		if got := p.Pick(0, "c1", "svc", bs).Name; got != "a" {
			t.Fatalf("pick = %s, want local backend a", got)
		}
	}
}

func TestPreferClusterFallsBack(t *testing.T) {
	p := NewPreferCluster("cluster-z", nil)
	bs := backends("a", "b")
	got := map[string]bool{}
	for i := 0; i < 10; i++ {
		got[p.Pick(0, "c1", "svc", bs).Name] = true
	}
	if !got["a"] || !got["b"] {
		t.Fatalf("fallback round-robin did not cycle: %v", got)
	}
	// Explicit fallback picker is honoured.
	p2 := NewPreferCluster("cluster-z", pickLast{})
	if p2.Pick(0, "c1", "svc", bs).Name != "b" {
		t.Fatal("explicit fallback ignored")
	}
}

type pickLast struct{}

func (pickLast) Pick(_ time.Duration, _, _ string, bs []*mesh.Backend) *mesh.Backend {
	return bs[len(bs)-1]
}
