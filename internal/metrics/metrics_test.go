package metrics

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestLabelsKeyCanonicalOrder(t *testing.T) {
	a := Labels{"b": "2", "a": "1"}
	b := Labels{"a": "1", "b": "2"}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	if a.Key() != "a=1,b=2" {
		t.Fatalf("key = %q", a.Key())
	}
	if Labels(nil).Key() != "" {
		t.Fatalf("nil labels key = %q, want empty", Labels(nil).Key())
	}
}

func TestLabelsCloneIndependence(t *testing.T) {
	a := Labels{"x": "1"}
	c := a.Clone()
	c["x"] = "2"
	if a["x"] != "1" {
		t.Fatal("Clone shares storage with original")
	}
}

func TestLabelsWithDoesNotMutate(t *testing.T) {
	a := Labels{"x": "1"}
	b := a.With("y", "2")
	if _, ok := a["y"]; ok {
		t.Fatal("With mutated the receiver")
	}
	if b["x"] != "1" || b["y"] != "2" {
		t.Fatalf("With result wrong: %v", b)
	}
}

func TestLabelsMatches(t *testing.T) {
	l := Labels{"cluster": "c1", "service": "s"}
	if !l.Matches(Labels{"cluster": "c1"}) {
		t.Fatal("subset match failed")
	}
	if !l.Matches(nil) {
		t.Fatal("empty matcher should match everything")
	}
	if l.Matches(Labels{"cluster": "c2"}) {
		t.Fatal("mismatched value matched")
	}
	if l.Matches(Labels{"zone": "z"}) {
		t.Fatal("absent label matched")
	}
}

func TestCounterMonotone(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	c.Add(-10) // ignored
	if c.Value() != 3.5 {
		t.Fatalf("Value = %v, want 3.5", c.Value())
	}
}

func TestGaugeOps(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Add(-2)
	g.Inc()
	g.Dec()
	if g.Value() != 3 {
		t.Fatalf("Value = %v, want 3", g.Value())
	}
}

func TestHistogramObserveAndBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", Labels{"b": "x"}, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.1) // le semantics: exactly on the bound
	h.Observe(0.5)
	h.Observe(5) // overflow
	if h.Count() != 4 {
		t.Fatalf("Count = %v, want 4", h.Count())
	}
	if h.Sum() != 5.65 {
		t.Fatalf("Sum = %v, want 5.65", h.Sum())
	}

	samples := r.Snapshot()
	want := map[string]float64{
		"lat_bucket|0.1":  2,
		"lat_bucket|1":    3,
		"lat_bucket|+Inf": 4,
		"lat_sum|":        5.65,
		"lat_count|":      4,
	}
	got := make(map[string]float64)
	for _, s := range samples {
		got[s.Name+"|"+s.Labels["le"]] = s.Value
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("sample %s = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x", Labels{"a": "1"})
	c2 := r.Counter("x", Labels{"a": "1"})
	if c1 != c2 {
		t.Fatal("same series returned different counters")
	}
	c3 := r.Counter("x", Labels{"a": "2"})
	if c1 == c3 {
		t.Fatal("different labels returned same counter")
	}
}

func TestRegistrySnapshotStableOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("b", nil).Inc()
	r.Counter("a", nil).Inc()
	r.Gauge("g", Labels{"x": "1"}).Set(2)
	s1 := r.Snapshot()
	s2 := r.Snapshot()
	if len(s1) != 3 || len(s2) != 3 {
		t.Fatalf("snapshot sizes: %d, %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].Name != s2[i].Name {
			t.Fatal("snapshot order not stable across scrapes")
		}
	}
	if s1[0].Name != "b" || s1[1].Name != "a" {
		t.Fatal("snapshot not in registration order")
	}
}

func TestHistogramBoundsMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", nil, []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("re-registration with different bounds did not panic")
		}
	}()
	r.Histogram("h", nil, []float64{1})
}

// A label set whose names sanitise to one name would be written with that
// name twice, and a reader rejects the whole page for one such line: the
// registration panics, naming both labels, and registers nothing.
func TestLabelNamesWrittenAlikePanic(t *testing.T) {
	labels := Labels{"bad-label": "1", "bad_label": "2"}
	for kind, register := range map[string]func(*Registry){
		"counter":   func(r *Registry) { r.Counter("c", labels) },
		"gauge":     func(r *Registry) { r.Gauge("c", labels) },
		"histogram": func(r *Registry) { r.Histogram("c", labels, []float64{1}) },
	} {
		r := NewRegistry()
		for try := 0; try < 2; try++ { // a second try is refused too
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, `"bad-label"`) || !strings.Contains(msg, `"bad_label"`) {
						t.Errorf("%s, try %d: panic %q, want one naming both labels", kind, try, msg)
					}
				}()
				register(r)
			}()
		}
		if n := len(r.Snapshot()); n != 0 {
			t.Errorf("%s: the refused series left %d samples", kind, n)
		}
		r.Counter("c", Labels{"bad-label": "1"}).Inc() // one of them alone is fine
	}
}

func TestHistogramNoBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty bounds did not panic")
		}
	}()
	NewRegistry().Histogram("h", nil, nil)
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", nil, []float64{1, 0.1})
	h.Observe(0.5)
	samples := r.Snapshot()
	// bucket le=0.1 must be 0, le=1 must be 1
	for _, s := range samples {
		switch s.Labels["le"] {
		case "0.1":
			if s.Value != 0 {
				t.Fatalf("le=0.1 bucket = %v, want 0", s.Value)
			}
		case "1":
			if s.Value != 1 {
				t.Fatalf("le=1 bucket = %v, want 1", s.Value)
			}
		}
	}
}

func TestConcurrentCounterAdds(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c", Labels{"w": "shared"}).Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c", Labels{"w": "shared"}).Value(); got != 8000 {
		t.Fatalf("concurrent count = %v, want 8000", got)
	}
}

// TestHistogramCountIsInfBucketUnderConcurrentObserves pins the Prometheus
// invariant _count == _bucket{le="+Inf"} while observations land mid-scrape,
// as they do on the wall plane: both must come from the same bucket reads,
// in a snapshot and on the text path, whose values are a second reader of
// the buckets.
func TestHistogramCountIsInfBucketUnderConcurrentObserves(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{0.01, 0.1, 1}
	h := r.Histogram("h", Labels{"a": "1"}, bounds)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				h.Observe(float64(i%4) * 0.4)
			}
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	inf, count := len(bounds), len(bounds)+2 // buckets, then _sum, then _count
	var buf []Sample
	for i := 0; i < 100_000; i++ {
		buf = r.SnapshotAppend(buf[:0])
		if buf[inf].Labels["le"] != "+Inf" || buf[count].Name != "h_count" {
			t.Fatalf("unexpected sample layout: %+v", buf)
		}
		if buf[count].Value != buf[inf].Value {
			t.Fatalf("snapshot %d: _count %v != +Inf bucket %v", i, buf[count].Value, buf[inf].Value)
		}
	}
	var text bytes.Buffer
	for i := 0; i < 5_000; i++ {
		text.Reset()
		if err := r.WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
		samples, err := ParseExposition(&text)
		if err != nil {
			t.Fatal(err)
		}
		lines := make(map[string]float64, len(samples))
		for _, s := range samples {
			lines[s.Name+s.Labels["le"]] = s.Value
		}
		if len(lines) != len(bounds)+3 {
			t.Fatalf("unexpected exposition: %+v", samples)
		}
		if lines["h_count"] != lines["h_bucket+Inf"] {
			t.Fatalf("exposition %d: _count %v != +Inf bucket %v", i, lines["h_count"], lines["h_bucket+Inf"])
		}
	}
}

func TestSnapshotLabelsIndependentOfCallerMap(t *testing.T) {
	// Snapshot labels are registry-owned and read-only by contract
	// (see SnapshotAppend); what must hold is that mutating the map the
	// caller registered with does not leak into snapshots.
	caller := Labels{"a": "1"}
	r := NewRegistry()
	r.Counter("c", caller).Inc()
	caller["a"] = "mutated"
	s := r.Snapshot()
	if s[0].Labels["a"] != "1" {
		t.Fatal("snapshot labels alias the caller's registration map")
	}
}

func TestSnapshotAppendReusesBuffer(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", Labels{"a": "1"}).Inc()
	r.Gauge("g", Labels{"a": "1"}).Set(2)
	r.Histogram("h", Labels{"a": "1"}, []float64{1, 2}).Observe(1.5)

	buf := r.SnapshotAppend(nil)
	want := r.Snapshot()
	if len(buf) != len(want) {
		t.Fatalf("len = %d, want %d", len(buf), len(want))
	}
	for i := range buf {
		if buf[i].Name != want[i].Name || buf[i].Value != want[i].Value ||
			buf[i].Kind != want[i].Kind || buf[i].Labels.Key() != want[i].Labels.Key() {
			t.Fatalf("sample %d: %+v != %+v", i, buf[i], want[i])
		}
	}

	// A warm buffer round-trips without growing or allocating.
	r.Counter("c", Labels{"a": "1"}).Inc()
	allocs := testing.AllocsPerRun(100, func() {
		buf = r.SnapshotAppend(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("warm SnapshotAppend allocated %.0f times, want 0", allocs)
	}
	if buf[0].Value != 2 {
		t.Fatalf("reused buffer holds stale value %v", buf[0].Value)
	}
}

// TestSnapshotOrderIsAppendOnly pins the contract SnapshotAppend documents
// and core.Scraper's per-position series refs rest on: whatever registers,
// observes or resets between two snapshots, the positions the first one had
// keep their name and labels in the second.
func TestSnapshotOrderIsAppendOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRegistry()
	type identity struct{ name, labels string }
	var seen []identity
	for round := 0; round < 200; round++ {
		for n := rng.Intn(4); n > 0; n-- {
			l := Labels{"backend": fmt.Sprintf("b%d", rng.Intn(12)), "class": fmt.Sprintf("c%d", rng.Intn(2))}
			switch rng.Intn(4) {
			case 0:
				r.Counter("total", l).Add(float64(rng.Intn(5)))
			case 1:
				r.Gauge("inflight", l).Set(rng.Float64())
			case 2:
				r.Histogram("latency", l, []float64{0.01, 0.1, 1}).Observe(rng.Float64())
			case 3:
				r.ResetCounters(Labels{"backend": l["backend"]})
			}
		}
		snap := r.Snapshot()
		if len(snap) < len(seen) {
			t.Fatalf("round %d: snapshot shrank from %d to %d samples", round, len(seen), len(snap))
		}
		for i, id := range seen {
			if got := (identity{snap[i].Name, snap[i].Labels.Key()}); got != id {
				t.Fatalf("round %d: position %d was %v, now %v", round, i, id, got)
			}
		}
		for _, s := range snap[len(seen):] {
			seen = append(seen, identity{s.Name, s.Labels.Key()})
		}
	}
	if len(seen) < 100 {
		t.Fatalf("only %d positions exercised", len(seen))
	}
}

func TestSnapshotAllocsPinned(t *testing.T) {
	// Satellite pin: a cold Snapshot on a populated registry must stay at
	// ≤ 2 allocations (the output slice; histogram expansion and label maps
	// are pre-built at registration).
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		l := Labels{"cluster": string(rune('a' + i))}
		r.Counter("req_total", l).Inc()
		r.Gauge("inflight", l).Set(float64(i))
		r.Histogram("latency", l, []float64{1, 5, 10, 50, 100}).Observe(float64(i))
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = r.Snapshot()
	})
	if allocs > 2 {
		t.Fatalf("Snapshot allocated %.0f times, want ≤ 2", allocs)
	}
}

// TestLabelsKeyInjectiveProperty: the registry keys a series injectively.
// Metric names, label names and values are drawn from an alphabet holding the
// separators a joined key uses — ',', '=' and NUL — so that one label set can
// spell another's pairs. Distinct series must get distinct handles, and equal
// ones the same handle.
func TestLabelsKeyInjectiveProperty(t *testing.T) {
	for _, pair := range [][2]Labels{
		{{"a": "1,b=2"}, {"a": "1", "b": "2"}},
		{{"a=b": "c"}, {"a": "b=c"}},
	} {
		if r := NewRegistry(); r.Counter("req_total", pair[0]) == r.Counter("req_total", pair[1]) {
			t.Errorf("%q and %q share a counter", map[string]string(pair[0]), map[string]string(pair[1]))
		}
	}
	alphabet := []string{"a", "b", ",", "=", "\x00"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		draw := func() string {
			var b strings.Builder
			for n := rng.Intn(4); n > 0; n-- {
				b.WriteString(alphabet[rng.Intn(len(alphabet))])
			}
			return b.String()
		}
		type series struct {
			name   string
			labels Labels
			handle *Counter
		}
		r := NewRegistry()
		var drawn []series
		for i := 0; i < 30; i++ {
			s := series{name: []string{"req_total", "req_total\x00a", "req"}[rng.Intn(3)], labels: Labels{}}
			written := make(map[string]string) // sanitised label name -> the name; registration refuses two
			for n := rng.Intn(3); n > 0; n-- {
				k := draw()
				if other, ok := written[sanitizeName(k)]; ok && other != k {
					continue
				}
				written[sanitizeName(k)] = k
				s.labels[k] = draw()
			}
			s.handle = r.Counter(s.name, s.labels)
			drawn = append(drawn, s)
		}
		for _, a := range drawn {
			for _, b := range drawn {
				if same := a.name == b.name && a.labels.Equal(b.labels); same != (a.handle == b.handle) {
					t.Logf("%q%q and %q%q: same series %v, same handle %v", a.name, map[string]string(a.labels), b.name, map[string]string(b.labels), same, !same)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelsEqual(t *testing.T) {
	a := Labels{"backend": "b", "le": ""}
	for _, c := range []struct {
		o    Labels
		want bool
	}{
		{Labels{"le": "", "backend": "b"}, true},
		{Labels{"backend": "b"}, false},
		{Labels{"backend": "b", "src": ""}, false}, // same size, an absent label reads as ""
		{Labels{"backend": "c", "le": ""}, false},
		{nil, false},
	} {
		if got := a.Equal(c.o); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", a, c.o, got, c.want)
		}
	}
	if !Labels(nil).Equal(Labels{}) {
		t.Error("nil and empty label sets differ")
	}
}

func TestLabelsHashIgnoresOrderAndAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		var pairs [][2]string
		for n := rng.Intn(7); n > 0; n-- {
			pairs = append(pairs, [2]string{fmt.Sprintf("k%d", rng.Intn(20)), fmt.Sprintf("v%d", rng.Intn(5))})
		}
		forward, backward := Labels{}, Labels{}
		for j := range pairs {
			forward[pairs[j][0]] = pairs[j][1]
		}
		for j := len(pairs) - 1; j >= 0; j-- { // same pairs, inserted in the opposite order
			backward[pairs[j][0]] = forward[pairs[j][0]]
		}
		if !forward.Equal(backward) || forward.Hash() != backward.Hash() {
			t.Fatalf("%v and %v: equal sets must hash alike", forward, backward)
		}
	}
	distinct := []Labels{nil, {"ab": "c"}, {"a": "bc"}, {"abc": ""}, {"a": "b", "c": "d"}, {"a": "d", "c": "b"}, {"c": "b", "a": "d", "e": ""}}
	seen := map[uint64]Labels{}
	for _, l := range distinct {
		if other, dup := seen[l.Hash()]; dup {
			t.Errorf("%v and %v hash alike", l, other)
		}
		seen[l.Hash()] = l
	}
	l := Labels{"service": "api", "backend": "api-cluster-1", "src": "cluster-1", "classification": "success", "le": "0.5"}
	if n := testing.AllocsPerRun(100, func() { _ = l.Hash() }); n != 0 {
		t.Errorf("Hash: %v allocs, want 0", n)
	}
}
