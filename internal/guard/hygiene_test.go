package guard

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"l3/internal/metrics"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

func TestHygieneRejectsGarbageValues(t *testing.T) {
	h := NewHygiene(Config{}, nil)
	lbl := metrics.Labels{"backend": "b"}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -0.001} {
		if _, ok := h.Admit("m", lbl, metrics.KindCounter, sec(5), v); ok {
			t.Errorf("Admit(%v) accepted", v)
		}
	}
	if got := h.RejectedTotal(); got != 5 {
		t.Fatalf("RejectedTotal = %v, want 5", got)
	}
	if _, ok := h.Admit("m", lbl, metrics.KindCounter, sec(5), 10); !ok {
		t.Fatal("clean sample rejected")
	}
}

func TestHygieneDuplicateAndOutOfOrder(t *testing.T) {
	h := NewHygiene(Config{}, nil)
	lbl := metrics.Labels{"backend": "b"}
	if _, ok := h.Admit("m", lbl, metrics.KindCounter, sec(5), 10); !ok {
		t.Fatal("first sample rejected")
	}
	// Duplicate timestamp: first write wins, even with a different value.
	if _, ok := h.Admit("m", lbl, metrics.KindCounter, sec(5), 11); ok {
		t.Fatal("duplicate timestamp accepted")
	}
	// Out of order: the frontier only moves forward.
	if _, ok := h.Admit("m", lbl, metrics.KindCounter, sec(4), 12); ok {
		t.Fatal("out-of-order sample accepted")
	}
	// The frontier itself is untouched: the next in-order sample works.
	if v, ok := h.Admit("m", lbl, metrics.KindCounter, sec(10), 20); !ok || v != 20 {
		t.Fatalf("in-order sample after rejections: %v, %v", v, ok)
	}
	if got := h.RejectedTotal(); got != 2 {
		t.Fatalf("RejectedTotal = %v, want 2", got)
	}
}

func TestHygieneSplicesCounterReset(t *testing.T) {
	h := NewHygiene(Config{}, nil)
	lbl := metrics.Labels{"backend": "b"}
	admit := func(at int, v float64) float64 {
		t.Helper()
		got, ok := h.Admit("m", lbl, metrics.KindCounter, sec(at), v)
		if !ok {
			t.Fatalf("Admit(t=%ds, v=%v) rejected", at, v)
		}
		return got
	}
	admit(5, 100)
	admit(10, 200)
	// Restart: the counter re-exposes from ~0. Spliced onto the offset the
	// stored series keeps increasing.
	if got := admit(15, 50); got != 250 {
		t.Fatalf("spliced value = %v, want 250 (200 offset + 50)", got)
	}
	if got := admit(20, 150); got != 350 {
		t.Fatalf("post-reset value = %v, want 350", got)
	}
	if h.ResetsTotal() != 1 {
		t.Fatalf("ResetsTotal = %v, want 1", h.ResetsTotal())
	}
	// A second reset stacks offsets.
	if got := admit(25, 10); got != 360 {
		t.Fatalf("second splice = %v, want 360 (350 offset + 10)", got)
	}
	rt, ok := h.LastReset(metrics.Labels{"backend": "b"})
	if !ok || rt != sec(25) {
		t.Fatalf("LastReset = %v, %v; want 25s", rt, ok)
	}
	if _, ok := h.LastReset(metrics.Labels{"backend": "other"}); ok {
		t.Fatal("LastReset matched a different backend")
	}
}

func TestHygieneShallowDecreaseIsAnomalyNotReset(t *testing.T) {
	h := NewHygiene(Config{}, nil)
	lbl := metrics.Labels{"backend": "b"}
	h.Admit("m", lbl, metrics.KindCounter, sec(5), 1000)
	// 900 is 90% of the previous value: restarted counters re-expose near
	// zero, so this is a corrupt sample. Raw increase() would have treated
	// it as a reset and added 900 to the window's delta.
	if _, ok := h.Admit("m", lbl, metrics.KindCounter, sec(10), 900); ok {
		t.Fatal("shallow decrease accepted")
	}
	if h.ResetsTotal() != 0 {
		t.Fatalf("shallow decrease counted as reset")
	}
	// The frontier keeps the last good value: a resumed counter continues.
	if v, ok := h.Admit("m", lbl, metrics.KindCounter, sec(15), 1100); !ok || v != 1100 {
		t.Fatalf("resumed sample: %v, %v", v, ok)
	}
}

func TestHygieneGaugesMayDecrease(t *testing.T) {
	h := NewHygiene(Config{}, nil)
	lbl := metrics.Labels{"backend": "b"}
	h.Admit("g", lbl, metrics.KindGauge, sec(5), 10)
	if v, ok := h.Admit("g", lbl, metrics.KindGauge, sec(10), 2); !ok || v != 2 {
		t.Fatalf("gauge decrease: %v, %v; want 2, true", v, ok)
	}
	if h.ResetsTotal() != 0 || h.RejectedTotal() != 0 {
		t.Fatal("gauge decrease miscounted as reset or rejection")
	}
}

func TestHygieneCountersInRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	h := NewHygiene(Config{}, reg)
	h.Admit("m", nil, metrics.KindCounter, sec(5), math.NaN())
	if got := reg.Counter(MetricRejectedTotal, metrics.Labels{"reason": "nan"}).Value(); got != 1 {
		t.Fatalf("registry nan rejection counter = %v, want 1", got)
	}
}

// Two label sets filed under one hash keep separate states: the lookup
// confirms with Equal and walks the chain. Each set arrives in a fresh map,
// so the hash path answers every time.
func TestHygieneKeepsCollidingLabelSetsApart(t *testing.T) {
	t.Cleanup(func() { hashLabels = metrics.Labels.Hash })
	hashLabels = func(metrics.Labels) uint64 { return 42 }
	h := NewHygiene(Config{}, nil)
	a, b := metrics.Labels{"backend": "a"}, metrics.Labels{"backend": "b"}
	sa, created := h.state("response_total", a.Clone())
	if !created {
		t.Fatal("first sight of a not reported as created")
	}
	sb, created := h.state("response_total", b.Clone())
	if !created || sb == sa {
		t.Fatal("b, colliding with a, was handed a's state")
	}
	if got, created := h.state("response_total", a.Clone()); created || got != sa {
		t.Fatal("a not found behind b in the chain")
	}
	if got, created := h.state("response_total", b.Clone()); created || got != sb {
		t.Fatal("b not found at the head of the chain")
	}
	if got, created := h.state("other_total", a.Clone()); !created || got == sa {
		t.Fatal("the same labels under another metric name shared a state")
	}
	if h.hashed != 5 {
		t.Fatalf("%d hash-path resolutions, want 5", h.hashed)
	}
}

// LastReset looks only at series that have spliced a reset, and still
// answers by subset match with the newest splice.
func TestHygieneLastResetConsultsOnlyResetSeries(t *testing.T) {
	h := NewHygiene(Config{}, nil)
	for i := 0; i < 50; i++ {
		l := metrics.Labels{"backend": "steady", "shard": string(rune('a' + i%26)), "n": string(rune('0' + i/26))}
		h.Admit("response_total", l, metrics.KindCounter, sec(1), 100)
		h.Admit("response_total", l, metrics.KindCounter, sec(2), 200)
	}
	if _, ok := h.LastReset(nil); ok || len(h.reset) != 0 {
		t.Fatalf("no series reset, LastReset ok=%v over %d candidates", ok, len(h.reset))
	}
	succ := metrics.Labels{"backend": "restarted", "classification": "success"}
	fail := metrics.Labels{"backend": "restarted", "classification": "failure"}
	for _, s := range []struct {
		l  metrics.Labels
		at int
		v  float64
	}{{succ, 1, 1000}, {fail, 1, 1000}, {succ, 3, 1}, {fail, 4, 1}, {succ, 4, 500}, {succ, 5, 2}} {
		h.Admit("response_total", s.l, metrics.KindCounter, sec(s.at), s.v)
	}
	if len(h.reset) != 2 {
		t.Fatalf("%d series listed as reset, want 2 (one spliced twice)", len(h.reset))
	}
	if at, ok := h.LastReset(metrics.Labels{"backend": "restarted"}); !ok || at != sec(5) {
		t.Fatalf("LastReset(restarted) = (%v, %v), want (5s, true)", at, ok)
	}
	if at, ok := h.LastReset(metrics.Labels{"classification": "failure"}); !ok || at != sec(4) {
		t.Fatalf("LastReset(failure) = (%v, %v), want (4s, true)", at, ok)
	}
	if _, ok := h.LastReset(metrics.Labels{"backend": "steady"}); ok {
		t.Fatal("LastReset(steady) found a reset")
	}
}

// An index entry is made once per series, never once per sample: the third
// pass over the same parsed samples resolves no state by hash nor through the
// name map — each is the predicted successor of the one before — and a clone
// per sample resolves every one by hash and makes no entry.
func TestHygieneIndexIsMadeOncePerSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	for i := 0; i < 5; i++ {
		l := metrics.Labels{"backend": fmt.Sprintf("hygiene-b%d", i)}
		reg.Counter("response_total", l).Inc()
		reg.Histogram("response_latency", l, []float64{0.5}).Observe(1)
	}
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseExposition(&text)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(samples))
	h := NewHygiene(Config{}, nil)
	indexed := func() (total int) {
		for _, named := range h.series {
			total += named.byMap.Len()
		}
		return total
	}
	for pass, want := range []struct {
		clone          bool
		hashed, mapped uint64
		indexed        int
	}{{false, n, n, 0}, {false, n, n, int(n)}, {false, 0, 0, int(n)}, {true, n, n, 0}, {true, n, n, 0}} {
		before, mappedBefore := h.hashed, h.mapped
		var clones []metrics.Labels // alive for the pass: no address is reused
		for _, s := range samples {
			l := s.Labels
			if want.clone {
				l = l.Clone()
				clones = append(clones, l)
			}
			if _, ok := h.Admit(s.Name, l, s.Kind, sec(pass+1), s.Value); !ok {
				t.Fatalf("pass %d: %s%v rejected", pass+1, s.Name, l)
			}
		}
		runtime.KeepAlive(clones)
		if hashed, mapped := h.hashed-before, h.mapped-mappedBefore; hashed != want.hashed || mapped != want.mapped || indexed() != want.indexed {
			t.Fatalf("pass %d (clone %v): %d hash-path and %d map-path resolutions, %d indexed maps; want %d, %d and %d",
				pass+1, want.clone, hashed, mapped, indexed(), want.hashed, want.mapped, want.indexed)
		}
	}
}

// A series state stays in the 64-byte allocation class: one more field moves
// every state to 80 bytes.
func TestStateFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(seriesState{}); n > 64 {
		t.Fatalf("a series state is %d bytes, want at most 64", n)
	}
}

// New states are carved from chunks that fill the 16 KiB size class: a chunk
// costs the heap at most 16 384 bytes, with no room left in it for one more
// state beside the 8-byte header, and no state is handed out twice.
func TestStateChunkFillsItsSizeClass(t *testing.T) {
	h := NewHygiene(Config{}, nil)
	cost := uint64(math.MaxUint64)
	seen := make(map[*seriesState]bool)
	handed := make([]*seriesState, stateChunk)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range handed {
			handed[i] = h.newState()
		}
		runtime.ReadMemStats(&after)
		cost = min(cost, after.TotalAlloc-before.TotalAlloc)
		for _, st := range handed {
			if seen[st] {
				t.Fatalf("chunk %d hands out a state twice", try+1)
			}
			seen[st] = true
		}
	}
	size := uint64(unsafe.Sizeof(seriesState{}))
	if want := uint64(stateChunk) * size; cost < want || cost-want >= size+8 || cost > 16<<10 {
		t.Fatalf("a chunk of %d states costs %d bytes, want %d to %d and at most 16 384", stateChunk, cost, want, want+size+7)
	}
	t.Logf("a chunk of %d states costs %d bytes", stateChunk, cost)
}

// States carved from one chunk, and from the next, keep their own frontier
// and reset offset: every series is admitted at its own times, so a state
// handed out twice would reject its twin's samples as duplicates or splice
// its resets.
func TestStatesSharingAChunkStayApart(t *testing.T) {
	h := NewHygiene(Config{}, nil)
	n := stateChunk + 3
	labels := make([]metrics.Labels, n)
	for i := range labels {
		labels[i] = metrics.Labels{"backend": fmt.Sprint(i)}
	}
	for step := 1; step <= 4; step++ {
		for i, l := range labels {
			v := float64(100 * step)
			if i%2 == 1 && step == 4 {
				v = 1 // a restart on every odd series
			}
			got, ok := h.Admit("response_total", l, metrics.KindCounter, sec(n*step+i), v)
			want := v
			if i%2 == 1 && step == 4 {
				want = 301
			}
			if !ok || got != want {
				t.Fatalf("series %d step %d: admitted %v, %v; want %v", i, step, got, ok, want)
			}
		}
	}
	if h.RejectedTotal() != 0 || h.ResetsTotal() != float64(n/2) {
		t.Fatalf("%v rejected, %v resets; want 0 and %d", h.RejectedTotal(), h.ResetsTotal(), n/2)
	}
}

// TestIndexedHygieneMatchesHashedTwin drives one gate with one label map per
// series — turned over mid-stream now and then, some maps serving two metric
// names, some nil or empty — and a twin with a clone per sample, which
// resolves every sample by hash, through the same seeded streams of
// duplicate, out-of-order, garbage, reset and shallow-decrease samples, some
// steps visiting the series in reverse. In half the cases the indexed gate
// files every label set under one hash.
// Every admission must agree bit for bit, and so must the counters and
// LastReset; after each, both gates' states hold the very map they were
// handed. Then 10 000 samples over 100 series, a fresh Clone for every one:
// the index stays within one entry a series, and every admission equals that
// of a gate handed one map per series.
func TestIndexedHygieneMatchesHashedTwin(t *testing.T) {
	t.Cleanup(func() { hashLabels = metrics.Labels.Hash })
	names := []string{"response_total", "response_latency_sum", "response_latency_count", "request_inflight"}
	kinds := []metrics.Kind{metrics.KindCounter, metrics.KindCounter, metrics.KindCounter, metrics.KindGauge}
	labelNames := []string{"backend", "classification", "src"}
	values := map[string][]string{"backend": {"a", "b", "c", "d", "e", "f"}, "classification": {"success", "failure", ""}, "src": {"c1", "c2", ""}}
	const cases = 300
	admits, mapped, hashed := 0, uint64(0), uint64(0)
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		collide := c%2 == 1
		reg, twinReg := metrics.NewRegistry(), metrics.NewRegistry()
		h, twin := NewHygiene(Config{}, reg), NewHygiene(Config{}, twinReg)
		type live struct {
			name   int
			labels metrics.Labels
			value  float64
		}
		var series []*live
		now := sec(0)
		for step := 0; step < 30+rng.Intn(20); step++ {
			switch rng.Intn(8) {
			case 0: // a double-fired scrape
			case 1:
				now -= sec(rng.Intn(5))
			default:
				now += sec(1 + rng.Intn(5))
			}
			for k := rng.Intn(3); k > 0; k-- {
				s := &live{name: rng.Intn(len(names)), labels: metrics.Labels{}}
				for _, label := range labelNames {
					if v := values[label][rng.Intn(len(values[label]))]; v != "" {
						s.labels[label] = v
					}
				}
				switch {
				case rng.Intn(6) == 0:
					s.labels = nil
				case rng.Intn(6) == 0:
					s.labels = metrics.Labels{}
				case len(series) > 0 && rng.Intn(4) == 0: // one map, two names
					other := series[rng.Intn(len(series))]
					s.name, s.labels = (other.name+1+rng.Intn(len(names)-1))%len(names), other.labels
				}
				series = append(series, s)
			}
			order := series
			if rng.Intn(3) == 0 { // a reversed pass: the predictions point the other way
				order = slices.Clone(series)
				slices.Reverse(order)
			}
			for _, s := range order {
				if rng.Intn(5) == 0 {
					continue
				}
				if s.labels != nil && rng.Intn(25) == 0 {
					s.labels = s.labels.Clone() // the parse table turned over
				}
				switch r := rng.Intn(30); {
				case r == 0:
					s.value = float64(rng.Intn(3)) // restarted
				case r == 1:
					s.value *= 0.9 // shallow decrease
				default:
					s.value += float64(rng.Intn(100))
				}
				v := s.value
				if rng.Intn(25) == 0 {
					v = []float64{math.NaN(), math.Inf(1), -1}[rng.Intn(3)]
				}
				if collide {
					hashLabels = func(metrics.Labels) uint64 { return 42 }
				}
				got, gotOK := h.Admit(names[s.name], s.labels, kinds[s.name], now, v)
				hashLabels = metrics.Labels.Hash
				clone := s.labels.Clone()
				want, wantOK := twin.Admit(names[s.name], clone, kinds[s.name], now, v)
				if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("case %d step %d: Admit(%s%v, %v, %v) = (%v, %v), hashed twin (%v, %v)",
						c, step, names[s.name], s.labels, now, v, got, gotOK, want, wantOK)
				}
				// A garbage value is turned away before any state is
				// looked up; a nil map has no identity to hold.
				if v >= 0 && !math.IsInf(v, 0) && s.labels != nil &&
					(!metrics.SameMap(held(h, names[s.name], s.labels), s.labels) || !metrics.SameMap(held(twin, names[s.name], clone), clone)) {
					t.Fatalf("case %d step %d: the state of %s%v does not hold the map it was handed", c, step, names[s.name], s.labels)
				}
				admits++
			}
		}
		mapped, hashed = mapped+h.mapped, hashed+h.hashed
		g, w := reg.Snapshot(), twinReg.Snapshot()
		for i := range w {
			if g[i].Value != w[i].Value {
				t.Fatalf("case %d: %s%v = %v, hashed twin %v", c, g[i].Name, g[i].Labels, g[i].Value, w[i].Value)
			}
		}
		for _, match := range []metrics.Labels{nil, {"backend": "a"}, {"classification": "failure"}} {
			gt, gok := h.LastReset(match)
			wt, wok := twin.LastReset(match)
			if gt != wt || gok != wok {
				t.Fatalf("case %d: LastReset(%v) = (%v, %v), hashed twin (%v, %v)", c, match, gt, gok, wt, wok)
			}
		}
	}
	if hashed > uint64(admits)/2 {
		t.Fatalf("%d of %d admissions resolved by hash: the identity index is barely exercised", hashed, admits)
	}
	t.Logf("%d cases, %d admissions equal to the hashed twin's; %d missed the prediction, %d resolved by hash", cases, admits, mapped, hashed)

	fresh, shared := NewHygiene(Config{}, nil), NewHygiene(Config{}, nil)
	labels := make([]metrics.Labels, 100)
	for i := range labels {
		labels[i] = metrics.Labels{"backend": fmt.Sprintf("b%d", i%50), "classification": []string{"success", "failure"}[i/50]}
	}
	for pass := 1; pass <= 100; pass++ {
		for i, l := range labels {
			v := float64(pass * (i + 1))
			if pass%30 == 0 {
				v = float64(i % 3) // every series restarts now and then
			}
			own := l.Clone()
			got, gotOK := fresh.Admit("response_total", own, metrics.KindCounter, sec(5*pass), v)
			want, wantOK := shared.Admit("response_total", l, metrics.KindCounter, sec(5*pass), v)
			if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pass %d: Admit(%v, %v) = (%v, %v) with a clone per sample, (%v, %v) with one map per series", pass, l, v, got, gotOK, want, wantOK)
			}
			if !metrics.SameMap(held(fresh, "response_total", l), own) {
				t.Fatalf("pass %d: the state of %v does not hold the clone it was handed", pass, l)
			}
		}
	}
	if n, m := fresh.series["response_total"].byMap.Len(), shared.series["response_total"].byMap.Len(); n > len(labels) || m != len(labels) {
		t.Fatalf("%d index entries for a clone per sample, %d for one map per series; want at most and exactly %d", n, m, len(labels))
	}
}

// held returns the map h's state for (name, labels) holds, nil when it has none.
func held(h *Hygiene, name string, labels metrics.Labels) metrics.Labels {
	if named := h.series[name]; named != nil {
		for _, st := range named.byHash {
			for ; st != nil; st = st.next {
				if st.labels.Equal(labels) {
					return st.labels
				}
			}
		}
	}
	return nil
}
