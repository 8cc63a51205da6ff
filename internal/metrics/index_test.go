package metrics

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// indexOracle checks an index against a plain map keyed by name and
// Labels.Key(). Every resolution must hand back the oracle series' one entry,
// create it exactly on the oracle's first sight of the series, never hand out
// an entry twice, and leave the entry holding the map it was handed. A new
// entry must be zeroed; the oracle then stamps it with the series' number in
// the slot stamp picks out of its value, so an entry two series shared would
// show the other's.
type indexOracle[T any] struct {
	ix     *Index[T]
	stamp  func(*T) *int64
	series map[string]*Entry[T]
	keys   []string // by stamp, less one
}

func newIndexOracle[T any](stamp func(*T) *int64) *indexOracle[T] {
	return &indexOracle[T]{ix: new(Index[T]), stamp: stamp, series: make(map[string]*Entry[T])}
}

// seriesStamp and stateStamp pick a slot out of a series-shaped and a
// state-shaped value.
func seriesStamp(v *seriesBody) *int64 { return &v.window[0].t }
func stateStamp(v *stateBody) *int64   { return &v[0] }

// key returns the series e is stamped with.
func (o *indexOracle[T]) key(e *Entry[T]) string {
	if n := *o.stamp(&e.Value); n > 0 && n <= int64(len(o.keys)) {
		return o.keys[n-1]
	}
	return fmt.Sprintf("stamp %d", *o.stamp(&e.Value))
}

func (o *indexOracle[T]) resolve(tb testing.TB, name string, l Labels) *Entry[T] {
	tb.Helper()
	e, created := o.ix.Resolve(name, l)
	key := name + "\x00" + l.Key()
	want, seen := o.series[key]
	switch {
	case seen && (created || e != want):
		tb.Fatalf("Resolve(%s%v) = (%q, created %v), want the series' own entry", name, l, o.key(e), created)
	case !seen && !created:
		tb.Fatalf("Resolve(%s%v) found %q, a series never resolved", name, l, o.key(e))
	case created && !reflect.ValueOf(e.Value).IsZero():
		tb.Fatalf("Resolve(%s%v) created an entry already handed to %q", name, l, o.key(e))
	case created:
		o.keys = append(o.keys, key)
		*o.stamp(&e.Value) = int64(len(o.keys))
		o.series[key] = e
	}
	if got := o.key(e); got != key {
		tb.Fatalf("the entry of %s%v carries %q", name, l, got)
	}
	if !e.Labels().Equal(l) || l != nil && !SameMap(e.Labels(), l) {
		tb.Fatalf("the entry of %s%v does not hold the map it was handed", name, l)
	}
	return e
}

// indexed returns how many label maps the index's map step holds, after
// checking that a name's map step holds a map for an entry exactly when the
// entry is marked indexed and holds that map.
func (o *indexOracle[T]) indexed(tb testing.TB) int {
	tb.Helper()
	marked := 0
	for _, e := range o.series {
		if e.indexed {
			marked++
			if o.ix.byName[o.ix.names[e.name]].byMap[identity(e.labels)] != e {
				tb.Fatalf("%q is marked indexed, but its name's map step does not hold its map for it", o.key(e))
			}
		}
	}
	n := 0
	for _, named := range o.ix.byName {
		n += len(named.byMap)
	}
	if n != marked {
		tb.Fatalf("the map step holds %d maps, %d entries are marked indexed", n, marked)
	}
	return n
}

// collide files every label set under one hash until the test ends.
func collide(tb testing.TB) {
	hashLabels = func(Labels) uint64 { return 42 }
	tb.Cleanup(func() { hashLabels = Labels.Hash })
}

// An entry is made in the map step once per series, on the second sighting of
// its map, never once per sample: the third pass over the same parsed samples
// resolves nothing by hash, and nothing through the map step either — each
// series is the predicted successor of the one before. A fresh map per sample
// (a parse table past its capacity) takes the hash path every time and makes
// no entry. A histogram's _sum and _count share one map, under two names.
// The database's series and the gate's states each run it.
func TestIndexIsMadeOncePerSeries(t *testing.T) {
	t.Run("series", func(t *testing.T) { madeOncePerSeries(t, newIndexOracle(seriesStamp)) })
	t.Run("state", func(t *testing.T) { madeOncePerSeries(t, newIndexOracle(stateStamp)) })
}

func madeOncePerSeries[T any](t *testing.T, o *indexOracle[T]) {
	samples, err := ParseExposition(bytes.NewReader(fleetExposition(t, 2)))
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(samples))
	for i, want := range []struct {
		clone          bool
		hashed, mapped uint64
		indexed        int
	}{
		{false, n, n, 0},      // first sight: created
		{false, n, n, int(n)}, // second sight of the same maps: indexed
		{false, 0, 0, int(n)}, // every sample predicted
		{true, n, n, 0},       // the series arrive under other maps: entries dropped
		{true, n, n, 0},       // and fresh maps make none
		{false, n, n, 0},      // back to the table's maps
		{false, n, n, int(n)},
		{false, 0, 0, int(n)},
	} {
		hashed, mapped := o.ix.hashed, o.ix.mapped
		var clones []Labels // alive for the pass: no address is reused
		for _, s := range samples {
			l := s.Labels
			if want.clone {
				l = l.Clone()
				clones = append(clones, l)
			}
			o.resolve(t, s.Name, l)
		}
		runtime.KeepAlive(clones)
		hashed, mapped = o.ix.hashed-hashed, o.ix.mapped-mapped
		if indexed := o.indexed(t); hashed != want.hashed || mapped != want.mapped || indexed != want.indexed {
			t.Fatalf("pass %d (clone %v): %d hash-path and %d map-path resolutions, %d indexed maps; want %d, %d and %d",
				i+1, want.clone, hashed, mapped, indexed, want.hashed, want.mapped, want.indexed)
		}
	}
	if len(o.series) != len(samples) {
		t.Fatalf("%d entries, want %d", len(o.series), len(samples))
	}
}

// Two label sets filed under one hash stay two entries: the hash path
// confirms with Equal and walks the chain. Each set arrives in a fresh map,
// so the hash path answers every time. The database's series and the gate's
// states each run it.
func TestIndexKeepsCollidingLabelSetsApart(t *testing.T) {
	t.Run("series", keepsCollidingLabelSetsApart[seriesBody])
	t.Run("state", keepsCollidingLabelSetsApart[stateBody])
}

func keepsCollidingLabelSetsApart[T any](t *testing.T) {
	collide(t)
	var ix Index[T]
	a, b, c := Labels{"backend": "a"}, Labels{"backend": "b"}, Labels{"backend": "c"}
	ea, created := ix.Resolve("response_total", a.Clone())
	if !created {
		t.Fatal("first sight of a not reported as created")
	}
	eb, created := ix.Resolve("response_total", b.Clone())
	if !created || eb == ea {
		t.Fatal("b, colliding with a, was handed a's entry")
	}
	if e, created := ix.Resolve("response_total", a.Clone()); created || e != ea {
		t.Fatal("a not found behind b in the chain")
	}
	if e, created := ix.Resolve("response_total", b.Clone()); created || e != eb {
		t.Fatal("b not found at the head of the chain")
	}
	if e, created := ix.Resolve("response_total", c.Clone()); !created || e == ea || e == eb {
		t.Fatal("c, never resolved, was handed an entry of the chain")
	}
	if e, created := ix.Resolve("other_total", a.Clone()); !created || e == ea {
		t.Fatal("the same labels under another metric name shared an entry")
	}
	if ix.hashed != 6 {
		t.Fatalf("%d hash-path resolutions, want 6", ix.hashed)
	}
}

// seriesBody and stateBody are shaped as timeseries' and guard's values: a
// point slice, a bound and a 6-point window; four 8-byte fields.
type (
	seriesBody struct {
		points []struct{ t, v int64 }
		bound  float64
		window [6]struct{ t, v int64 }
	}
	stateBody [4]int64
)

// The index adds 32 bytes to the value, so a series is 160 bytes and a state
// 64, and entries are carved from chunks that fill the 16 KiB size class: a
// chunk costs the heap at most 16 384 bytes, with no room left in it for one
// more entry beside the 8-byte header, and no entry is handed out twice. A
// chunk that spilled into the next class, or left an entry's worth of its
// class unused, fails.
func TestIndexChunkFillsItsSizeClass(t *testing.T) {
	t.Run("series", func(t *testing.T) { chunkFillsItsSizeClass[seriesBody](t, 160) })
	t.Run("state", func(t *testing.T) { chunkFillsItsSizeClass[stateBody](t, 64) })
}

func chunkFillsItsSizeClass[T any](t *testing.T, size uintptr) {
	if n := unsafe.Sizeof(Entry[T]{}); n != size {
		t.Fatalf("an entry of a %d-byte value is %d bytes, want %d", unsafe.Sizeof(*new(T)), n, size)
	}
	var ix Index[T]
	chunk := int((16<<10 - 8) / size)
	cost := uint64(math.MaxUint64)
	seen := make(map[*Entry[T]]bool)
	handed := make([]*Entry[T], chunk)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range handed {
			handed[i] = ix.alloc()
		}
		runtime.ReadMemStats(&after)
		cost = min(cost, after.TotalAlloc-before.TotalAlloc)
		for _, e := range handed {
			if seen[e] {
				t.Fatalf("chunk %d hands out an entry twice", try+1)
			}
			seen[e] = true
		}
	}
	if want := uint64(chunk) * uint64(size); cost < want || cost-want >= uint64(size)+8 || cost > 16<<10 {
		t.Fatalf("a chunk of %d entries costs %d bytes, want %d to %d and at most 16 384", chunk, cost, want, want+uint64(size)+7)
	}
	t.Logf("a chunk of %d %d-byte entries costs %d bytes", chunk, size, cost)
}

// Entries carved from one chunk, and from the next, keep their own values:
// each series is stamped on creation and read back, forward and reversed.
func TestEntriesSharingAChunkStayApart(t *testing.T) {
	var ix Index[stateBody]
	n := (16<<10-8)/int(unsafe.Sizeof(Entry[stateBody]{})) + 3
	labels := make([]Labels, n)
	for i := range labels {
		labels[i] = Labels{"backend": fmt.Sprint(i)}
		e, created := ix.Resolve("response_total", labels[i])
		if !created || e.Value != (stateBody{}) {
			t.Fatalf("series %d: created %v, value %v; want a new zeroed entry", i, created, e.Value)
		}
		e.Value = stateBody{int64(i), -int64(i), int64(i), -int64(i)}
	}
	for pass := 0; pass < 3; pass++ {
		for j := range labels {
			i := j
			if pass == 1 {
				i = n - 1 - j
			}
			if e, created := ix.Resolve("response_total", labels[i]); created || e.Value != (stateBody{int64(i), -int64(i), int64(i), -int64(i)}) {
				t.Fatalf("pass %d: series %d reads %v, created %v", pass, i, e.Value, created)
			}
		}
	}
}

// indexNames are the twin's and the fuzz target's metric names; a
// histogram's _sum and _count are two of them.
var indexNames = []string{"response_total", "response_latency_sum", "response_latency_count", "request_inflight"}

// randomIndexLabels draws a label set, nil or empty now and then. No value
// holds ',' or '=', so Key tells every two sets apart.
func randomIndexLabels(rng *rand.Rand) Labels {
	switch rng.Intn(20) {
	case 0:
		return nil
	case 1:
		return Labels{}
	}
	l := Labels{"backend": fmt.Sprintf("b%d", rng.Intn(6))}
	if c := rng.Intn(3); c > 0 {
		l["classification"] = []string{"", "success", "failure"}[c]
	}
	if rng.Intn(2) == 0 {
		l["le"] = []string{"0.5", "+Inf"}[rng.Intn(2)]
	}
	return l
}

// TestIndexMatchesClonedTwin drives three indexes through the same seeded
// passes, each checked against the plain-map oracle. The first gets one label
// map per series, in the case's order: forward every pass, reversed every
// pass, or alternating, so its successor predictions hit, hit backwards, or
// mostly miss. The second gets the same maps in a fresh shuffle every pass,
// where a prediction rarely hits. The third clones every sample's labels, so
// it resolves each by hash. Series are skipped now and then, appear
// mid-stream, turn their maps over one at a time or all at once, and some
// maps serve two names; in half the cases every label set hashes alike. After
// every pass the first two must have made the same hash-path resolutions and
// map entries — a prediction neither makes nor drops an entry — and the third
// none. Then 10 000 samples over 100 series, a fresh Clone for every one: the
// map step stays within one entry a series.
func TestIndexMatchesClonedTwin(t *testing.T) {
	const cases = 300
	resolved, steady, mapped := 0, 0, uint64(0) // steady: resolutions in the forward and reversed cases
	t.Cleanup(func() { hashLabels = Labels.Hash })
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		order := []string{"forward", "reversed", "alternating"}[c%3]
		hashLabels = Labels.Hash
		if c%2 == 1 {
			hashLabels = func(Labels) uint64 { return 42 }
		}
		pred, shuffled, clone := newIndexOracle(stateStamp), newIndexOracle(stateStamp), newIndexOracle(stateStamp)
		type live struct {
			name   int
			labels Labels
		}
		var series []*live
		known := make(map[string]bool) // one live per series
		for pass := 0; pass < 20+rng.Intn(20); pass++ {
			for n := rng.Intn(4); n > 0; n-- { // series created mid-stream
				s := &live{name: rng.Intn(len(indexNames)), labels: randomIndexLabels(rng)}
				if len(series) > 0 && rng.Intn(3) == 0 { // one map, two names
					other := series[rng.Intn(len(series))]
					s.name, s.labels = (other.name+1+rng.Intn(len(indexNames)-1))%len(indexNames), other.labels
				}
				if key := indexNames[s.name] + "\x00" + s.labels.Key(); !known[key] {
					known[key] = true
					series = append(series, s)
				}
			}
			turnAll := rng.Intn(15) == 0 // the parse table turned over
			var samples []*live
			for _, s := range series {
				if rng.Intn(10) == 0 {
					continue // missing from this scrape
				}
				if s.labels != nil && (turnAll || rng.Intn(25) == 0) {
					s.labels = s.labels.Clone()
				}
				samples = append(samples, s)
			}
			if order == "reversed" || order == "alternating" && pass%2 == 1 {
				slices.Reverse(samples)
			}
			clones := make([]Labels, len(samples)) // alive for the pass: no address is reused
			for i, s := range samples {
				pred.resolve(t, indexNames[s.name], s.labels)
				clones[i] = s.labels.Clone()
				clone.resolve(t, indexNames[s.name], clones[i])
			}
			rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
			for _, s := range samples {
				shuffled.resolve(t, indexNames[s.name], s.labels)
			}
			resolved += len(samples)
			if order != "alternating" {
				steady += len(samples)
			}
			if p, s := pred.ix.hashed, shuffled.ix.hashed; p != s {
				t.Fatalf("case %d (%s) pass %d: %d hash-path resolutions, shuffled twin %d", c, order, pass, p, s)
			}
			if p, s := pred.indexed(t), shuffled.indexed(t); p != s {
				t.Fatalf("case %d (%s) pass %d: %d indexed maps, shuffled twin %d", c, order, pass, p, s)
			}
			if n := clone.indexed(t); n != 0 {
				t.Fatalf("case %d (%s) pass %d: a clone per sample made %d map entries", c, order, pass, n)
			}
		}
		if order != "alternating" {
			mapped += pred.ix.mapped
		}
	}
	hashLabels = Labels.Hash
	if mapped > uint64(steady)/2 {
		t.Fatalf("%d of %d resolutions in a steady order missed the prediction: the successor is barely exercised", mapped, steady)
	}
	t.Logf("%d cases, %d resolutions as the oracle's; %d of %d in a steady order missed the prediction", cases, resolved, mapped, steady)

	fresh, shared := newIndexOracle(stateStamp), newIndexOracle(stateStamp)
	labels := make([]Labels, 100)
	for i := range labels {
		labels[i] = Labels{"backend": fmt.Sprintf("b%d", i%50), "classification": []string{"success", "failure"}[i/50]}
	}
	for pass := 0; pass < 100; pass++ {
		for _, l := range labels {
			fresh.resolve(t, "response_total", l.Clone())
			shared.resolve(t, "response_total", l)
		}
	}
	if n, m := fresh.indexed(t), shared.indexed(t); n > len(labels) || m != len(labels) {
		t.Fatalf("%d map entries for a clone per sample, %d for one map per series; want at most and exactly %d", n, m, len(labels))
	}
}

// FuzzIndexMatchesOracle drives one index with the fuzzer's bytes and checks
// every resolution against the plain-map oracle. An odd first byte files
// every label set under one hash. Each later byte is an operation on eight
// slots, each holding a map of one of six label sets (nil and empty among
// them) under any of the metric names: the slot's map again, a clone of it,
// the slot's map turned over, a forward or reversed pass over every slot
// under one name, or over every slot under every name.
func FuzzIndexMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 0xa0, 0xa0, 0xa0, 0x03, 0x63, 0xa0, 0xc1, 0xc1, 0xe0, 0xe0, 0xe0})
	f.Add([]byte{1, 0xa0, 0xa0, 0xc0, 0x80, 0xa2, 0xe0, 0x45, 0x25, 0xe0, 0xe0})
	f.Add([]byte{2, 0, 3, 6, 9, 0, 3, 6, 9, 0, 3, 6, 9, 0x61, 0, 3, 6, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 128 {
			return
		}
		if ops[0]&1 == 1 {
			collide(t)
		}
		sets := []Labels{nil, {}, {"backend": "a"}, {"backend": "b"}, {"backend": "a", "classification": "success"}, {"backend": "a", "le": "+Inf"}}
		var slots [8]Labels
		for i := range slots {
			slots[i] = sets[i%len(sets)].Clone()
		}
		o := newIndexOracle(stateStamp)
		pass := func(names []string, reversed bool) {
			for i := range names {
				for j := range slots {
					if reversed {
						o.resolve(t, names[len(names)-1-i], slots[len(slots)-1-j])
					} else {
						o.resolve(t, names[i], slots[j])
					}
				}
			}
		}
		for _, op := range ops[1:] {
			arg := int(op & 31)
			name, slot := indexNames[arg%len(indexNames)], arg/len(indexNames)%len(slots)
			switch op >> 5 {
			case 0, 1, 2:
				o.resolve(t, name, slots[slot])
			case 3:
				o.resolve(t, name, slots[slot].Clone())
			case 4:
				slots[slot] = slots[slot].Clone()
				o.resolve(t, name, slots[slot])
			case 5:
				pass([]string{name}, arg&1 == 1)
			case 6:
				pass(indexNames, arg&1 == 1)
			case 7:
				pass(indexNames, false)
				pass(indexNames, false)
			}
		}
		if n := o.indexed(t); n > len(o.series) {
			t.Fatalf("%d maps indexed for %d series", n, len(o.series))
		}
	})
}
