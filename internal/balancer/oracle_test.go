package balancer

import (
	"fmt"
	"testing"
	"time"

	"l3/internal/dsb"
	"l3/internal/mesh"
	"l3/internal/sim"
	"l3/internal/smi"
)

// oracleSplit is WeightedSplit as it was before the picker kept resolved
// weights: it fetches (and clones) the split from the store and matches
// names on every pick. The differential tests below demand the same backend
// from both on every pick and the same rng position afterwards.
type oracleSplit struct {
	splits *smi.Store
	name   func(src, service string) string
	rng    *sim.Rand
}

func (w *oracleSplit) Pick(_ time.Duration, src, service string, backends []*mesh.Backend) *mesh.Backend {
	if len(backends) == 0 {
		return nil
	}
	ts, ok := w.splits.Get(w.name(src, service))
	if !ok {
		return backends[w.rng.IntN(len(backends))]
	}
	weights := make([]int64, len(backends))
	var total int64
	for i, b := range backends {
		for _, tb := range ts.Backends {
			if tb.Service == b.Name {
				weights[i] = tb.Weight
				total += tb.Weight
				break
			}
		}
	}
	if total <= 0 {
		return backends[w.rng.IntN(len(backends))]
	}
	r := int64(w.rng.Float64() * float64(total))
	for i, b := range backends {
		if r < weights[i] {
			return b
		}
		r -= weights[i]
	}
	return backends[len(backends)-1]
}

// pickerPair drives the picker and its oracle over one store with rng
// streams forked from one seed.
type pickerPair struct {
	t      *testing.T
	splits *smi.Store
	got    *WeightedSplit
	want   *oracleSplit
	picks  int
}

func newPickerPair(t *testing.T, seed uint64, name func(src, service string) string) *pickerPair {
	splits := smi.NewStore()
	got := NewWeightedSplit(splits, sim.NewRand(seed), name)
	return &pickerPair{
		t: t, splits: splits, got: got,
		want: &oracleSplit{splits: splits, name: got.name, rng: sim.NewRand(seed)},
	}
}

func (p *pickerPair) pick(src, service string, bs []*mesh.Backend) {
	p.t.Helper()
	p.picks++
	got, want := p.got.Pick(0, src, service, bs), p.want.Pick(0, src, service, bs)
	if got != want {
		p.t.Fatalf("pick %d (%s -> %s over %s): picker chose %s, oracle %s",
			p.picks, src, service, names(bs), got.Name, want.Name)
	}
}

// samePosition fails unless both rng streams have advanced equally.
func (p *pickerPair) samePosition() {
	p.t.Helper()
	if got, want := p.got.rng.Uint64(), p.want.rng.Uint64(); got != want {
		p.t.Fatalf("rng streams diverged after %d picks", p.picks)
	}
}

func names(bs []*mesh.Backend) string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return fmt.Sprint(out)
}

func split(name string, weights ...any) *smi.TrafficSplit {
	ts := &smi.TrafficSplit{Name: name, RootService: "svc"}
	for i := 0; i < len(weights); i += 2 {
		ts.Backends = append(ts.Backends, smi.Backend{Service: weights[i].(string), Weight: int64(weights[i+1].(int))})
	}
	return ts
}

// TestWeightedSplitMatchesOracle is the seeded stream: picks for several
// (source, service) routes under per-source split names, over the full
// backend set and over filtered subsets handed through one reused scratch
// slice, interleaved with every kind of store write — weight updates, a
// split that drops a backend, all-zero weights, delete and re-create.
func TestWeightedSplitMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		p := newPickerPair(t, seed, dsb.SplitName)
		script := sim.NewRand(seed + 100)
		all := backends("a", "b", "c", "d")
		srcs := []string{"cluster-1", "cluster-2"}
		services := []string{"svc", "other"}
		scratch := make([]*mesh.Backend, 0, len(all))
		exists := map[string]bool{}
		for step := 0; step < 4000; step++ {
			src, service := srcs[script.IntN(len(srcs))], services[script.IntN(len(services))]
			name := dsb.SplitName(src, service)
			switch op := script.IntN(20); {
			case op < 12:
				p.pick(src, service, all)
			case op < 16:
				// What a Filter does: filter into one scratch slice that
				// keeps its backing array across picks.
				scratch = scratch[:0]
				for _, b := range all {
					if script.Bool(0.6) {
						scratch = append(scratch, b)
					}
				}
				p.pick(src, service, scratch)
			case op < 19:
				ts := &smi.TrafficSplit{Name: name, RootService: service}
				for _, b := range all {
					if script.Bool(0.15) {
						continue // a split missing a backend
					}
					var weight int64
					if script.Bool(0.8) {
						weight = int64(script.IntN(1000))
					}
					ts.Backends = append(ts.Backends, smi.Backend{Service: b.Name, Weight: weight})
				}
				if len(ts.Backends) == 0 {
					continue
				}
				if script.Bool(0.1) {
					for i := range ts.Backends {
						ts.Backends[i].Weight = 0
					}
				}
				write := p.splits.Create
				if exists[name] {
					write = p.splits.Update
				}
				if err := write(ts); err != nil {
					t.Fatal(err)
				}
				exists[name] = true
			default:
				if exists[name] {
					if err := p.splits.Delete(name); err != nil {
						t.Fatal(err)
					}
					exists[name] = false
				}
			}
		}
		p.samePosition()
	}
}

// TestWeightedSplitFilteredSubsetsShareFirstAndLength is the case a cache
// keyed on the handed slice's first element and length gets wrong: {a,b}
// then {a,c} through one scratch slice, as a breaker that ejects b and then
// restores it while ejecting c produces.
func TestWeightedSplitFilteredSubsetsShareFirstAndLength(t *testing.T) {
	p := newPickerPair(t, 7, nil)
	if err := p.splits.Create(split("svc", "a", 100, "b", 800, "c", 100)); err != nil {
		t.Fatal(err)
	}
	all := backends("a", "b", "c")
	scratch := make([]*mesh.Backend, 2)
	for i := 0; i < 2000; i++ {
		scratch[0], scratch[1] = all[0], all[1+i%2]
		p.pick("c1", "svc", scratch)
	}
	p.samePosition()
}

// TestWeightedSplitPickAllocs pins the point of the resolved weights: no
// allocation per pick between split writes, over the full slice and over a
// filtered slice whose membership alternates.
func TestWeightedSplitPickAllocs(t *testing.T) {
	splits := smi.NewStore()
	if err := splits.Create(split("c1/svc", "a", 100, "b", 800, "c", 100)); err != nil {
		t.Fatal(err)
	}
	w := NewWeightedSplit(splits, sim.NewRand(1), dsb.SplitName)
	all := backends("a", "b", "c")
	scratch := make([]*mesh.Backend, 2)
	i := 0
	for name, pick := range map[string]func(){
		"full": func() { w.Pick(0, "c1", "svc", all) },
		"alternating filtered": func() {
			i++
			scratch[0], scratch[1] = all[0], all[1+i%2]
			w.Pick(0, "c1", "svc", scratch)
		},
	} {
		pick()
		if allocs := testing.AllocsPerRun(500, pick); allocs != 0 {
			t.Errorf("%s: %.1f allocations per pick, want 0", name, allocs)
		}
	}
	// A split write costs one re-read for the route, then nothing again.
	if err := splits.Update(split("c1/svc", "a", 1, "b", 1, "c", 1)); err != nil {
		t.Fatal(err)
	}
	w.Pick(0, "c1", "svc", all)
	if allocs := testing.AllocsPerRun(500, func() { w.Pick(0, "c1", "svc", all) }); allocs != 0 {
		t.Errorf("after a split write: %.1f allocations per pick, want 0", allocs)
	}
}

// TestTablePredicateMatchesFilter is the proof that both clocks pick alike.
// The wall's path asks one table over every backend, with availability and
// the backend to avoid as arguments. The sim's path filters first — a
// Filter by availability (failing open to all), then one that leaves the
// avoided backend out (failing open to what it was handed, so the avoided
// backend stays when it is all that is left) — and picks over what remains
// with the fetch-per-request oracle. Seeded streams of picks, availability
// masks, avoids and split writes must choose the same backend every time
// and leave the rng streams at the same position.
func TestTablePredicateMatchesFilter(t *testing.T) {
	all := backends("a", "b", "c", "d", "e")
	index := map[string]int{}
	for i, b := range all {
		index[b.Name] = i
	}
	for seed := uint64(1); seed <= 5; seed++ {
		splits := smi.NewStore()
		oracle := &oracleSplit{splits: splits, name: func(_, s string) string { return s }, rng: sim.NewRand(seed)}
		rng, script := sim.NewRand(seed), sim.NewRand(seed+100)
		var mask, avoid int
		available := func(i int) bool { return mask&(1<<i) != 0 }
		filtered := NewFilter(func(_ time.Duration, name string) bool { return available(index[name]) },
			NewFilter(func(_ time.Duration, name string) bool { return index[name] != avoid }, oracle, nil), nil)
		var table Table
		resolve := func() {
			ts, _ := splits.Get("svc")
			table.Resolve(ts, len(all), func(i int) string { return all[i].Name })
		}
		resolve()
		for step := 0; step < 4000; step++ {
			switch op := script.IntN(20); {
			case op < 16:
				mask, avoid = script.IntN(1<<len(all)), script.IntN(len(all)+1)-1
				got, want := all[table.Pick(rng, available, avoid)], filtered.Pick(0, "c1", "svc", all)
				if got != want {
					t.Fatalf("seed %d step %d (mask %05b, avoid %d): table chose %v, filter then oracle %v",
						seed, step, mask, avoid, got, want)
				}
			case op < 19:
				ts := &smi.TrafficSplit{Name: "svc", RootService: "svc"}
				for _, b := range all {
					if script.Bool(0.15) {
						continue // a split missing a backend
					}
					var weight int64
					if script.Bool(0.7) {
						weight = int64(script.IntN(1000))
					}
					ts.Backends = append(ts.Backends, smi.Backend{Service: b.Name, Weight: weight})
				}
				if len(ts.Backends) == 0 {
					continue
				}
				write := splits.Update
				if cur, _ := splits.Get("svc"); cur == nil {
					write = splits.Create
				}
				if err := write(ts); err != nil {
					t.Fatal(err)
				}
				resolve()
			default:
				if cur, _ := splits.Get("svc"); cur != nil {
					if err := splits.Delete("svc"); err != nil {
						t.Fatal(err)
					}
				}
				resolve()
			}
		}
		if rng.Uint64() != oracle.rng.Uint64() {
			t.Fatalf("seed %d: rng streams diverged", seed)
		}
	}
}
