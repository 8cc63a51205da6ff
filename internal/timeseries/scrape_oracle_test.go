package timeseries_test

// The scrape pass as it was before core.Scraper kept a series ref per
// snapshot position, kept as the oracle the ref-keeping one is compared
// against: every registry snapshotted into one buffer, every sample appended
// by its name and labels — the registry's own label maps, one per series and
// shared by a histogram's _sum and _count, or fresh ones from a table turned
// over now and then, as a parse table hands them out, or a clone per sample.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"l3/internal/core"
	"l3/internal/guard"
	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/timeseries"
)

type labelScraper struct {
	engine     *sim.Engine
	db         *timeseries.DB
	registries []*metrics.Registry
	buf        []metrics.Sample

	// clone copies every sample's labels; otherwise table, when not nil,
	// maps a series' name and labels to the one copy handed out for it.
	clone bool
	table map[string]metrics.Labels

	dropping   bool
	garbage    map[string]string
	skew       time.Duration
	slowFactor int
	ticks      uint64
}

func (s *labelScraper) tick() {
	s.ticks++
	if s.dropping {
		return
	}
	if s.slowFactor > 1 && s.ticks%uint64(s.slowFactor) != 0 {
		return
	}
	t := s.engine.Now()
	if s.skew != 0 && s.ticks%2 == 1 {
		t -= s.skew
	}
	s.buf = s.buf[:0]
	for _, reg := range s.registries {
		s.buf = reg.SnapshotAppend(s.buf)
	}
	for i, sample := range s.buf {
		v := sample.Value
		if mode, ok := s.garbageMode(sample.Labels); ok {
			switch {
			case mode == "nan", mode == "mixed" && i%2 == 0:
				v = math.NaN()
			default:
				v = -v - 1
			}
		}
		s.db.AppendSample(sample.Name, s.labels(sample), sample.Kind, t, v)
	}
}

func (s *labelScraper) labels(sample metrics.Sample) metrics.Labels {
	switch {
	case s.clone:
		return sample.Labels.Clone()
	case s.table != nil:
		key := sample.Name + sample.Labels.String()
		l, ok := s.table[key]
		if !ok {
			l = sample.Labels.Clone()
			s.table[key] = l
		}
		return l
	}
	return sample.Labels
}

// turn hands out new label maps from now on: the registry's own, or a fresh
// table's.
func (s *labelScraper) turn(registry bool) {
	s.table = nil
	if !registry {
		s.table = make(map[string]metrics.Labels)
	}
}

func (s *labelScraper) garbageMode(l metrics.Labels) (string, bool) {
	if m, ok := s.garbage[""]; ok {
		return m, true
	}
	if b, ok := l["backend"]; ok {
		if m, ok := s.garbage[b]; ok {
			return m, true
		}
	}
	return "", false
}

func (s *labelScraper) SetDropping(drop bool)   { s.dropping = drop }
func (s *labelScraper) SetSkew(d time.Duration) { s.skew = d }
func (s *labelScraper) SetSlowFactor(n int)     { s.slowFactor = n }
func (s *labelScraper) SetGarbage(backend, mode string, on bool) {
	if !on {
		delete(s.garbage, backend)
		return
	}
	if s.garbage == nil {
		s.garbage = make(map[string]string)
	}
	s.garbage[backend] = mode
}

// scrapeFaults is what internal/chaos drives on a scraper.
type scrapeFaults interface {
	SetDropping(bool)
	SetSkew(time.Duration)
	SetSlowFactor(int)
	SetGarbage(backend, mode string, on bool)
}

func sameDump(got, want map[string][]timeseries.Point) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d series, oracle has %d", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			return fmt.Errorf("%s: series missing", key)
		}
		if len(g) != len(w) {
			return fmt.Errorf("%s: %d points, oracle has %d", key, len(g), len(w))
		}
		for i := range w {
			if g[i].T != w[i].T || math.Float64bits(g[i].V) != math.Float64bits(w[i].V) {
				return fmt.Errorf("%s: point %d is %v, oracle has %v", key, i, g[i], w[i])
			}
		}
	}
	return nil
}

// TestRefScraperStoresWhatLabelScraperStores runs the ref-keeping scraper
// and the label-keyed one over the same seeded world — three registries, of
// which the first keeps gaining series between scrapes (so positions in a
// concatenated buffer shift, and per-registry positions must not), counter
// resets, and every scrape fault chaos can inject, with the hygiene gate on
// every other case — and requires the two databases to hold the same points
// for every series, bit for bit, at every checkpoint. A third, label-keyed
// twin clones every sample's labels, so its database and gate resolve each
// by hash, while the label-keyed oracle's maps are recognised by identity and
// turned over now and then: all three store the same points, and the three
// gates count the same rejections and resets.
func TestRefScraperStoresWhatLabelScraperStores(t *testing.T) {
	const cases = 40
	points := 0
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		engine := sim.NewEngine()
		regs := []*metrics.Registry{metrics.NewRegistry(), metrics.NewRegistry(), metrics.NewRegistry()}
		retention := time.Duration(20+rng.Intn(60)) * time.Second
		db, oracleDB, twinDB := timeseries.NewDB(retention), timeseries.NewDB(retention), timeseries.NewDB(retention)
		hygRegs := []*metrics.Registry{metrics.NewRegistry(), metrics.NewRegistry(), metrics.NewRegistry()}
		if c%2 == 1 {
			for i, d := range []*timeseries.DB{db, oracleDB, twinDB} {
				d.SetGate(guard.NewHygiene(guard.Config{}, hygRegs[i]))
			}
		}
		scraper := core.NewScraperMulti(engine, db, regs, 5*time.Second)
		scraper.Start()
		oracle := &labelScraper{engine: engine, db: oracleDB, registries: regs}
		twin := &labelScraper{engine: engine, db: twinDB, registries: regs, clone: true}
		engine.Every(5*time.Second, oracle.tick)
		engine.Every(5*time.Second, twin.tick)
		both := []scrapeFaults{scraper, oracle, twin}

		var counters []*metrics.Counter
		var gauges []*metrics.Gauge
		var hists []*metrics.Histogram
		backend := func() string { return fmt.Sprintf("b%d", rng.Intn(5)) }
		register := func() {
			reg := regs[0] // the early registry is the one that grows most
			if rng.Intn(3) == 0 {
				reg = regs[1+rng.Intn(2)]
			}
			l := metrics.Labels{"backend": backend(), "classification": []string{"success", "failure"}[rng.Intn(2)], "src": fmt.Sprintf("c%d", rng.Intn(3))}
			switch rng.Intn(3) {
			case 0:
				counters = append(counters, reg.Counter("response_total", l))
			case 1:
				gauges = append(gauges, reg.Gauge("request_inflight", l))
			case 2:
				hists = append(hists, reg.Histogram("response_latency", l, []float64{0.01, 0.1, 1}))
			}
		}
		for i := 0; i < 6; i++ {
			register()
		}
		mutate := func() {
			for n := rng.Intn(3); n > 0; n-- { // lazy registration between scrapes
				register()
			}
			for _, c := range counters {
				c.Add(float64(rng.Intn(20)))
			}
			for _, g := range gauges {
				g.Set(float64(rng.Intn(9)))
			}
			for _, h := range hists {
				h.Observe(rng.Float64() * 2)
			}
			switch rng.Intn(12) {
			case 0:
				regs[rng.Intn(len(regs))].ResetCounters(metrics.Labels{"backend": backend()})
			case 1:
				target, mode, on := []string{"", backend()}[rng.Intn(2)], []string{"nan", "negative", "mixed"}[rng.Intn(3)], rng.Intn(2) == 0
				for _, s := range both {
					s.SetGarbage(target, mode, on)
				}
			case 2:
				skew := []time.Duration{0, 2 * time.Second, 7 * time.Second}[rng.Intn(3)]
				for _, s := range both {
					s.SetSkew(skew)
				}
			case 3:
				n := rng.Intn(4)
				for _, s := range both {
					s.SetSlowFactor(n)
				}
			case 4:
				drop := rng.Intn(3) == 0
				for _, s := range both {
					s.SetDropping(drop)
				}
			case 5:
				oracle.turn(rng.Intn(3) == 0)
			}
		}
		// Off the scrape instants, so no mutation lands between the two
		// scrapers' passes over one instant.
		engine.After(300*time.Millisecond, func() { engine.Every(time.Second, mutate) })

		for at := 25 * time.Second; at <= 300*time.Second; at += 25 * time.Second {
			engine.RunUntil(at)
			got, want := timeseries.Dump(db), timeseries.Dump(oracleDB)
			if err := sameDump(got, want); err != nil {
				t.Fatalf("case %d at %v: %v", c, at, err)
			}
			if err := sameDump(timeseries.Dump(twinDB), want); err != nil {
				t.Fatalf("case %d at %v: cloning twin: %v", c, at, err)
			}
			for i, name := range []string{"ref scraper", "cloning twin"} {
				if err := sameCounters(hygRegs[2*i], hygRegs[1]); err != nil {
					t.Fatalf("case %d at %v: %s's hygiene: %v", c, at, name, err)
				}
			}
			if at == 300*time.Second {
				if len(want) < 30 {
					t.Fatalf("case %d: only %d series exercised", c, len(want))
				}
				for _, pts := range want {
					points += len(pts)
				}
			}
		}
	}
	t.Logf("%d cases, %d stored points bit-identical to the label-keyed scraper's", cases, points)
}

// A ref belongs to the database that resolved it: handed to another, it
// resolves again there and stores nothing in the first.
func TestRefHandedToAnotherDatabaseResolvesAgain(t *testing.T) {
	a, b := timeseries.NewDB(time.Minute), timeseries.NewDB(time.Minute)
	l := metrics.Labels{"backend": "x"}
	var ref timeseries.Ref
	a.AppendSampleRef(&ref, "c", l, metrics.KindCounter, time.Second, 1)
	b.AppendSampleRef(&ref, "c", l, metrics.KindCounter, 2*time.Second, 2)
	b.AppendSampleRef(&ref, "c", l, metrics.KindCounter, 3*time.Second, 3)
	a.AppendSampleRef(&ref, "c", l, metrics.KindCounter, 4*time.Second, 4)
	key := "c" + l.String()
	want := map[string][]timeseries.Point{key: {{T: time.Second, V: 1}, {T: 4 * time.Second, V: 4}}}
	if err := sameDump(timeseries.Dump(a), want); err != nil {
		t.Errorf("first database: %v", err)
	}
	want = map[string][]timeseries.Point{key: {{T: 2 * time.Second, V: 2}, {T: 3 * time.Second, V: 3}}}
	if err := sameDump(timeseries.Dump(b), want); err != nil {
		t.Errorf("second database: %v", err)
	}
}

// The gate is swapped while a scrape appends and a collector queries: the
// database reads it without its lock, so this is the test -race has to pass.
// A sample is gated by whichever gate was installed when it arrived; none is
// lost either way.
func TestSetGateRacesWithAppendsAndQueries(t *testing.T) {
	db := timeseries.NewDB(time.Minute)
	labels := make([]metrics.Labels, 32)
	for i := range labels {
		labels[i] = metrics.Labels{"backend": fmt.Sprintf("b%d", i)}
	}
	const passes = 200
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // the scraper
		defer wg.Done()
		refs := make([]timeseries.Ref, len(labels))
		for pass := 1; pass <= passes; pass++ {
			for i, l := range labels {
				db.AppendSampleRef(&refs[i], "response_total", l, metrics.KindCounter, time.Duration(pass)*time.Second, float64(pass))
			}
		}
	}()
	go func() { // an operator turning hygiene on and off
		defer wg.Done()
		hyg := guard.NewHygiene(guard.Config{}, nil)
		for i := 0; i < passes; i++ {
			db.SetGate(hyg)
			db.SetGate(nil)
		}
	}()
	go func() { // the collector
		defer wg.Done()
		sel := timeseries.NewSelector(db, "response_total", labels[0])
		for i := 0; i < passes; i++ {
			sel.Rate(time.Duration(passes)*time.Second, time.Minute)
			db.Rate("response_total", labels[1], time.Duration(passes)*time.Second, time.Minute)
		}
	}()
	wg.Wait()
	if got := db.SeriesCount(); got != len(labels) {
		t.Fatalf("%d series stored, want %d", got, len(labels))
	}
	for key, pts := range timeseries.Dump(db) {
		if last := pts[len(pts)-1]; last.T != passes*time.Second {
			t.Errorf("%s: newest point at %v, want %v", key, last.T, passes*time.Second)
		}
	}
}
