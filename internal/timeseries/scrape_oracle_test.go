package timeseries_test

// The scrape pass as it was before core.Scraper kept a series ref per
// snapshot position, kept as the oracle the ref-keeping one is compared
// against: every registry snapshotted into one buffer, every sample appended
// by its name and labels — the registry's own label maps, one per series and
// shared by a histogram's _sum and _count, or fresh ones from a table turned
// over now and then, as a parse table hands them out, or a clone per sample.

import (
	"bytes"
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

	// text reads the registries as one /metrics page, rendered and parsed
	// back. clone copies every sample's labels; otherwise table, when not
	// nil, maps a series' name and labels to the one copy handed out for it.
	text  bool
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
	if s.text {
		samples, err := expose(s.registries)
		if err != nil {
			return
		}
		s.buf = append(s.buf, samples...)
	} else {
		for _, reg := range s.registries {
			s.buf = reg.SnapshotAppend(s.buf)
		}
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

// expose renders the registries as one /metrics page and parses it back, as a
// scrape of a server that serves them all reads them.
func expose(regs []*metrics.Registry) ([]metrics.Sample, error) {
	var page bytes.Buffer
	for _, reg := range regs {
		if err := reg.WritePrometheus(&page); err != nil {
			return nil, err
		}
	}
	return metrics.ParseExposition(&page)
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

// scrapeWorld is one seeded case of the scrape oracles: three registries, of
// which the first keeps gaining series between scrapes (so positions in a
// concatenated buffer shift, and per-registry positions must not), counter
// resets, and every scrape fault chaos can inject — overlapping garbage
// windows on two backends among them — with the hygiene gate on every other
// case. dbs[0] is the oracle's database; every other scraper's must hold the
// same points for every series, bit for bit, and its gate must count the same
// rejections and resets, at every checkpoint.
type scrapeWorld struct {
	rng     *rand.Rand
	engine  *sim.Engine
	regs    []*metrics.Registry
	dbs     []*timeseries.DB
	hygRegs []*metrics.Registry
}

func newScrapeWorld(c, scrapers int) *scrapeWorld {
	w := &scrapeWorld{
		rng:    rand.New(rand.NewSource(int64(c))),
		engine: sim.NewEngine(),
		regs:   []*metrics.Registry{metrics.NewRegistry(), metrics.NewRegistry(), metrics.NewRegistry()},
	}
	retention := time.Duration(20+w.rng.Intn(60)) * time.Second
	for i := 0; i < scrapers; i++ {
		db, hygReg := timeseries.NewDB(retention), metrics.NewRegistry()
		if c%2 == 1 {
			db.SetGate(guard.NewHygiene(guard.Config{}, hygReg))
		}
		w.dbs, w.hygRegs = append(w.dbs, db), append(w.hygRegs, hygReg)
	}
	return w
}

// run drives the world for 300 s, setting every fault on each of faults
// alike and calling turn (when not nil) now and then with a coin, and checks
// each checkpoint; names name dbs[1:]. It returns the oracle's stored points.
func (w *scrapeWorld) run(t *testing.T, c int, faults []scrapeFaults, turn func(bool), names ...string) int {
	t.Helper()
	rng, engine, regs := w.rng, w.engine, w.regs
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
	garbage := func(target, mode string, on bool) {
		for _, s := range faults {
			s.SetGarbage(target, mode, on)
		}
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
			garbage([]string{"", backend()}[rng.Intn(2)], []string{"nan", "negative", "mixed"}[rng.Intn(3)], rng.Intn(2) == 0)
		case 2:
			skew := []time.Duration{0, 2 * time.Second, 7 * time.Second}[rng.Intn(3)]
			for _, s := range faults {
				s.SetSkew(skew)
			}
		case 3:
			n := rng.Intn(4)
			for _, s := range faults {
				s.SetSlowFactor(n)
			}
		case 4:
			drop := rng.Intn(3) == 0
			for _, s := range faults {
				s.SetDropping(drop)
			}
		case 5:
			if turn != nil {
				turn(rng.Intn(3) == 0)
			}
		}
	}
	// Off the scrape instants, so no mutation lands between two scrapers'
	// passes over one instant.
	engine.After(300*time.Millisecond, func() { engine.Every(time.Second, mutate) })
	// Two backends' garbage windows overlap from 60 s to 80 s.
	engine.At(40*time.Second+300*time.Millisecond, func() { garbage("b1", "nan", true) })
	engine.At(60*time.Second+300*time.Millisecond, func() { garbage("b2", "mixed", true) })
	engine.At(80*time.Second+300*time.Millisecond, func() { garbage("b1", "", false) })
	engine.At(100*time.Second+300*time.Millisecond, func() { garbage("b2", "", false) })

	points := 0
	for at := 25 * time.Second; at <= 300*time.Second; at += 25 * time.Second {
		engine.RunUntil(at)
		want := timeseries.Dump(w.dbs[0])
		for i, name := range names {
			if err := sameDump(timeseries.Dump(w.dbs[i+1]), want); err != nil {
				t.Fatalf("case %d at %v: %s: %v", c, at, name, err)
			}
			if err := sameCounters(w.hygRegs[i+1], w.hygRegs[0]); err != nil {
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
	return points
}

// TestRefScraperStoresWhatLabelScraperStores runs the ref-keeping scraper
// and the label-keyed one over the same seeded world. A third, label-keyed
// twin clones every sample's labels, so its database and gate resolve each
// by hash, while the label-keyed oracle's maps are recognised by identity and
// turned over now and then: all three store the same points, and the three
// gates count the same rejections and resets.
func TestRefScraperStoresWhatLabelScraperStores(t *testing.T) {
	const cases = 40
	points := 0
	for c := 0; c < cases; c++ {
		w := newScrapeWorld(c, 3)
		oracle := &labelScraper{engine: w.engine, db: w.dbs[0], registries: w.regs}
		scraper := core.NewScraperClock(w.engine, w.dbs[1], w.regs, 5*time.Second)
		scraper.Start()
		twin := &labelScraper{engine: w.engine, db: w.dbs[2], registries: w.regs, clone: true}
		w.engine.Every(5*time.Second, oracle.tick)
		w.engine.Every(5*time.Second, twin.tick)
		points += w.run(t, c, []scrapeFaults{scraper, oracle, twin}, oracle.turn, "ref scraper", "cloning twin")
	}
	t.Logf("%d cases, %d stored points bit-identical to the label-keyed scraper's", cases, points)
}

// TestTextScraperStoresWhatLabelScraperStores runs core.Scraper on a text
// source — the registries rendered as one /metrics page and parsed back, done
// called synchronously from inside the source — against the label-keyed
// scraper reading the same page, in the same seeded world: the stored points
// are bit-identical, and the gates count the same.
func TestTextScraperStoresWhatLabelScraperStores(t *testing.T) {
	const cases = 40
	points := 0
	for c := 0; c < cases; c++ {
		w := newScrapeWorld(c, 2)
		oracle := &labelScraper{engine: w.engine, db: w.dbs[0], registries: w.regs, text: true}
		scraper := core.NewScraperClock(w.engine, w.dbs[1], nil, 5*time.Second)
		scraper.SetSource(func(done func([]metrics.Sample, error)) { done(expose(w.regs)) })
		scraper.Start()
		w.engine.Every(5*time.Second, oracle.tick)
		points += w.run(t, c, []scrapeFaults{scraper, oracle}, nil, "text scraper")
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
