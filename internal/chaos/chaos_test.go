package chaos

import (
	"fmt"
	"testing"
	"time"

	"l3/internal/sim"
)

// fakeLinks records link fault calls.
type fakeLinks struct {
	log []string
}

func (f *fakeLinks) InjectLinkFault(from, to string, extra time.Duration, partitioned bool, flap time.Duration) {
	f.log = append(f.log, fmt.Sprintf("inject %s>%s extra=%v part=%v flap=%v", from, to, extra, partitioned, flap))
}

func (f *fakeLinks) HealLinkFault(from, to string) {
	f.log = append(f.log, fmt.Sprintf("heal %s>%s", from, to))
}

// fakeBackend records crash/restart/concurrency calls.
type fakeBackend struct {
	conc      int
	crashed   int
	restarted []time.Duration
}

func (f *fakeBackend) Crash()                          { f.crashed++ }
func (f *fakeBackend) Restart(slowStart time.Duration) { f.restarted = append(f.restarted, slowStart) }
func (f *fakeBackend) Concurrency() int                { return f.conc }
func (f *fakeBackend) SetConcurrency(n int)            { f.conc = n }

type fakeGate struct{ dropping bool }

func (f *fakeGate) SetDropping(d bool) { f.dropping = d }

type fakeLeader struct {
	leading bool
	kills   int
	revives int
}

func (f *fakeLeader) Crash()         { f.kills++; f.leading = false }
func (f *fakeLeader) Start()         { f.revives++ }
func (f *fakeLeader) IsLeader() bool { return f.leading }

func mustParse(t *testing.T, s string) Schedule {
	t.Helper()
	sched, err := ParseSchedule(s)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", s, err)
	}
	return *sched
}

func TestInjectorPartitionBidirectionalAndWildcard(t *testing.T) {
	engine := sim.NewEngine()
	links := &fakeLinks{}
	inj := New(engine, mustParse(t, "partition@10s+5s:c2/*"), Targets{
		Clusters: []string{"c1", "c2", "c3"},
		Links:    links,
	}, 0)
	if err := inj.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	engine.RunUntil(time.Minute)
	want := []string{
		"inject c2>c1 extra=0s part=true flap=0s",
		"inject c1>c2 extra=0s part=true flap=0s",
		"inject c2>c3 extra=0s part=true flap=0s",
		"inject c3>c2 extra=0s part=true flap=0s",
		"heal c2>c1", "heal c1>c2", "heal c2>c3", "heal c3>c2",
	}
	if len(links.log) != len(want) {
		t.Fatalf("log = %v", links.log)
	}
	for i, w := range want {
		if links.log[i] != w {
			t.Fatalf("log[%d] = %q, want %q (full: %v)", i, links.log[i], w, links.log)
		}
	}
	if inj.Applied() != 1 || inj.Healed() != 1 {
		t.Fatalf("applied=%d healed=%d, want 1/1", inj.Applied(), inj.Healed())
	}
}

func TestInjectorDelaySpikeIsDirected(t *testing.T) {
	engine := sim.NewEngine()
	links := &fakeLinks{}
	inj := New(engine, mustParse(t, "delay@1s+1s:c1/c2/40ms"), Targets{Links: links}, 0)
	if err := inj.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	engine.RunUntil(time.Minute)
	if len(links.log) != 2 || links.log[0] != "inject c1>c2 extra=40ms part=false flap=0s" || links.log[1] != "heal c1>c2" {
		t.Fatalf("log = %v", links.log)
	}
}

func TestInjectorCrashAndSaturate(t *testing.T) {
	engine := sim.NewEngine()
	be := &fakeBackend{conc: 8}
	inj := New(engine, mustParse(t, "crash@1s+2s:api/15s; saturate@10s+5s:api/0.25"), Targets{
		Backends: map[string]BackendInjector{"api": be},
	}, 0)
	if err := inj.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	engine.RunUntil(5 * time.Second)
	if be.crashed != 1 || len(be.restarted) != 1 || be.restarted[0] != 15*time.Second {
		t.Fatalf("crash/restart: crashed=%d restarted=%v", be.crashed, be.restarted)
	}
	engine.RunUntil(12 * time.Second)
	if be.conc != 2 { // 8 * 0.25
		t.Fatalf("saturated concurrency = %d, want 2", be.conc)
	}
	engine.RunUntil(time.Minute)
	if be.conc != 8 {
		t.Fatalf("healed concurrency = %d, want 8", be.conc)
	}
}

func TestInjectorScrapeDropAndShift(t *testing.T) {
	engine := sim.NewEngine()
	gate := &fakeGate{}
	// Shift by 30s: the event written at 10s lands at 40s of engine time.
	inj := New(engine, mustParse(t, "scrapedrop@10s+5s"), Targets{
		Scraper: gate,
	}, 30*time.Second)
	if err := inj.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	engine.RunUntil(39 * time.Second)
	if gate.dropping {
		t.Fatal("dropping before shifted At")
	}
	engine.RunUntil(41 * time.Second)
	if !gate.dropping {
		t.Fatal("not dropping after shifted At")
	}
	engine.RunUntil(46 * time.Second)
	if gate.dropping {
		t.Fatal("still dropping after shifted heal")
	}
}

func TestInjectorLeaderKillPicksCurrentLeader(t *testing.T) {
	engine := sim.NewEngine()
	a := &fakeLeader{}
	b := &fakeLeader{leading: true}
	inj := New(engine, mustParse(t, "leaderkill@1s+10s"), Targets{
		Leaders: map[string]Leader{"l3-0": a, "l3-1": b},
	}, 0)
	if err := inj.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	engine.RunUntil(time.Minute)
	if a.kills != 0 || b.kills != 1 || b.revives != 1 {
		t.Fatalf("kills a=%d b=%d revives b=%d; want 0/1/1", a.kills, b.kills, b.revives)
	}
}

// fakeCorruptGate is a scrape gate with every hygiene-fault capability.
type fakeCorruptGate struct {
	fakeGate
	garbage map[string]string
	skew    time.Duration
	slow    int
	resets  []string
}

func (f *fakeCorruptGate) SetGarbage(backend, mode string, on bool) {
	if f.garbage == nil {
		f.garbage = make(map[string]string)
	}
	if on {
		f.garbage[backend] = mode
	} else {
		delete(f.garbage, backend)
	}
}

func (f *fakeCorruptGate) SetSkew(d time.Duration) { f.skew = d }
func (f *fakeCorruptGate) SetSlowFactor(n int)     { f.slow = n }

func (f *fakeCorruptGate) ResetBackendCounters(b string) { f.resets = append(f.resets, b) }

func TestInjectorHygieneFaults(t *testing.T) {
	engine := sim.NewEngine()
	gate := &fakeCorruptGate{}
	sched := mustParse(t,
		"garbage@1s+10s:negative/api-1; clockskew@2s+10s:6s; slowscrape@3s+10s:3; counterreset@4s:api-1")
	inj := New(engine, sched, Targets{
		Scraper: gate,
		Metrics: gate,
	}, 0)
	if err := inj.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	engine.RunUntil(5 * time.Second)
	if gate.garbage["api-1"] != "negative" {
		t.Fatalf("garbage = %v", gate.garbage)
	}
	if gate.skew != 6*time.Second || gate.slow != 3 {
		t.Fatalf("skew=%v slow=%d", gate.skew, gate.slow)
	}
	if len(gate.resets) != 1 || gate.resets[0] != "api-1" {
		t.Fatalf("resets = %v", gate.resets)
	}
	engine.RunUntil(time.Minute)
	if len(gate.garbage) != 0 || gate.skew != 0 || gate.slow != 0 {
		t.Fatalf("faults not healed: garbage=%v skew=%v slow=%d", gate.garbage, gate.skew, gate.slow)
	}
	if inj.Applied() != 4 || inj.Healed() != 3 {
		t.Fatalf("applied=%d healed=%d, want 4/3", inj.Applied(), inj.Healed())
	}
}

func TestInjectorValidatesTargets(t *testing.T) {
	engine := sim.NewEngine()
	cases := []struct {
		sched   string
		targets Targets
	}{
		{"partition@1s+1s:a/b", Targets{}},
		{"partition@1s+1s:a/*", Targets{Links: &fakeLinks{}}},
		{"crash@1s+1s:ghost", Targets{Backends: map[string]BackendInjector{"api": &fakeBackend{}}}},
		{"scrapedrop@1s+1s", Targets{}},
		{"leaderkill@1s", Targets{}},
		{"leaderkill@1s:ghost", Targets{Leaders: map[string]Leader{"l3-0": &fakeLeader{}}}},
		// A plain ScrapeGate lacks the corruption capabilities; counterreset
		// needs a metric resetter.
		{"garbage@1s+1s", Targets{Scraper: &fakeGate{}}},
		{"clockskew@1s+1s:6s", Targets{Scraper: &fakeGate{}}},
		{"slowscrape@1s+1s:3", Targets{Scraper: &fakeGate{}}},
		{"counterreset@1s:api", Targets{}},
	}
	for _, c := range cases {
		inj := New(engine, mustParse(t, c.sched), c.targets, 0)
		if err := inj.Start(); err == nil {
			t.Errorf("Start(%q) = nil error, want target validation failure", c.sched)
		}
	}
}
