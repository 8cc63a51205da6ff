package plane

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"l3/internal/clock"
	"l3/internal/cluster"
	"l3/internal/core"
	"l3/internal/histogram"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/smi"
)

// hidden embeds a clock and so hides what is underneath: the plane sees only
// clock.Clock, as on the wall.
type hidden struct{ clock.Clock }

// side is one plane under test with the registry its traffic is counted in
// and every split version its controller wrote.
type side struct {
	engine *sim.Engine
	reg    *metrics.Registry
	plane  *Plane
	writes []write
}

type write struct {
	at    time.Duration
	split *smi.TrafficSplit
}

var backends = []string{"api-a", "api-b", "api-c"}

func newSide(t *testing.T, text bool, cfg Config) *side {
	s := &side{engine: sim.NewEngine(), reg: metrics.NewRegistry()}
	splits := smi.NewStore()
	ts := &smi.TrafficSplit{Name: "api", RootService: "api"}
	for _, b := range backends {
		ts.Backends = append(ts.Backends, smi.Backend{Service: b, Weight: 500})
	}
	if err := splits.Create(ts); err != nil {
		t.Fatal(err)
	}
	splits.Watch(false, func(e cluster.Event[*smi.TrafficSplit]) {
		if e.Type == cluster.Updated {
			s.writes = append(s.writes, write{s.engine.Now(), e.Object})
		}
	})
	cfg.Registry = s.reg
	var clk clock.Clock = s.engine
	if text {
		// As on the wall, the controllers' own metrics are exported with the
		// traffic's and scraped with it.
		cfg.SelfRegistry = s.reg
		clk = hidden{s.engine}
		cfg.Source = func(done func([]metrics.Sample, error)) {
			var buf bytes.Buffer
			if err := s.reg.WritePrometheus(&buf); err != nil {
				done(nil, err)
				return
			}
			done(metrics.ParseExposition(&buf))
		}
	}
	s.plane = New(clk, splits, cfg)
	s.plane.Start()
	return s
}

// drive counts one interval of traffic: backend i answers 40·(i+1)
// requests, the slower the later, and api-c fails one in five from round 8.
// api-a's counters restart at round 10, and rounds 14–17 are not scraped, so
// the guard's reset splice and its stale and blind rounds both run.
func (s *side) drive(round int) {
	if round == 10 {
		s.reg.ResetCounters(metrics.Labels{"backend": "api-a"})
	}
	s.plane.Scraper.SetDropping(round >= 14 && round < 18)
	for i, b := range backends {
		src := metrics.Labels{"service": "api", "backend": b, "src": "cluster-1"}
		s.reg.Gauge(mesh.MetricInflight, src).Set(float64(i + round%3))
		for n := 0; n < 40*(i+1); n++ {
			class := mesh.ClassSuccess
			if i == 2 && round >= 8 && n%5 == 0 {
				class = mesh.ClassFailure
			}
			l := src.With("classification", class)
			s.reg.Counter(mesh.MetricResponseTotal, l).Inc()
			latency := float64(1+i*i)*0.004 + float64((n*7+round)%11)*0.001
			s.reg.Histogram(mesh.MetricResponseLatency, l, histogram.LinkerdLatencyBounds).Observe(latency)
		}
	}
}

// TestOnePlaneTwoSources builds one plane that scrapes a registry on the
// engine and one that reads the same registry's exposition text through a
// clock that hides the engine. Fed the same counters, they must write the
// same split versions at the same times, with the guard off and on and for
// both assigners. The text side, like the wall, exports the controllers' own
// metrics: L3's filtered latency, rate and relative change too, the guard's
// wrapper around its assigner notwithstanding.
func TestOnePlaneTwoSources(t *testing.T) {
	const interval = 5 * time.Second
	const rounds = 24
	l3 := func() core.Assigner {
		return core.NewL3Assigner(core.WeightingConfig{}, core.RateControlConfig{}, true)
	}
	for _, guard := range []bool{false, true} {
		for _, algo := range []struct {
			name        string
			newAssigner func() core.Assigner
		}{{"l3", l3}, {"c3", nil}} {
			t.Run(fmt.Sprintf("guard=%v/%s", guard, algo.name), func(t *testing.T) {
				cfg := Config{Interval: interval, Guard: guard, NewAssigner: algo.newAssigner, Specs: []Spec{{}}}
				direct, text := newSide(t, false, cfg), newSide(t, true, cfg)
				for round := 1; round <= rounds; round++ {
					for _, s := range []*side{direct, text} {
						s.drive(round)
						s.engine.RunUntil(time.Duration(round) * interval)
					}
				}
				if len(direct.writes) < rounds/2 {
					t.Fatalf("%d writes in %d rounds: the plane barely wrote", len(direct.writes), rounds)
				}
				if len(text.writes) != len(direct.writes) {
					t.Fatalf("text source wrote %d versions, registry source %d", len(text.writes), len(direct.writes))
				}
				t.Logf("%d writes, last %v", len(direct.writes), direct.writes[len(direct.writes)-1].split.Backends)
				if algo.name == "l3" {
					exported := map[string]bool{}
					for _, sample := range text.reg.Snapshot() {
						exported[sample.Name] = true
					}
					for _, family := range []string{core.MetricWeight, core.MetricFilteredP99, core.MetricFilteredRPS, core.MetricRelativeChange} {
						if !exported[family] {
							t.Errorf("the text side's registry has no %s", family)
						}
					}
				}
				for i := range direct.writes {
					if !reflect.DeepEqual(text.writes[i], direct.writes[i]) {
						t.Fatalf("write %d: text source %v at %v, registry source %v at %v", i,
							text.writes[i].split.Backends, text.writes[i].at, direct.writes[i].split.Backends, direct.writes[i].at)
					}
				}
			})
		}
	}
}
