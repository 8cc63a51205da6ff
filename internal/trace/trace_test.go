package trace

import (
	"math"
	"testing"
	"time"

	"l3/internal/sim"
)

func TestSeriesAtInterpolatesAndClamps(t *testing.T) {
	s := Series{Step: time.Second, Values: []float64{0, 10, 20}}
	if got := s.At(-time.Second); got != 0 {
		t.Fatalf("At(-1s) = %v", got)
	}
	if got := s.At(500 * time.Millisecond); got != 5 {
		t.Fatalf("At(0.5s) = %v, want 5", got)
	}
	if got := s.At(time.Second); got != 10 {
		t.Fatalf("At(1s) = %v, want 10", got)
	}
	if got := s.At(time.Hour); got != 20 {
		t.Fatalf("At(1h) = %v, want clamp to 20", got)
	}
	if got := (Series{}).At(time.Second); got != 0 {
		t.Fatalf("empty series At = %v", got)
	}
}

func TestSeriesStats(t *testing.T) {
	s := Series{Step: time.Second, Values: []float64{2, 4, 6}}
	if s.Min() != 2 || s.Max() != 6 || s.Mean() != 4 {
		t.Fatalf("stats = %v %v %v", s.Min(), s.Max(), s.Mean())
	}
	if got := s.Stddev(); math.Abs(got-math.Sqrt(8.0/3)) > 1e-12 {
		t.Fatalf("Stddev = %v", got)
	}
	if s.Duration() != 2*time.Second {
		t.Fatalf("Duration = %v", s.Duration())
	}
	scaled := s.Scale(10)
	if scaled.Values[2] != 60 || s.Values[2] != 6 {
		t.Fatal("Scale wrong or mutated original")
	}
}

func TestConstantSeries(t *testing.T) {
	s := Constant(time.Second, 5, 3.14)
	if len(s.Values) != 5 || s.Min() != 3.14 || s.Max() != 3.14 {
		t.Fatalf("Constant = %v", s)
	}
}

func TestGenerateUnknownScenario(t *testing.T) {
	if _, err := Generate("scenario-99", 1); err == nil {
		t.Fatal("unknown scenario did not error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(Scenario1, 7)
	b := MustGenerate(Scenario1, 7)
	for ci := range a.Clusters {
		for i := range a.Clusters[ci].P99.Values {
			if a.Clusters[ci].P99.Values[i] != b.Clusters[ci].P99.Values[i] {
				t.Fatalf("scenario not deterministic at cluster %d step %d", ci, i)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := MustGenerate(Scenario1, 1)
	b := MustGenerate(Scenario1, 2)
	same := 0
	for i := range a.RPS.Values {
		if a.RPS.Values[i] == b.RPS.Values[i] {
			same++
		}
	}
	if same > len(a.RPS.Values)/10 {
		t.Fatalf("seeds produce near-identical RPS series (%d/%d equal)", same, len(a.RPS.Values))
	}
}

func TestAllScenariosStructure(t *testing.T) {
	for _, name := range Names() {
		sc := MustGenerate(name, 1)
		if sc.Duration != 10*time.Minute {
			t.Fatalf("%s duration = %v", name, sc.Duration)
		}
		if len(sc.Clusters) != 3 {
			t.Fatalf("%s has %d clusters", name, len(sc.Clusters))
		}
		for _, ct := range sc.Clusters {
			n := len(ct.Median.Values)
			if n == 0 || len(ct.P99.Values) != n || len(ct.Success.Values) != n {
				t.Fatalf("%s/%s series lengths inconsistent", name, ct.Cluster)
			}
			for i := range ct.Median.Values {
				if ct.Median.Values[i] <= 0 {
					t.Fatalf("%s/%s non-positive median at %d", name, ct.Cluster, i)
				}
				if ct.P99.Values[i] < ct.Median.Values[i] {
					t.Fatalf("%s/%s P99 below median at %d", name, ct.Cluster, i)
				}
				if s := ct.Success.Values[i]; s < 0 || s > 1 {
					t.Fatalf("%s/%s success %v out of range", name, ct.Cluster, s)
				}
			}
		}
		if sc.RPS.Min() <= 0 {
			t.Fatalf("%s RPS min = %v", name, sc.RPS.Min())
		}
		if sc.Cluster("cluster-2") == nil || sc.Cluster("nope") != nil {
			t.Fatalf("%s Cluster lookup broken", name)
		}
	}
}

func TestScenario1MatchesPaperStatistics(t *testing.T) {
	sc := MustGenerate(Scenario1, 1)
	for _, ct := range sc.Clusters {
		// Median mostly 50-100ms; cluster-2 spikes allowed to ~350ms.
		if m := ct.Median.Mean(); m < 0.045 || m > 0.120 {
			t.Fatalf("%s mean median = %v s, want ~50-100ms", ct.Cluster, m)
		}
		if ct.P99.Max() > 0.96 {
			t.Fatalf("%s P99 max = %v s, paper band tops at ~950ms", ct.Cluster, ct.P99.Max())
		}
		if ct.P99.Min() < 0.05 {
			t.Fatalf("%s P99 min = %v s, implausibly low", ct.Cluster, ct.P99.Min())
		}
	}
	if sc.Cluster("cluster-2").Median.Max() < 0.15 {
		t.Fatal("cluster-2 should carry median spikes above 150ms")
	}
	if r := sc.RPS.Mean(); r < 280 || r > 320 {
		t.Fatalf("RPS mean = %v, want ~300", r)
	}
}

func TestScenario2MatchesPaperStatistics(t *testing.T) {
	sc := MustGenerate(Scenario2, 1)
	for _, ct := range sc.Clusters {
		if m := ct.Median.Mean(); m < 0.003 || m > 0.009 {
			t.Fatalf("%s mean median = %v s, want 3-9ms", ct.Cluster, m)
		}
		if ct.P99.Max() > 2.5 {
			t.Fatalf("%s P99 max = %v s, want <= 2.4s", ct.Cluster, ct.P99.Max())
		}
	}
	// At least one cluster must show a spike beyond 1s (Fig 1b).
	spiky := false
	for _, ct := range sc.Clusters {
		if ct.P99.Max() > 1.0 {
			spiky = true
		}
	}
	if !spiky {
		t.Fatal("no cluster carries an intermittent spike past 1s")
	}
	if sc.RPS.Min() < 40 || sc.RPS.Max() > 210 {
		t.Fatalf("RPS range [%v, %v], want within ~45-200", sc.RPS.Min(), sc.RPS.Max())
	}
}

func TestScenario4HasTheWildestTail(t *testing.T) {
	worst := func(name string) float64 {
		sc := MustGenerate(name, 1)
		m := 0.0
		for _, ct := range sc.Clusters {
			if v := ct.P99.Max(); v > m {
				m = v
			}
		}
		return m
	}
	s4 := worst(Scenario4)
	if s4 < 2.0 || s4 > 5.0 {
		t.Fatalf("scenario-4 worst P99 = %v s, want spikes in the 2-5s range", s4)
	}
	if s5 := worst(Scenario5); s5 > 0.31 {
		t.Fatalf("scenario-5 worst P99 = %v s, want <= ~0.3s", s5)
	}
}

func TestScenario5IsCalm(t *testing.T) {
	sc := MustGenerate(Scenario5, 1)
	// Backend medians stay within a few ms of each other (paper: σ=6.3ms).
	var means []float64
	for _, ct := range sc.Clusters {
		means = append(means, ct.Median.Mean())
	}
	lo, hi := means[0], means[0]
	for _, m := range means {
		lo = math.Min(lo, m)
		hi = math.Max(hi, m)
	}
	if hi-lo > 0.015 {
		t.Fatalf("scenario-5 cluster median spread = %v s, want tight", hi-lo)
	}
}

func TestFailure1SuccessStatistics(t *testing.T) {
	sc := MustGenerate(Failure1, 1)
	var total float64
	minSeen := 1.0
	for _, ct := range sc.Clusters {
		total += ct.Success.Mean()
		if m := ct.Success.Min(); m < minSeen {
			minSeen = m
		}
	}
	avg := total / 3
	if avg < 0.88 || avg > 0.96 {
		t.Fatalf("failure-1 average success = %v, paper reports 91.4%%", avg)
	}
	if minSeen > 0.45 {
		t.Fatalf("failure-1 deepest dip = %v, want down toward 30%%", minSeen)
	}
}

func TestFailure2SuccessStatistics(t *testing.T) {
	sc := MustGenerate(Failure2, 1)
	var total float64
	best := 0.0
	for _, ct := range sc.Clusters {
		m := ct.Success.Mean()
		total += m
		if m > best {
			best = m
		}
	}
	avg := total / 3
	if avg < 0.975 || avg > 0.995 {
		t.Fatalf("failure-2 average success = %v, paper reports 98.5%%", avg)
	}
	if best < 0.985 {
		t.Fatalf("failure-2 best backend = %v, paper reports a 99.8%% backend", best)
	}
	// Latency shape is scenario-2's.
	if m := sc.Clusters[0].Median.Mean(); m < 0.003 || m > 0.009 {
		t.Fatalf("failure-2 median = %v, want scenario-2's 3-9ms", m)
	}
}

func TestScenariosWithoutFailureHavePerfectSuccess(t *testing.T) {
	for _, name := range []string{Scenario1, Scenario2, Scenario3, Scenario4, Scenario5} {
		sc := MustGenerate(name, 3)
		for _, ct := range sc.Clusters {
			if ct.Success.Min() != 1 {
				t.Fatalf("%s/%s success dips to %v without failure injection", name, ct.Cluster, ct.Success.Min())
			}
		}
	}
}

func TestSampleLatencyFollowsTrace(t *testing.T) {
	sc := MustGenerate(Scenario1, 1)
	ct := sc.Cluster("cluster-1")
	rng := sim.NewRand(5)
	const n = 20000
	at := 2 * time.Minute
	var samples []time.Duration
	for i := 0; i < n; i++ {
		samples = append(samples, ct.SampleLatency(at, rng))
	}
	var sum time.Duration
	below := 0
	med := time.Duration(ct.Median.At(at) * float64(time.Second))
	for _, s := range samples {
		sum += s
		if s <= med {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("fraction below trace median = %v, want ~0.5", frac)
	}
}

func TestSampleSuccessFollowsTrace(t *testing.T) {
	sc := MustGenerate(Failure1, 1)
	ct := sc.Cluster("cluster-1")
	rng := sim.NewRand(5)
	at := 5 * time.Minute
	want := ct.Success.At(at)
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if ct.SampleSuccess(at, rng) {
			hits++
		}
	}
	if got := float64(hits) / n; math.Abs(got-want) > 0.01 {
		t.Fatalf("success frequency = %v, trace value %v", got, want)
	}
}

// TestSampleLatencyMovesWithinStep pins why the latency distribution is
// rebuilt per sample: Series.At interpolates, so median and P99 — and the
// (mu, sigma) derived from them — move with every instant, not once per
// series step. A cache keyed on the step would change every draw.
func TestSampleLatencyMovesWithinStep(t *testing.T) {
	ct := &ClusterTrace{
		Median: Series{Step: time.Second, Values: []float64{0.010, 0.020}},
		P99:    Series{Step: time.Second, Values: []float64{0.050, 0.100}},
	}
	atStart := ct.SampleLatency(0, sim.NewRand(9))
	midStep := ct.SampleLatency(500*time.Millisecond, sim.NewRand(9))
	// One normal draw z on both sides: exp(mu + sigma z) scales with the
	// interpolated median 15 ms / 10 ms when P99/median is unchanged.
	if ratio := float64(midStep) / float64(atStart); math.Abs(ratio-1.5) > 1e-6 {
		t.Fatalf("same draw at step start %v and mid-step %v: ratio %v, want 1.5", atStart, midStep, ratio)
	}
}
