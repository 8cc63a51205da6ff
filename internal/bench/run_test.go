package bench

import (
	"testing"
	"time"

	"l3/internal/backend"
	"l3/internal/guard"
	"l3/internal/resilience"
	"l3/internal/sim"
	"l3/internal/smi"
	"l3/internal/trace"
)

// quick returns options that shrink the measured window so unit tests stay
// fast; the orderings under test are visible within two minutes.
func quick() Options {
	return Options{Seed: 1, WarmUp: 30 * time.Second, Duration: 2 * time.Minute}
}

func TestRunScenarioUnknownName(t *testing.T) {
	if _, err := RunScenario("scenario-99", AlgoL3, quick()); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestRunScenarioUnknownAlgorithm(t *testing.T) {
	if _, err := RunScenario(trace.Scenario1, Algorithm(42), quick()); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestRunScenarioRejectsShards pins Options.Shards: every run executes on
// one engine, so a non-zero value is an error rather than ignored.
func TestRunScenarioRejectsShards(t *testing.T) {
	opts := quick()
	opts.Shards = 1
	if _, err := RunScenario(trace.Scenario1, AlgoRoundRobin, opts); err == nil {
		t.Fatal("Options{Shards: 1} accepted")
	}
}

func TestRunScenarioProducesTraffic(t *testing.T) {
	rec, err := RunScenario(trace.Scenario1, AlgoRoundRobin, quick())
	if err != nil {
		t.Fatal(err)
	}
	// Scenario-1 offers ~300 RPS for the 2-minute window.
	if rec.Count() < 30000 || rec.Count() > 45000 {
		t.Fatalf("recorded %d requests, want ~36k", rec.Count())
	}
	if rec.SuccessRate() != 1 {
		t.Fatalf("success = %v, scenario-1 has no failures", rec.SuccessRate())
	}
	p99 := rec.Quantile(0.99)
	if p99 < 100*time.Millisecond || p99 > 2*time.Second {
		t.Fatalf("P99 = %v, outside scenario-1's plausible band", p99)
	}
}

func TestRunScenarioDeterministicForSeed(t *testing.T) {
	a, err := RunScenario(trace.Scenario5, AlgoL3, quick())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(trace.Scenario5, AlgoL3, quick())
	if err != nil {
		t.Fatal(err)
	}
	if a.Count() != b.Count() || a.Quantile(0.99) != b.Quantile(0.99) {
		t.Fatalf("same seed diverged: n=%d/%d p99=%v/%v",
			a.Count(), b.Count(), a.Quantile(0.99), b.Quantile(0.99))
	}
}

func TestRunScenarioRepsAccumulate(t *testing.T) {
	single, err := RunScenario(trace.Scenario5, AlgoRoundRobin, quick())
	if err != nil {
		t.Fatal(err)
	}
	o := quick()
	o.Reps = 2
	double, err := RunScenario(trace.Scenario5, AlgoRoundRobin, o)
	if err != nil {
		t.Fatal(err)
	}
	lo := uint64(float64(single.Count()) * 1.7)
	hi := uint64(float64(single.Count()) * 2.3)
	if double.Count() < lo || double.Count() > hi {
		t.Fatalf("2 reps recorded %d, want ~2x single's %d", double.Count(), single.Count())
	}
}

func TestL3BeatsRoundRobinOnScenario1(t *testing.T) {
	// The paper's headline ordering, on the favourable scenario.
	rr, err := RunScenario(trace.Scenario1, AlgoRoundRobin, quick())
	if err != nil {
		t.Fatal(err)
	}
	l3, err := RunScenario(trace.Scenario1, AlgoL3, quick())
	if err != nil {
		t.Fatal(err)
	}
	if l3.Quantile(0.99) >= rr.Quantile(0.99) {
		t.Fatalf("L3 P99 %v not below round-robin %v", l3.Quantile(0.99), rr.Quantile(0.99))
	}
}

func TestL3ImprovesSuccessOnFailure1(t *testing.T) {
	rr, err := RunScenario(trace.Failure1, AlgoRoundRobin, quick())
	if err != nil {
		t.Fatal(err)
	}
	l3, err := RunScenario(trace.Failure1, AlgoL3, quick())
	if err != nil {
		t.Fatal(err)
	}
	if l3.SuccessRate() <= rr.SuccessRate() {
		t.Fatalf("L3 success %v not above round-robin %v", l3.SuccessRate(), rr.SuccessRate())
	}
}

func TestRunDSBCompletes(t *testing.T) {
	rec, err := RunDSB(AlgoRoundRobin, 100, time.Minute, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count() < 5500 || rec.Count() > 6500 {
		t.Fatalf("recorded %d, want ~6000", rec.Count())
	}
	if rec.SuccessRate() < 0.999 {
		t.Fatalf("success = %v", rec.SuccessRate())
	}
}

func TestFig4IsPureAndAnchored(t *testing.T) {
	r := Fig4()
	if len(r.Series["c"]) != len(r.Series["wb2000_wmu1000"]) {
		t.Fatal("series lengths differ")
	}
	if r.Rows[0].Value != 2875 {
		t.Fatalf("c=-1 anchor = %v, want 2875", r.Rows[0].Value)
	}
	// Monotone convergence toward the mean on the increase side.
	s := r.Series["wb2000_wmu1000"]
	cs := r.Series["c"]
	for i := 1; i < len(cs); i++ {
		if cs[i] <= 0 || cs[i-1] < 0 {
			continue
		}
		if s[i] > s[i-1]+1e-9 {
			t.Fatalf("increase side not monotone toward mean at c=%v", cs[i])
		}
	}
}

func TestFig1SeriesShape(t *testing.T) {
	r, err := Fig1(1)
	if err != nil {
		t.Fatal(err)
	}
	// 2 scenarios x 3 clusters x 2 series.
	if len(r.Series) != 12 {
		t.Fatalf("series = %d, want 12", len(r.Series))
	}
	p99 := r.Series["scenario-1/cluster-2/p99_ms"]
	if len(p99) != 601 {
		t.Fatalf("series length = %d, want 601 (10 min at 1 s)", len(p99))
	}
	if maxOf(p99) > 960 {
		t.Fatalf("scenario-1 p99 max = %v ms, want <= 950", maxOf(p99))
	}
}

func TestFig2SeriesShape(t *testing.T) {
	r, err := Fig2(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(r.Series))
	}
	rps := r.Series["scenario-2/rps"]
	if minOf(rps) < 40 || maxOf(rps) > 210 {
		t.Fatalf("scenario-2 RPS range [%v, %v]", minOf(rps), maxOf(rps))
	}
}

func TestFig6SeriesShape(t *testing.T) {
	r, err := Fig6(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 9 {
		t.Fatalf("series = %d, want 9 (3 scenarios x 3 clusters)", len(r.Series))
	}
	if maxOf(r.Series["scenario-4/cluster-1/p99_ms"]) > 5100 {
		t.Fatal("scenario-4 p99 exceeds its 5 s cap")
	}
}

func TestTrafficAccounting(t *testing.T) {
	out, err := sweep(1, cell{scenario: trace.Scenario5, algo: AlgoRoundRobin, opts: quick()})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].rec.Count() == 0 {
		t.Fatal("no requests recorded")
	}
	// Round-robin sends 2/3 of traffic to remote clusters.
	remoteShare, bill := out[0].traffic()
	if remoteShare < 0.60 || remoteShare > 0.72 {
		t.Fatalf("remote share = %v, want ~2/3 under round-robin", remoteShare)
	}
	if bill <= 0 {
		t.Fatalf("transfer bill = %v, want positive", bill)
	}
}

func TestCostLambdaReducesRemoteShare(t *testing.T) {
	costly := quick()
	costly.CostLambda = 3e6
	out, err := sweep(0,
		cell{scenario: trace.Scenario5, algo: AlgoL3, opts: quick()},
		cell{scenario: trace.Scenario5, algo: AlgoL3, opts: costly})
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := out[0].traffic()
	aware, _ := out[1].traffic()
	if aware >= plain {
		t.Fatalf("cost-aware remote share %v not below plain %v", aware, plain)
	}
}

func TestFailoverAlgorithmRuns(t *testing.T) {
	rec, err := RunScenario(trace.Failure1, AlgoFailover, quick())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count() == 0 {
		t.Fatal("no requests recorded")
	}
}

func TestRetryOptionLiftsSuccess(t *testing.T) {
	plain, err := RunScenario(trace.Failure1, AlgoRoundRobin, quick())
	if err != nil {
		t.Fatal(err)
	}
	o := quick()
	o.Resilience = &resilience.Policy{Retry: resilience.RetryConfig{MaxAttempts: 3}}
	retried, err := RunScenario(trace.Failure1, AlgoRoundRobin, o)
	if err != nil {
		t.Fatal(err)
	}
	if retried.SuccessRate() <= plain.SuccessRate() {
		t.Fatalf("retries did not lift success: %v vs %v",
			retried.SuccessRate(), plain.SuccessRate())
	}
}

// TestControlRegistryScrapedInBothModes pins the scrape set: the guard's
// control-plane families share the data-plane registry, and every scrape
// round carries them into the TSDB at that round's timestamp. The name
// keeps the test's history: it once ran on the classic and the sharded
// engine; the sharded case went with that engine, and shards=0 is the one
// engine that remains.
func TestControlRegistryScrapedInBothModes(t *testing.T) {
	t.Run("shards=0", func(t *testing.T) {
		clusters := []string{"cluster-1", "cluster-2", "cluster-3"}
		opts := Options{Guard: true, Shards: 0}.withDefaults()
		w := newWorld(1)
		if _, err := w.mesh.AddService(apiService); err != nil {
			t.Fatal(err)
		}
		var backends []smi.Backend
		for _, cl := range clusters {
			name := apiService + "-" + cl
			if _, err := w.mesh.AddBackend(apiService, name, cl, backend.Config{},
				func(time.Duration, *sim.Rand) (time.Duration, bool) { return time.Millisecond, true }); err != nil {
				t.Fatal(err)
			}
			backends = append(backends, smi.Backend{Service: name, Weight: 500})
		}
		if err := w.mesh.Splits().Create(&smi.TrafficSplit{
			Name: apiService, RootService: apiService, Backends: backends,
		}); err != nil {
			t.Fatal(err)
		}
		handles, err := installAlgorithm(w, AlgoL3, opts, []string{apiService}, nil, globalController())
		if err != nil {
			t.Fatal(err)
		}
		for round := 1; round <= 3; round++ {
			at := time.Duration(round) * opts.ScrapeInterval
			w.engine.RunUntil(at)
			if got, ok := handles.db.NewestSample(guard.MetricResetsTotal, nil); !ok || got != at {
				t.Fatalf("round %d: newest %s sample at %v (found %v), want %v",
					round, guard.MetricResetsTotal, got, ok, at)
			}
		}
	})
}
