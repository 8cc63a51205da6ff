package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"l3/internal/backend"
	"l3/internal/chaos"
	"l3/internal/guard"
	"l3/internal/health"
	"l3/internal/metrics"
	"l3/internal/resilience"
	"l3/internal/sim"
	"l3/internal/smi"
	"l3/internal/trace"
	"l3/internal/wan"
)

// shardDigest captures everything observable from one sharded run: the
// recorder's full per-second series, the per-route count matrix, every
// counter family's total and (under chaos) the split-write trace. Two runs
// with equal digests produced byte-identical figures.
type shardDigest struct {
	count       uint64
	successRate float64
	mean        time.Duration
	p50, p99    time.Duration
	p99Series   []float64
	rpsSeries   []float64
	succSeries  []float64
	counts      map[[2]string]float64
	updates     []time.Duration
	snaps       string
	ejections   float64
	restores    float64
	totals      string
}

// shardRun digests one run: workers ≥ 1 runs on the sharded core, 0 on the
// classic single engine (newWorld picks from Shards) — which is what lets
// the parity tests below compare the two modes byte for byte.
func shardRun(t *testing.T, scenario string, algo Algorithm, opts Options, workers int) shardDigest {
	t.Helper()
	opts = opts.withDefaults()
	opts.Shards = workers
	sc, err := trace.Generate(scenario, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runTrace(sc, algo, opts, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rec, run := out.rec, out.reps[0]
	return shardDigest{
		count:       rec.Count(),
		successRate: rec.SuccessRate(),
		mean:        rec.Mean(),
		p50:         rec.Quantile(0.5),
		p99:         rec.Quantile(0.99),
		p99Series:   rec.QuantileSeries(0.99),
		rpsSeries:   rec.RPSSeries(),
		succSeries:  rec.SuccessRateSeries(),
		counts:      run.counts,
		updates:     run.updates,
		snaps:       fmt.Sprint(run.snaps),
		ejections:   out.total(health.MetricEjectionsTotal),
		restores:    out.total(health.MetricRestoresTotal),
		totals:      fmt.Sprint(out.totals),
	}
}

// TestShardedRunByteIdenticalAcrossWorkerCounts is the tentpole's property
// test: for a matrix of scenario × algorithm × chaos configurations, the
// sharded core must produce identical recorder series, per-route counts and
// control-plane traces at 1, 4 and 8 workers. Run under -race this also
// exercises the window/barrier protocol for data races.
func TestShardedRunByteIdenticalAcrossWorkerCounts(t *testing.T) {
	cases := []struct {
		name     string
		scenario string
		algo     Algorithm
		chaos    *chaos.Schedule
		res      *resilience.Policy
	}{
		{"s1-rr", trace.Scenario1, AlgoRoundRobin, nil, nil},
		{"s1-l3", trace.Scenario1, AlgoL3, nil, nil},
		{"f1-failover-chaos", trace.Failure1, AlgoFailover, partitionQuick(), nil},
		{"s1-l3-chaos", trace.Scenario1, AlgoL3, partitionQuick(), nil},
		{"s1-rr-retry", trace.Scenario1, AlgoRoundRobin, partitionQuick(),
			&resilience.Policy{Retry: resilience.RetryConfig{
				MaxAttempts: 3, Backoff: 10 * time.Millisecond, Jitter: 0.2,
			}}},
		{"s1-l3-resilience-chaos", trace.Scenario1, AlgoL3, partitionQuick(),
			&resilience.Policy{
				Deadline: 2 * time.Second,
				Retry: resilience.RetryConfig{
					MaxAttempts: 3, AttemptTimeout: 500 * time.Millisecond,
					Backoff: 10 * time.Millisecond, Jitter: 0.2, BudgetRatio: 0.2,
				},
				Hedge:   resilience.HedgeConfig{Percentile: 0.95},
				Breaker: resilience.BreakerConfig{ConsecutiveFailures: 5},
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opts := quick()
			opts.Chaos = tc.chaos
			opts.Resilience = tc.res
			base := shardRun(t, tc.scenario, tc.algo, opts, 1)
			if base.count == 0 {
				t.Fatal("sharded run recorded no requests")
			}
			for _, workers := range []int{4, 8} {
				got := shardRun(t, tc.scenario, tc.algo, opts, workers)
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("workers=%d diverged from workers=1:\n  base n=%d p99=%v counts=%v\n  got  n=%d p99=%v counts=%v",
						workers, base.count, base.p99, base.counts,
						got.count, got.p99, got.counts)
				}
			}
		})
	}
}

// TestShardedRunDeterministicForSeed pins run-to-run determinism at a fixed
// worker count (the property -shards relies on when figures are regenerated).
func TestShardedRunDeterministicForSeed(t *testing.T) {
	a := shardRun(t, trace.Scenario1, AlgoL3, quick(), 4)
	b := shardRun(t, trace.Scenario1, AlgoL3, quick(), 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged: n=%d/%d p99=%v/%v", a.count, b.count, a.p99, b.p99)
	}
}

// TestShardedRunProducesPlausibleTraffic sanity-checks that the sharded path
// runs the same experiment as the classic path: scenario-1 offers ~300 RPS
// with no failures.
func TestShardedRunProducesPlausibleTraffic(t *testing.T) {
	d := shardRun(t, trace.Scenario1, AlgoRoundRobin, quick(), 4)
	if d.count < 30000 || d.count > 45000 {
		t.Fatalf("recorded %d requests, want ~36k", d.count)
	}
	if d.successRate != 1 {
		t.Fatalf("success = %v, scenario-1 has no failures", d.successRate)
	}
	if d.p99 < 100*time.Millisecond || d.p99 > 2*time.Second {
		t.Fatalf("P99 = %v, outside scenario-1's plausible band", d.p99)
	}
}

// TestShardedRejectsUnsupportedLayers pins the explicit error for the one
// layer still classic-only — the DSB cross-service call graph, which needs
// service-keyed sharding. It must name the layer and point at the remedy
// (-shards 0), so a CLI user knows which flag to drop. Retry and resilience
// compose with -shards since the cross-shard continuation work; the matrix
// test above covers them.
func TestShardedRejectsUnsupportedLayers(t *testing.T) {
	o := quick()
	o.Shards = 2
	_, err := RunDSB(AlgoRoundRobin, 100, time.Minute, o)
	if err == nil {
		t.Fatal("DSB accepted with Shards > 0")
	}
	if !strings.Contains(err.Error(), "DSB") {
		t.Fatalf("error %q does not name the DSB layer", err)
	}
	if !strings.Contains(err.Error(), "-shards 0") {
		t.Fatalf("error %q does not suggest -shards 0", err)
	}
}

// recDigest summarizes the simulated results for cross-run comparison.
func (r *shardFigRun) recDigest() string {
	return fmt.Sprintf("%d|%v|%v|%v",
		r.rec.Count(), r.rec.Quantile(0.5), r.rec.Quantile(0.99), r.rec.SuccessRate())
}

// TestShardScalingWorkloadClassicShardedParity pins sharded ≡ classic on
// figure S1's workload: the classic engine and the sharded core execute the
// same simulation (routing via per-source round-robin, WAN hash delays,
// backend rng streams), so their recorder digests and event counts must
// match — only the machinery, and so only wall-clock, may differ.
func TestShardScalingWorkloadClassicShardedParity(t *testing.T) {
	if testing.Short() {
		t.Skip("60 simulated seconds at 16k RPS twice")
	}
	classic, err := runShardWorkload(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := runShardWorkload(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sharded.recDigest(), classic.recDigest(); got != want {
		t.Fatalf("sharded scaling workload diverged from classic baseline:\n sharded %s\n classic %s", got, want)
	}
	if classic.stats.Events != sharded.stats.Events {
		t.Fatalf("event counts differ: classic %d, sharded %d", classic.stats.Events, sharded.stats.Events)
	}
}

// TestControlRegistryScrapedInBothModes pins the world's scrape set: the
// control-plane families (guard accounting here) live in the control
// registry, which is the data-plane registry on the classic engine and a
// separate one on the sharded core — and must reach the TSDB either way,
// exactly once per round.
func TestControlRegistryScrapedInBothModes(t *testing.T) {
	for _, workers := range []int{0, 2} {
		workers := workers
		t.Run(fmt.Sprintf("shards=%d", workers), func(t *testing.T) {
			clusters := []string{"cluster-1", "cluster-2", "cluster-3"}
			opts := Options{Guard: true, Shards: workers}.withDefaults()
			w, err := newWorld(clusters, 1, wan.DefaultConfig(), opts)
			if err != nil {
				t.Fatal(err)
			}
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
			seen := make(map[*metrics.Registry]bool)
			for _, reg := range w.scrape {
				if seen[reg] {
					t.Fatal("scrape set lists a registry twice")
				}
				seen[reg] = true
			}
			if !seen[w.ctrlReg] {
				t.Fatal("scrape set omits the control registry")
			}
			at := 3 * opts.ScrapeInterval
			w.runUntil(at)
			if _, ok := handles.db.Latest(guard.MetricResetsTotal, nil, at); !ok {
				t.Fatalf("%s never reached the TSDB", guard.MetricResetsTotal)
			}
		})
	}
}

// TestShardedResilienceMatchesClassic is the acceptance criterion for the
// cross-shard continuation protocol: the figure R1 configuration — full
// resilience policy (deadline, budgeted retries with per-try timeouts and
// jitter) over round-robin under a saturate fault — must reproduce the
// classic single-engine run byte for byte when sharded, at any worker
// count. This works because sharding changed no model semantics: the rng
// fork discipline, event timestamps and per-timeline execution order are
// mode-invariant; only the machinery differs.
func TestShardedResilienceMatchesClassic(t *testing.T) {
	policies := []struct {
		name   string
		policy resilience.Policy
	}{
		{"figure R1", resilience.Policy{
			Deadline: 2 * time.Second,
			Retry: resilience.RetryConfig{
				MaxAttempts: 3, AttemptTimeout: 500 * time.Millisecond,
				Backoff: 10 * time.Millisecond, Jitter: 0.2, BudgetRatio: 0.1,
			},
		}},
		// The retry-penalty ablation's client: plain retries, no jitter, no
		// budget, no deadline.
		{"plain retries", resilience.Policy{Retry: resilience.RetryConfig{
			MaxAttempts: 3, Backoff: 10 * time.Millisecond, Jitter: -1,
		}}},
	}
	for _, tc := range policies {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			opts := resilienceLoadOptions(quick())
			opts.Chaos = saturateSchedule(opts, 0.1, apiService+"-cluster-1", apiService+"-cluster-2")
			opts.Resilience = &tc.policy
			classic := shardRun(t, trace.Scenario1, AlgoRoundRobin, opts, 0)
			if classic.count == 0 {
				t.Fatal("classic run recorded no requests")
			}
			for _, workers := range []int{1, 4} {
				sharded := shardRun(t, trace.Scenario1, AlgoRoundRobin, opts, workers)
				if !reflect.DeepEqual(classic, sharded) {
					t.Fatalf("sharded workers=%d diverged from classic:\n  classic n=%d p99=%v totals=%s counts=%v\n  sharded n=%d p99=%v totals=%s counts=%v",
						workers, classic.count, classic.p99, classic.totals, classic.counts,
						sharded.count, sharded.p99, sharded.totals, sharded.counts)
				}
			}
		})
	}
}
