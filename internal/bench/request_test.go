package bench

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"l3/internal/backend"
	"l3/internal/balancer"
	"l3/internal/loadgen"
	"l3/internal/mesh"
	"l3/internal/sim"
	"l3/internal/smi"
	"l3/internal/trace"
)

// TestOpenLoopRequestAllocationFree pins the whole simulated request, not
// only mesh.Call: generator arrival → relay → picker → mesh.Call → WAN →
// replica → WAN → metrics → recorder allocates nothing on a warm engine, for
// round-robin and for the split picker L3 and C3 steer through.
func TestOpenLoopRequestAllocationFree(t *testing.T) {
	pickers := map[string]func(*world) mesh.Picker{
		"round-robin": func(*world) mesh.Picker { return balancer.NewRoundRobin() },
		"weighted-split": func(w *world) mesh.Picker {
			return balancer.NewWeightedSplit(w.mesh.Splits(), w.rng.Fork(), nil)
		},
	}
	for name, picker := range pickers {
		t.Run(name, func(t *testing.T) {
			clusters := []string{"cluster-1", "cluster-2", "cluster-3"}
			w := newWorld(1)
			if _, err := w.mesh.AddService(apiService); err != nil {
				t.Fatal(err)
			}
			split := &smi.TrafficSplit{Name: apiService, RootService: apiService}
			for i, cl := range clusters {
				profile := func(_ time.Duration, r *sim.Rand) (time.Duration, bool) {
					return time.Duration(1+r.IntN(4)) * time.Millisecond, true
				}
				if _, err := w.mesh.AddBackend(apiService, apiService+"-"+cl, cl, backend.Config{Concurrency: 64}, profile); err != nil {
					t.Fatal(err)
				}
				split.Backends = append(split.Backends, smi.Backend{Service: apiService + "-" + cl, Weight: int64(100 * (i + 1))})
			}
			if err := w.mesh.Splits().Create(split); err != nil {
				t.Fatal(err)
			}
			if err := w.mesh.SetPicker(apiService, picker(w)); err != nil {
				t.Fatal(err)
			}
			const gap = time.Millisecond
			gen := w.directLoad(sourceCluster, apiService, loadgen.Config{Rate: loadgen.ConstantRate(float64(time.Second / gap))})
			// Warm pools, route handles and the event heap, and stop inside a
			// recorder bucket: the recorder opens one histogram per second of
			// virtual time, which is per bucket, not per request.
			now := time.Second + 50*gap
			w.engine.RunUntil(now)
			before := gen.Completed()
			allocs := testing.AllocsPerRun(400, func() {
				now += gap
				w.engine.RunUntil(now)
			})
			if done := gen.Completed() - before; done < 390 {
				t.Fatalf("%d requests completed over 401 arrivals", done)
			}
			if allocs != 0 {
				t.Fatalf("%.2f allocations per open-loop request, want 0", allocs)
			}
		})
	}
}

// requestCost is what one scenario run allocated per recorded request.
type requestCost struct {
	algo           Algorithm
	mallocs, bytes float64
	requests       uint64
}

// scenarioCosts runs a 4-minute scenario-1 world for each algorithm of the
// Figure 10 grid, once per test binary, and keeps everything each run
// allocated — set-up, trace, control rounds, recorder — per recorded
// request: the shape of the repo benchmark's sim_trace operation.
var scenarioCosts = sync.OnceValues(func() ([]requestCost, error) {
	var costs []requestCost
	for _, algo := range []Algorithm{AlgoRoundRobin, AlgoC3, AlgoL3} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := RunScenario(trace.Scenario1, algo, Options{Seed: 1, Parallel: 1, Duration: 4 * time.Minute})
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, err
		}
		n := float64(rec.Count())
		costs = append(costs, requestCost{algo,
			float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, rec.Count()})
	}
	return costs, nil
})

// TestScenarioMallocsPerRequest guards the number the repo benchmark reports
// as sim_trace allocs_per_op. The runs read 0.024–0.037 mallocs a request;
// the ceiling is that plus 25 %. A fetch or a closure per request is ≥ 1,
// and the recorder that allocated each second's histogram apart from its
// counts read 0.034–0.047, over the ceiling for C3.
func TestScenarioMallocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("process-wide allocation counts are not meaningful under -race")
	}
	costs, err := scenarioCosts()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range costs {
		t.Logf("%v: %.4f mallocs per recorded request over %d requests", c.algo, c.mallocs, c.requests)
		if c.mallocs > 0.046 {
			t.Errorf("%v: %.4f mallocs per recorded request, want <= 0.046", c.algo, c.mallocs)
		}
	}
}

// TestScenarioBytesPerRequest guards the number the repo benchmark reports
// as sim_trace alloc_bytes_per_op, on the same runs. They read 6.22–7.29 B
// a request; the ceiling is that plus 25 %. Histogram windows of 64-bit
// counts and seconds in a slice grown by doubling (14.06–14.92 B), a
// histogram that allocates the whole bucket layout each second, or a merge
// that copies a lone run's recorder (60–62 B with both), exceed it.
func TestScenarioBytesPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("process-wide allocation counts are not meaningful under -race")
	}
	costs, err := scenarioCosts()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range costs {
		t.Logf("%v: %.2f B per recorded request over %d requests", c.algo, c.bytes, c.requests)
		if c.bytes > 9.1 {
			t.Errorf("%v: %.2f B per recorded request, want <= 9.1", c.algo, c.bytes)
		}
	}
}

// TestTenMinuteRecorderHolds pins what one ten-minute run's recorder keeps
// live — scenario 1 under L3, seed 1: the heap that goes when the recorder
// does. Every repetition and seed of a sweep keeps one. It read
// 479 232–479 264 B for 630 seconds; the ceiling is that plus 10 %.
// Histogram windows of 64-bit counts and seconds in a slice grown by
// doubling held 1 535 120 B.
func TestTenMinuteRecorderHolds(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	rec, err := RunScenario(trace.Scenario1, AlgoL3, Options{Seed: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	seconds := rec.Buckets()
	var with, without runtime.MemStats
	runtime.GC()
	runtime.GC() // the first only moves sync.Pool contents to the victim cache
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(rec)
	runtime.GC()
	runtime.ReadMemStats(&without)
	held := int64(with.HeapAlloc) - int64(without.HeapAlloc)
	t.Logf("a %d-second recorder holds %d B", seconds, held)
	if held > 527000 {
		t.Errorf("a %d-second recorder holds %d B, want <= 527 000", seconds, held)
	}
}

// TestDSBRunMallocs guards the number the repo benchmark reports as sim_dsb
// allocs_per_op without running it: one world of its shape (L3, 200 rps, 30 s
// of warm-up and 20 measured) is 6 909 series met for the first time and ten
// control rounds over them. The world runs twice. The first run may be the
// first of its series in the process, and pays for their descriptors — label
// maps and sample templates, which the metrics package keeps process-wide —
// so its ceiling is a cold world's count (28 009) plus 5 %. The second run
// finds every descriptor in place; its ceiling is a warm world's count
// (12 911) plus 5 %. An earlier test that built such a world leaves the first
// run warm, under both ceilings. A registry that clones each series' map
// again, a store that allocates each series or state on its own, or a split
// write that copies more than one version, exceeds them.
func TestDSBRunMallocs(t *testing.T) {
	if raceEnabled {
		t.Skip("process-wide allocation counts are not meaningful under -race")
	}
	for i, run := range []struct {
		name    string
		ceiling uint64
	}{{"cold", 29409}, {"warm", 13557}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := RunDSB(AlgoL3, 200, 20*time.Second, Options{Seed: 1, Parallel: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		mallocs := after.Mallocs - before.Mallocs
		t.Logf("run %d (%s ceiling): %d mallocs for one 50 s DSB world, %d recorded requests", i+1, run.name, mallocs, rec.Count())
		if mallocs > run.ceiling {
			t.Errorf("run %d: %d mallocs for one 50 s DSB world, want <= %d (%s)", i+1, mallocs, run.ceiling, run.name)
		}
	}
}

// TestSettleRunsStragglersAndFindsLostRequests pins the conservation check's
// two sides: a request whose service time outlives the drain is run to
// completion without entering the recorder, and a request nothing will ever
// complete is an error, not a wait.
func TestSettleRunsStragglersAndFindsLostRequests(t *testing.T) {
	w := newWorld(1)
	if _, err := w.mesh.AddService(apiService); err != nil {
		t.Fatal(err)
	}
	served := 0
	profile := func(time.Duration, *sim.Rand) (time.Duration, bool) {
		if served++; served == 3 {
			return 5 * time.Minute, true // the straggler
		}
		return time.Millisecond, true
	}
	if _, err := w.mesh.AddBackend(apiService, apiService+"-cluster-2", "cluster-2", backend.Config{Concurrency: 8}, profile); err != nil {
		t.Fatal(err)
	}
	if err := w.mesh.SetPicker(apiService, balancer.NewRoundRobin()); err != nil {
		t.Fatal(err)
	}
	gen := w.directLoad("cluster-1", apiService, loadgen.Config{Rate: loadgen.ConstantRate(10)})
	w.engine.RunUntil(time.Second)
	gen.Stop()
	w.engine.RunUntil(31 * time.Second)
	recorded := gen.Recorder().Count()
	if gen.Issued() != gen.Completed()+1 {
		t.Fatalf("issued %d, completed %d after the drain: want exactly the straggler in flight",
			gen.Issued(), gen.Completed())
	}
	if err := w.settle(nil, gen); err != nil {
		t.Fatal(err)
	}
	if gen.Issued() != gen.Completed() || gen.Recorder().Count() != recorded {
		t.Fatalf("settle: issued %d, completed %d, recorded %d → %d; want all completed, none recorded",
			gen.Issued(), gen.Completed(), recorded, gen.Recorder().Count())
	}

	lost := loadgen.New(w.engine, loadgen.Config{Rate: loadgen.ConstantRate(10)},
		func(func(time.Duration, bool)) error { return nil })
	lost.Start()
	w.engine.RunUntil(w.engine.Now() + time.Second)
	lost.Stop()
	if err := w.settle(nil, lost); err == nil {
		t.Fatal("settle accepted requests that never complete")
	}
}
