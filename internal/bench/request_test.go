package bench

import (
	"runtime"
	"testing"
	"time"

	"l3/internal/backend"
	"l3/internal/balancer"
	"l3/internal/loadgen"
	"l3/internal/mesh"
	"l3/internal/sim"
	"l3/internal/smi"
	"l3/internal/trace"
	"l3/internal/wan"
)

// TestOpenLoopRequestAllocationFree pins the whole simulated request, not
// only mesh.Call: generator arrival → relay → picker → Proxy.Call → WAN →
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
			w, err := newWorld(clusters, 1, wan.DefaultConfig(), Options{})
			if err != nil {
				t.Fatal(err)
			}
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
			gen, err := w.directLoad(sourceCluster, apiService, loadgen.Config{Rate: loadgen.ConstantRate(float64(time.Second / gap))})
			if err != nil {
				t.Fatal(err)
			}
			// Warm pools, route handles and the event heap, and stop inside a
			// recorder bucket: the recorder opens one histogram per second of
			// virtual time, which is per bucket, not per request.
			now := time.Second + 50*gap
			w.runUntil(now)
			before := gen.Completed()
			allocs := testing.AllocsPerRun(400, func() {
				now += gap
				w.runUntil(now)
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

// TestScenarioMallocsPerRequest guards the number the repo benchmark reports
// as sim_trace allocs_per_op: everything a scenario run allocates — set-up,
// trace, control rounds, recorder buckets — per recorded request, for each
// algorithm of the Figure 10 grid. A fetch or a closure per request is ≥ 1.
func TestScenarioMallocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("process-wide allocation counts are not meaningful under -race")
	}
	for _, algo := range []Algorithm{AlgoRoundRobin, AlgoC3, AlgoL3} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := RunScenario(trace.Scenario1, algo, Options{Seed: 1, Parallel: 1, Duration: 4 * time.Minute})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perRequest := float64(after.Mallocs-before.Mallocs) / float64(rec.Count())
		t.Logf("%v: %.3f mallocs per recorded request over %d requests", algo, perRequest, rec.Count())
		if perRequest >= 0.25 {
			t.Errorf("%v: %.3f mallocs per recorded request, want < 0.25", algo, perRequest)
		}
	}
}

// TestDSBRunMallocs guards the number the repo benchmark reports as sim_dsb
// allocs_per_op without running it: one world of its shape (L3, 200 rps, 30 s
// of warm-up and 20 measured) is 6 909 series met for the first time and ten
// control rounds over them. The ceiling is the measured count (34 400) plus
// 5 %: it holds while the stores keep the label map they are handed, a new
// series is one allocation and a split write one new version; a store that
// copies each series' map again, or each split it hands out, exceeds it.
func TestDSBRunMallocs(t *testing.T) {
	if raceEnabled {
		t.Skip("process-wide allocation counts are not meaningful under -race")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, err := RunDSB(AlgoL3, 200, 20*time.Second, Options{Seed: 1, Parallel: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("%d mallocs for one 50 s DSB world, %d recorded requests", mallocs, rec.Count())
	if mallocs > 36120 {
		t.Errorf("%d mallocs for one 50 s DSB world, want <= 36 120", mallocs)
	}
}

// TestSettleRunsStragglersAndFindsLostRequests pins the conservation check's
// two sides: a request whose service time outlives the drain is run to
// completion without entering the recorder, and a request nothing will ever
// complete is an error, not a wait.
func TestSettleRunsStragglersAndFindsLostRequests(t *testing.T) {
	for _, shards := range []int{0, 2} {
		w, err := newWorld([]string{"cluster-1", "cluster-2"}, 1, wan.DefaultConfig(), Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
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
		if err := w.setPickers(apiService, nil, func(*sim.Rand) mesh.Picker { return balancer.NewRoundRobin() }); err != nil {
			t.Fatal(err)
		}
		gen, err := w.directLoad("cluster-1", apiService, loadgen.Config{Rate: loadgen.ConstantRate(10)})
		if err != nil {
			t.Fatal(err)
		}
		w.runUntil(time.Second)
		gen.Stop()
		w.runUntil(31 * time.Second)
		recorded := gen.Recorder().Count()
		if gen.Issued() != gen.Completed()+1 {
			t.Fatalf("shards=%d: issued %d, completed %d after the drain: want exactly the straggler in flight",
				shards, gen.Issued(), gen.Completed())
		}
		if err := w.settle(gen); err != nil {
			t.Fatal(err)
		}
		if gen.Issued() != gen.Completed() || gen.Recorder().Count() != recorded {
			t.Fatalf("shards=%d: settle: issued %d, completed %d, recorded %d → %d; want all completed, none recorded",
				shards, gen.Issued(), gen.Completed(), recorded, gen.Recorder().Count())
		}

		lost := loadgen.New(w.ctrl, loadgen.Config{Rate: loadgen.ConstantRate(10)},
			func(func(time.Duration, bool)) error { return nil })
		lost.Start()
		w.runUntil(w.ctrl.Now() + time.Second)
		lost.Stop()
		if err := w.settle(lost); err == nil {
			t.Fatalf("shards=%d: settle accepted requests that never complete", shards)
		}
	}
}
