package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"l3/internal/backend"
	"l3/internal/balancer"
	"l3/internal/bench"
	"l3/internal/guard"
	"l3/internal/histogram"
	"l3/internal/loadgen"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/overload"
	"l3/internal/serve"
	"l3/internal/sim"
	"l3/internal/smi"
	"l3/internal/timeseries"
	"l3/internal/trace"
	"l3/internal/wan"
)

// A rig times one layer's public entry point in isolation, a fixed number
// of calls after one untimed call. Rig numbers are estimates of what the
// layer costs inside a workload; they exist because the simulator's worlds
// are wired inside internal/bench, where the benchmark has no seam.

// perCall runs fn n times after one warm-up call and returns the mean
// nanoseconds per call.
func perCall(n int, fn func()) float64 {
	fn()
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// mallocsPerCall is testing.AllocsPerRun without the testing package.
func mallocsPerCall(n int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// microRigs measures the layers whose cost per call does not depend on the
// workload's size. Every traced run reports them, so a change to one of
// these layers shows on every workload's ledger, including the ones where
// the prediction is "no end-to-end change".
func microRigs(small bool) (map[string]float64, error) {
	n := 100000
	if small {
		n = 500
	}
	out := make(map[string]float64)

	// sim: one Schedule and the Step that fires it.
	engine := sim.NewEngine()
	nop := func() {}
	out["sim.schedule_ns"] = perCall(n, func() {
		engine.ScheduleAfter(time.Millisecond, nop)
		engine.Step()
	})

	// mesh: one whole request (pick, WAN out, serve, WAN back, record) on a
	// three-cluster mesh, one request outstanding at a time — under the
	// round-robin picker, and under the TrafficSplit-weighted picker every
	// L3 and C3 run uses (which reads the split from the store per pick).
	for _, rig := range []struct {
		metric string
		split  bool
	}{{"mesh.call_ns", false}, {"mesh.call_split_ns", true}} {
		meshEngine := sim.NewEngine()
		rng := sim.NewRand(1)
		wcfg := wan.DefaultConfig()
		wcfg.Seed = 1
		m := mesh.New(meshEngine, rng.Fork(), wan.New(wcfg), metrics.NewRegistry())
		if _, err := m.AddService("api"); err != nil {
			return nil, err
		}
		profile := func(time.Duration, *sim.Rand) (time.Duration, bool) { return time.Millisecond, true }
		ts := &smi.TrafficSplit{Name: "api", RootService: "api"}
		for _, c := range []string{"cluster-1", "cluster-2", "cluster-3"} {
			if _, err := m.AddBackend("api", "api-"+c, c, backend.Config{}, profile); err != nil {
				return nil, err
			}
			ts.Backends = append(ts.Backends, smi.Backend{Service: "api-" + c, Weight: 500})
		}
		if err := m.Splits().Create(ts); err != nil {
			return nil, err
		}
		var picker mesh.Picker = balancer.NewRoundRobin()
		if rig.split {
			picker = balancer.NewWeightedSplit(m.Splits(), rng.Fork(), nil)
		}
		if err := m.SetPicker("api", picker); err != nil {
			return nil, err
		}
		var callErr error
		onDone := func(mesh.Result) {}
		call := func() {
			if err := m.Call("cluster-1", "api", onDone); err != nil {
				callErr = err
			}
			meshEngine.Run()
		}
		out[rig.metric] = perCall(n, call)
		if !rig.split {
			out["mesh.call_allocs"] = mallocsPerCall(n/10+1, call)
		}
		if callErr != nil {
			return nil, fmt.Errorf("mesh rig: %w", callErr)
		}
	}

	// loadgen: one open-loop arrival — the rate function, the next gap, the
	// arrival's event, the recorder — around an issue that completes at once.
	genEngine := sim.NewEngine()
	gen := loadgen.New(genEngine, loadgen.Config{Rate: loadgen.ConstantRate(1000)},
		func(done func(time.Duration, bool)) error {
			done(time.Millisecond, true)
			return nil
		})
	gen.Start()
	genStart := time.Now()
	genEngine.RunUntil(time.Duration(n) * time.Millisecond)
	gen.Stop()
	if issued := gen.Issued(); issued > 0 {
		out["loadgen.request_ns"] = float64(time.Since(genStart).Nanoseconds()) / float64(issued)
	}

	// metrics: what one response records through resolved handles.
	reg := metrics.NewRegistry()
	labels := metrics.Labels{"service": "api", "backend": "api-cluster-1", "src": "cluster-1", "classification": mesh.ClassSuccess}
	counter := reg.Counter(mesh.MetricResponseTotal, labels)
	hist := reg.Histogram(mesh.MetricResponseLatency, labels, histogram.LinkerdLatencyBounds)
	out["metrics.record_ns"] = perCall(n, func() {
		counter.Inc()
		hist.Observe(0.0123)
	})

	// guard: the hygiene gate on one sample of an advancing counter.
	hyg := guard.NewHygiene(guard.Config{}, nil)
	var t time.Duration
	var v float64
	out["guard.admit_ns"] = perCall(n, func() {
		t += time.Second
		v++
		hyg.Admit(mesh.MetricResponseTotal, labels, metrics.KindCounter, t, v)
	})

	// guard: the write gate on one three-backend split whose weights move.
	gate := guard.NewWriteGate(guard.Config{}, nil)
	ts := &smi.TrafficSplit{Name: "api", RootService: "api", Backends: []smi.Backend{
		{Service: "a", Weight: 334}, {Service: "b", Weight: 333}, {Service: "c", Weight: 333}}}
	weights := map[string]float64{"a": 1, "b": 1, "c": 1}
	flip := 0.0
	out["guard.gate_us"] = perCall(n/10+1, func() {
		flip = 1 - flip
		weights["a"] = 1 + flip
		gate.Guard(0, ts, weights)
	}) / 1e3

	// serve: the router's weighted pick and a backend's outcome record, on
	// a server that is built and never started.
	cfg := serve.DefaultConfig()
	for _, name := range []string{"a", "b", "c"} {
		cfg.Backends = append(cfg.Backends, serve.BackendConfig{Name: name, URL: "http://127.0.0.1:1"})
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, fmt.Errorf("serve rig: %w", err)
	}
	router := srv.Router()
	var picked *serve.Backend
	out["serve.pick_ns"] = perCall(n, func() { picked = router.Pick(time.Second) })
	out["serve.record_ns"] = perCall(n, func() { picked.Record(time.Second, 3*time.Millisecond, true) })
	out["serve.layer_allocs_per_op"] = serve.MeasureProxyLayerAllocs()

	// overload: Admit and Release on the no-shed fast path.
	pol, err := overload.ParsePolicy("limit=64,target=20ms,qcap=32")
	if err != nil {
		return nil, fmt.Errorf("overload rig: %w", err)
	}
	adm := overload.NewWallAdmitter(pol, 3, time.Now())
	ctx := context.Background()
	out["overload.admit_ns"] = perCall(n, func() {
		if adm.Admit(ctx, time.Now(), overload.TierDefault) == overload.Admitted {
			adm.Release()
		}
	})

	// trace: the backend model's draw per request in the trace scenarios —
	// a log-normal latency from the scenario's median and P99 at that
	// instant, and a success coin.
	sc, err := trace.Generate(trace.Scenario1, 1)
	if err != nil {
		return nil, fmt.Errorf("trace rig: %w", err)
	}
	ct, draw := &sc.Clusters[0], sim.NewRand(2)
	var at time.Duration
	out["trace.sample_ns"] = perCall(n, func() {
		at += time.Millisecond
		ct.SampleLatency(at, draw)
		ct.SampleSuccess(at, draw)
	})

	// trace and bench: what every simulated run pays before its first
	// request — generating the scenario, then building the world and
	// draining it (a run of almost no simulated time).
	reps := 20
	if small {
		reps = 2
	}
	var genErr error
	out["trace.generate_ms"] = perCall(reps, func() {
		if _, err := trace.Generate(trace.Scenario1, 1); err != nil {
			genErr = err
		}
	}) / 1e6
	out["bench.run_fixed_ms"] = perCall(reps, func() {
		_, err := bench.RunScenario(trace.Scenario1, bench.AlgoL3,
			bench.Options{Seed: 1, Parallel: 1, WarmUp: time.Millisecond, Duration: time.Millisecond})
		if err != nil {
			genErr = err
		}
	}) / 1e6
	if genErr != nil {
		return nil, fmt.Errorf("trace rig: %w", genErr)
	}
	return out, nil
}

// registryRig times the exposition path over a registry in the state a
// workload left it: snapshot, text exposition, parse.
func registryRig(reg *metrics.Registry, reps int) (map[string]float64, []metrics.Sample, error) {
	out := make(map[string]float64)
	var buf []metrics.Sample
	out["metrics.snapshot_us"] = perCall(reps, func() { buf = reg.SnapshotAppend(buf[:0]) }) / 1e3
	var text bytes.Buffer
	var err error
	out["metrics.expose_us"] = perCall(reps, func() {
		text.Reset()
		if e := reg.WritePrometheus(&text); e != nil {
			err = e
		}
	}) / 1e3
	out["metrics.expose_bytes"] = float64(text.Len())
	var samples []metrics.Sample
	out["metrics.parse_us"] = perCall(reps, func() {
		s, e := metrics.ParseExposition(bytes.NewReader(text.Bytes()))
		if e != nil {
			err = e
		}
		samples = s
	}) / 1e3
	if err != nil {
		return nil, nil, fmt.Errorf("registry rig: %w", err)
	}
	return out, samples, nil
}

// tsdbRig times the collector's queries against a database in the state a
// workload left it, and one more scrape pass appended to it.
func tsdbRig(db *timeseries.DB, samples []metrics.Sample, at, window time.Duration, match metrics.Labels, backends []string, reps int) map[string]float64 {
	out := map[string]float64{"timeseries.series": float64(db.SeriesCount())}
	if len(backends) == 0 {
		return out
	}
	i := 0
	next := func() metrics.Labels {
		l := match.With("backend", backends[i%len(backends)])
		i++
		return l
	}
	out["timeseries.rate_us"] = perCall(reps, func() {
		db.Rate(mesh.MetricResponseTotal, next(), at, window)
	}) / 1e3
	out["timeseries.quantile_us"] = perCall(reps, func() {
		db.HistogramQuantile(0.99, mesh.MetricResponseLatency, next().With("classification", mesh.ClassSuccess), at, window)
	}) / 1e3
	if len(samples) > 0 {
		// Appends last: they move the database past `at`.
		t := at
		pass := perCall(3, func() {
			t += time.Millisecond
			for _, s := range samples {
				db.AppendSample(s.Name, s.Labels, s.Kind, t, s.Value)
			}
		})
		out["timeseries.append_us"] = pass / float64(len(samples)) / 1e3
	}
	return out
}
