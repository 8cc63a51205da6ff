package mesh_test

import (
	"testing"
	"time"

	"l3/internal/backend"
	"l3/internal/balancer"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/smi"
	"l3/internal/wan"
)

// TestSteadyStateCallAllocationFree pins the fast path: once route handles
// and pools are warm, a full request lifecycle (pick, WAN out, serve, WAN
// back, metric recording, completion) performs zero heap allocations — under
// round-robin and under the TrafficSplit picker L3 and C3 steer through
// (which is why this file is an external test: balancer imports mesh).
func TestSteadyStateCallAllocationFree(t *testing.T) {
	pickers := map[string]func(m *mesh.Mesh) mesh.Picker{
		"round-robin": func(*mesh.Mesh) mesh.Picker { return balancer.NewRoundRobin() },
		"weighted-split": func(m *mesh.Mesh) mesh.Picker {
			return balancer.NewWeightedSplit(m.Splits(), sim.NewRand(2), nil)
		},
	}
	for name, picker := range pickers {
		t.Run(name, func(t *testing.T) {
			e := sim.NewEngine()
			m := mesh.New(e, sim.NewRand(1), wan.New(wan.DefaultConfig()), metrics.NewRegistry())
			if _, err := m.AddService("api"); err != nil {
				t.Fatal(err)
			}
			split := &smi.TrafficSplit{Name: "api", RootService: "api"}
			for _, cl := range []string{"cluster-1", "cluster-2"} {
				profile := func(time.Duration, *sim.Rand) (time.Duration, bool) { return time.Millisecond, true }
				if _, err := m.AddBackend("api", "api-"+cl, cl, backend.Config{}, profile); err != nil {
					t.Fatal(err)
				}
				split.Backends = append(split.Backends, smi.Backend{Service: "api-" + cl, Weight: 500})
			}
			if err := m.Splits().Create(split); err != nil {
				t.Fatal(err)
			}
			if err := m.SetPicker("api", picker(m)); err != nil {
				t.Fatal(err)
			}
			completed := 0
			onDone := func(mesh.Result) { completed++ }
			issue := func() {
				if err := m.Call("cluster-1", "api", onDone); err != nil {
					t.Fatal(err)
				}
				e.Run()
			}
			for i := 0; i < 8; i++ {
				issue() // warm route cache, series, pools and the event heap
			}
			allocs := testing.AllocsPerRun(200, issue)
			if allocs != 0 {
				t.Fatalf("steady-state Call allocates %.1f objects per request, want 0", allocs)
			}
			if completed == 0 {
				t.Fatal("no requests completed")
			}
		})
	}
}

// newBenchMesh builds the steady-state testbed the Call benchmarks share:
// three single-millisecond backends across three clusters behind one
// service, mirroring the scenario testbed's shape.
func newBenchMesh(b *testing.B, picker mesh.Picker) (*sim.Engine, *mesh.Mesh) {
	engine := sim.NewEngine()
	rng := sim.NewRand(1)
	wcfg := wan.DefaultConfig()
	wcfg.Seed = 1
	m := mesh.New(engine, rng.Fork(), wan.New(wcfg), metrics.NewRegistry())
	if _, err := m.AddService("api"); err != nil {
		b.Fatal(err)
	}
	profile := func(time.Duration, *sim.Rand) (time.Duration, bool) { return time.Millisecond, true }
	for _, c := range []string{"cluster-1", "cluster-2", "cluster-3"} {
		if _, err := m.AddBackend("api", "api-"+c, c, backend.Config{}, profile); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.SetPicker("api", picker); err != nil {
		b.Fatal(err)
	}
	return engine, m
}

// runMeshCalls drives b.N full request lifecycles (pick, WAN out, serve,
// WAN back, metric recording) through the engine, one outstanding request
// at a time — the steady-state unit of work every figure run repeats
// millions of times.
func runMeshCalls(b *testing.B, engine *sim.Engine, m *mesh.Mesh) {
	completed := 0
	onDone := func(mesh.Result) { completed++ } // hoisted: one closure for all requests
	issue := func() {
		if err := m.Call("cluster-1", "api", onDone); err != nil {
			b.Fatal(err)
		}
		engine.Run()
	}
	issue() // warm route caches and lazily-registered series
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		issue()
	}
	b.StopTimer()
	if completed != b.N+1 {
		b.Fatalf("completed %d of %d requests", completed, b.N+1)
	}
}

// BenchmarkMeshCall measures one full request through the data plane under
// the round-robin picker (no Observer feedback).
func BenchmarkMeshCall(b *testing.B) {
	engine, m := newBenchMesh(b, balancer.NewRoundRobin())
	runMeshCalls(b, engine, m)
}

// BenchmarkMeshCallP2C measures the same path under the P2C PeakEWMA picker,
// which additionally takes the Observer feedback branch on completion.
func BenchmarkMeshCallP2C(b *testing.B) {
	engine, m := newBenchMesh(b, balancer.NewP2C(sim.NewRand(2), 5*time.Second, time.Second))
	runMeshCalls(b, engine, m)
}
