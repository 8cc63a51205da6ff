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
