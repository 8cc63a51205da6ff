package bench

import (
	"reflect"
	"testing"
	"time"

	"l3/internal/backend"
	"l3/internal/chaos"
	"l3/internal/cluster"
	"l3/internal/dsb"
	"l3/internal/guard"
	"l3/internal/loadgen"
	"l3/internal/sim"
	"l3/internal/smi"
)

// TestDeliveredSplitsNeverChange is the guard rail of the split store's
// contract: a stored TrafficSplit is one immutable version that the store,
// its watchers, the pickers and the controllers share, so nothing may change
// it. A short world runs with the guard, the watchdog and leader-elected
// controllers, and a chaos schedule kills every controller instance for
// longer than the watchdog's TTL, so the watchdog degrades every split before
// the instances come back. A watcher records every version the store
// delivers, a sampler every version Get returns, each beside a deep copy; at
// the end each must still equal its copy.
func TestDeliveredSplitsNeverChange(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(*testing.T, *world, []string, Options) (*algoHandles, string)
	}{
		{"dsb", buildDSBWorld},
		{"api", buildAPIWorld},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := Options{Seed: 1, Guard: true, LeaderElection: true}.withDefaults()
			clusters := []string{"cluster-1", "cluster-2", "cluster-3"}
			w := newWorld(1)
			handles, entry := c.build(t, w, clusters, opts)
			store := w.mesh.Splits()

			var held, copies []*smi.TrafficSplit
			record := func(ts *smi.TrafficSplit) {
				held = append(held, ts)
				copies = append(copies, ts.Clone())
			}
			writes := 0
			store.Watch(true, func(e cluster.Event[*smi.TrafficSplit]) {
				record(e.Object)
				if e.Type == cluster.Updated {
					writes++
				}
			})
			w.engine.Every(time.Second, func() {
				for _, ts := range store.List() {
					if got, ok := store.Get(ts.Name); ok {
						record(got)
					}
				}
			})

			// Every instance dies at 30 s, the last round's observation with
			// it; the watchdog, ticking every 10 s with a 30 s TTL, degrades
			// the splits by 70 s, and the instances return at 80 s.
			var sched chaos.Schedule
			for id := range handles.leaders {
				sched.Events = append(sched.Events, chaos.Event{Kind: chaos.LeaderKill, At: 30 * time.Second, Duration: 50 * time.Second, Target: id})
			}
			if err := chaos.New(w.engine, sched, chaos.Targets{Leaders: handles.leaders}, 0).Start(); err != nil {
				t.Fatal(err)
			}
			gen := w.directLoad(sourceCluster, entry, loadgen.Config{Rate: loadgen.ConstantRate(100)})
			w.engine.RunUntil(2 * time.Minute)
			gen.Stop()
			if err := w.settle(handles, gen); err != nil {
				t.Fatal(err)
			}

			if n := w.mesh.Registry().Counter(guard.MetricWatchdogDegradesTotal, nil).Value(); n == 0 {
				t.Fatal("the watchdog never degraded: the schedule no longer exercises its write")
			}
			if writes < store.Len() {
				t.Fatalf("%d split writes over %d splits: the controllers never wrote", writes, store.Len())
			}
			for i := range held {
				if !reflect.DeepEqual(held[i], copies[i]) {
					t.Fatalf("a version of %s changed after it was handed out: %v, was %v", held[i].Name, held[i], copies[i])
				}
			}
			t.Logf("%d versions delivered or read over %d writes to %d splits, all unchanged", len(held), writes, store.Len())
		})
	}
}

// buildDSBWorld installs Figure 9's hotel-reservation application with one
// L3 per cluster, as RunDSB does.
func buildDSBWorld(t *testing.T, w *world, clusters []string, opts Options) (*algoHandles, string) {
	app, err := dsb.InstallHotelReservation(w.mesh, clusters, w.rng.Fork(), dsb.WithPerfVariation())
	if err != nil {
		t.Fatal(err)
	}
	if err := app.CreateSplits(); err != nil {
		t.Fatal(err)
	}
	handles, err := installAlgorithm(w, AlgoL3, opts, app.Services(), dsb.SplitName, perClusterControllers(clusters))
	if err != nil {
		t.Fatal(err)
	}
	return handles, dsb.EntryService
}

// buildAPIWorld installs one service with a backend per cluster, the third
// one slow, under one global L3.
func buildAPIWorld(t *testing.T, w *world, clusters []string, opts Options) (*algoHandles, string) {
	if _, err := w.mesh.AddService(apiService); err != nil {
		t.Fatal(err)
	}
	split := &smi.TrafficSplit{Name: apiService, RootService: apiService}
	for i, cl := range clusters {
		mean := time.Duration(5*(1+2*(i/2))) * time.Millisecond
		profile := func(_ time.Duration, r *sim.Rand) (time.Duration, bool) {
			return mean/2 + time.Duration(r.IntN(int(mean))), true
		}
		if _, err := w.mesh.AddBackend(apiService, apiService+"-"+cl, cl, backend.Config{Concurrency: 64}, profile); err != nil {
			t.Fatal(err)
		}
		split.Backends = append(split.Backends, smi.Backend{Service: apiService + "-" + cl, Weight: 500})
	}
	if err := w.mesh.Splits().Create(split); err != nil {
		t.Fatal(err)
	}
	handles, err := installAlgorithm(w, AlgoL3, opts, []string{apiService}, nil, globalController())
	if err != nil {
		t.Fatal(err)
	}
	return handles, apiService
}
