package bench

import (
	"fmt"
	"runtime"
	"time"

	"l3/internal/backend"
	"l3/internal/balancer"
	"l3/internal/loadgen"
	"l3/internal/mesh"
	"l3/internal/sim"
	"l3/internal/wan"
)

// The shard-scaling workload (figure S1): a mesh wide enough that the
// sharded core has real parallelism to exploit. Eight clusters each host a
// replica of one service and each run their own load generator; per-shard
// round-robin pickers spray 7/8 of the traffic across the WAN, so every
// barrier exchanges a full mailbox of cross-shard messages. The WAN's 40 ms
// base RTT yields a 16 ms lookahead — wide windows with hundreds of events
// per shard between barriers.
const (
	shardFigClusters  = 8
	shardFigRPS       = 2000 // per cluster
	shardFigWarm      = 5 * time.Second
	shardFigMeasure   = 45 * time.Second
	shardFigDrain     = 10 * time.Second
	shardFigBaseRTT   = 40 * time.Millisecond
	shardFigLatFloor  = 20 * time.Millisecond
	shardFigLatSpread = 60 * time.Millisecond
)

// shardFigRun holds what one execution of the workload yields: the merged
// recorder (simulated results — identical for every worker count) and the
// engine's self-accounting.
type shardFigRun struct {
	rec       *loadgen.Recorder
	stats     sim.ShardStats
	lookahead time.Duration
}

// perSourceRR keeps one RoundRobin rotation per source cluster. A sharded
// timeline only ever sees its own cluster, so there it is a plain
// round-robin; the classic engine's single picker serves all eight sources
// and needs the split to route like the shards do. With it the classic and
// sharded executions of the scaling workload are the same simulation — same
// routing, same WAN hash delays, same backend rng streams — and differ only
// in the two cores' machinery.
type perSourceRR struct {
	by map[string]mesh.Picker
}

func (p *perSourceRR) Pick(now time.Duration, src, svc string, bs []*mesh.Backend) *mesh.Backend {
	rr := p.by[src]
	if rr == nil {
		rr = balancer.NewRoundRobin()
		p.by[src] = rr
	}
	return rr.Pick(now, src, svc, bs)
}

// runShardWorkload executes the scaling workload: workers ≥ 1 on the sharded
// core with that worker-pool size, 0 on the classic single-loop engine.
// Everything observable in the return value but the engine accounting is
// byte-identical for any workers; only wall-clock differs.
func runShardWorkload(workers int, seed uint64) (*shardFigRun, error) {
	clusters := make([]string, shardFigClusters)
	for i := range clusters {
		clusters[i] = fmt.Sprintf("cluster-%d", i+1)
	}
	wcfg := wan.DefaultConfig()
	wcfg.BaseRTT = shardFigBaseRTT
	w, err := newWorld(clusters, seed, wcfg, Options{Shards: workers})
	if err != nil {
		return nil, err
	}
	m := w.mesh
	if _, err := m.AddService(apiService); err != nil {
		return nil, err
	}
	for _, cl := range clusters {
		profile := func(_ time.Duration, r *sim.Rand) (time.Duration, bool) {
			return shardFigLatFloor + time.Duration(r.Float64()*float64(shardFigLatSpread)), true
		}
		// 2000 RPS at ~50 ms mean needs ~100 slots; 160 keeps utilisation
		// near 60 % so the figure reflects the network, not queueing.
		if _, err := m.AddBackend(apiService, apiService+"-"+cl, cl,
			backend.Config{Concurrency: 160}, profile); err != nil {
			return nil, err
		}
	}
	if err := w.setPickers(apiService, nil, func(*sim.Rand) mesh.Picker {
		return &perSourceRR{by: make(map[string]mesh.Picker)}
	}); err != nil {
		return nil, err
	}

	gens := make([]*loadgen.Generator, len(clusters))
	for i, cl := range clusters {
		gens[i], err = w.directLoad(cl, apiService, loadgen.Config{
			Rate:   loadgen.ConstantRate(shardFigRPS),
			WarmUp: shardFigWarm,
		})
		if err != nil {
			return nil, err
		}
	}

	w.runUntil(shardFigWarm + shardFigMeasure)
	for _, g := range gens {
		g.Stop()
	}
	w.runUntil(shardFigWarm + shardFigMeasure + shardFigDrain)

	recs := make([]*loadgen.Recorder, len(gens))
	for i, g := range gens {
		recs[i] = g.Recorder()
	}
	return &shardFigRun{rec: mergeRecorders(recs), stats: w.stats(), lookahead: w.lookahead}, w.settle(nil, gens...)
}

// FigS1 renders the sharded-core figure: the scaling workload's simulated
// results plus the engine's window/event accounting. Every number on stdout
// is a simulation fact, so the figure is byte-identical for any -shards
// value; wall-clock never reaches stdout, the determinism discipline of
// every other figure.
func FigS1(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	workers := opts.Shards
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	run, err := runShardWorkload(workers, opts.Seed)
	if err != nil {
		return nil, err
	}
	r := &Result{ID: "S1", Title: "Sharded deterministic core: 8-cluster scaling workload"}
	r.AddRow("Requests", float64(run.rec.Count()), "", NoPaper)
	r.AddRow("Success rate", run.rec.SuccessRate()*100, "%", NoPaper)
	r.AddRow("P50 latency", msOf(run.rec.Quantile(0.5)), "ms", NoPaper)
	r.AddRow("P99 latency", msOf(run.rec.Quantile(0.99)), "ms", NoPaper)
	r.AddRow("Lookahead windows", float64(run.stats.Windows), "", NoPaper)
	r.AddRow("Empty windows (no mailbox drain)", float64(run.stats.EmptyWindows), "", NoPaper)
	r.AddRow("Events fired", float64(run.stats.Events), "", NoPaper)
	r.AddRow("Cross-shard messages", float64(run.stats.CrossSends), "", NoPaper)
	r.Note("8 clusters x %d RPS, %v measured; one shard per cluster, %v lookahead",
		shardFigRPS, shardFigMeasure, run.lookahead)
	r.Note("stdout is identical for every -shards value")
	return r, nil
}
