package bench

import (
	"testing"
	"time"

	"l3/internal/chaos"
	"l3/internal/health"
	"l3/internal/trace"
)

// chaosQuick shrinks the measured window like quick(); the partition then
// lands at 48 s and heals at 72 s of a 2-minute measurement.
func chaosQuick() Options {
	return Options{Seed: 1, WarmUp: 30 * time.Second, Duration: 2 * time.Minute}
}

func partitionQuick() *chaos.Schedule {
	return &chaos.Schedule{Events: []chaos.Event{{
		Kind: chaos.Partition, At: 48 * time.Second, Duration: 24 * time.Second,
		From: sourceCluster, To: "cluster-2",
	}}}
}

// partitionRuns sweeps scenario-1 under the quick partition, one record per
// algorithm.
func partitionRuns(t *testing.T, algos ...Algorithm) []*record {
	t.Helper()
	opts := chaosQuick()
	opts.Chaos = partitionQuick()
	out, err := sweep(opts.Parallel, algoCells(trace.Scenario1, opts, algos)...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestChaosPartitionDipsAndRecovers(t *testing.T) {
	rep := partitionRuns(t, AlgoL3)[0].report
	if rep.Trough >= chaosSLOThreshold {
		t.Fatalf("trough = %v, partition of 1/3 of capacity should dip below the SLO", rep.Trough)
	}
	if !rep.Recovered {
		t.Fatal("L3 never recovered from the partition")
	}
	if rep.SLOViolation <= 0 {
		t.Fatal("no SLO violation recorded despite the dip")
	}
	if !rep.ReconvergeOK {
		t.Fatal("weights never reconverged after the heal")
	}
}

// TestChaosRecoveryOrdering is the figure's acceptance criterion: L3's
// symptom-driven reweighting must beat health-check failover's
// probe-threshold reaction, and both must beat round-robin (which only
// "recovers" when the partition heals underneath it).
func TestChaosRecoveryOrdering(t *testing.T) {
	out := partitionRuns(t, AlgoL3, AlgoFailover, AlgoRoundRobin)
	l3, fo, rr := out[0].report, out[1].report, out[2].report

	if !l3.Recovered {
		t.Fatal("L3 did not recover")
	}
	if !fo.Recovered {
		t.Fatal("failover did not recover")
	}
	if l3.TimeToRecover >= fo.TimeToRecover {
		t.Fatalf("L3 time-to-recover %v not below failover's %v",
			l3.TimeToRecover, fo.TimeToRecover)
	}
	if l3.SLOViolation >= rr.SLOViolation {
		t.Fatalf("L3 SLO violation %v not below round-robin's %v",
			l3.SLOViolation, rr.SLOViolation)
	}
	if out[1].total(health.MetricEjectionsTotal) == 0 {
		t.Fatal("health checker never ejected the partitioned backend")
	}
}

// TestChaosDeterministicAcrossParallelism pins the tentpole's determinism
// guarantee: the same seed and schedule must render byte-identical figure
// output at any -parallel value.
func TestChaosDeterministicAcrossParallelism(t *testing.T) {
	render := func(parallel int) string {
		opts := chaosQuick()
		opts.Reps = 2
		opts.Parallel = parallel
		r, err := FigC1(opts)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render() + r.CSV()
	}
	serial := render(1)
	fanned := render(4)
	if serial != fanned {
		t.Fatalf("figC1 output differs between -parallel 1 and 4:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, fanned)
	}
}

func TestFigC2LeaderKillTransparency(t *testing.T) {
	r, err := FigC2(chaosQuick())
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]float64, len(r.Rows))
	for _, row := range r.Rows {
		rows[row.Label] = row.Value
	}
	gap := rows["failover gap"]
	// The standby acquires after the 15 s lease TTL and writes on its next
	// 5 s reconcile tick; well under that means the kill did nothing,
	// far over means failover never happened.
	if gap < 10 || gap > 40 {
		t.Fatalf("failover gap = %v s, want within lease-TTL failover band [10, 40]", gap)
	}
	// Transparency: the data plane rides out the gap on stale weights.
	if base, killed := rows["baseline success"], rows["leader-killed success"]; killed < base-1 {
		t.Fatalf("leader kill dented success: %v%% vs baseline %v%%", killed, base)
	}
}

func TestFigChaosCustomLeaderKill(t *testing.T) {
	sched, err := chaos.ParseSchedule("leaderkill@48s+24s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := FigChaosCustom(trace.Scenario1, sched, chaosQuick())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range r.Rows {
		if row.Label == "L3 failover gap" && row.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no positive L3 failover gap row in:\n%s", r.Render())
	}
}
