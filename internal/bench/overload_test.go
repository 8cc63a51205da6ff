package bench

import (
	"testing"
	"time"

	"l3/internal/overload"
	"l3/internal/resilience"
)

// quickOverloadOptions is the O-figures' quick preset — the same settings
// the l3bench golden entries run, so passing here means the golden output
// embodies the claims.
func quickOverloadOptions() Options {
	return Options{Seed: 42, Reps: 1, WarmUp: 30 * time.Second, Duration: 2 * time.Minute}
}

// findRow fetches a row's value from a figure by exact label.
func findRow(t *testing.T, r *Result, label string) float64 {
	t.Helper()
	for _, row := range r.Rows {
		if row.Label == label {
			return row.Value
		}
	}
	t.Fatalf("figure %s has no row %q", r.ID, label)
	return 0
}

// TestFigO1Thresholds pins the tentpole claim: under the same retry-storm
// fault, the uncontrolled client loses most of its baseline goodput for
// good, while the admission-controlled client sheds through the fault and
// retains it — with the admission queue's delay bounded.
func TestFigO1Thresholds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute simulated scenario; skipped in -short")
	}
	r, err := FigO1(quickOverloadOptions())
	if err != nil {
		t.Fatalf("FigO1: %v", err)
	}
	uncontrolled := findRow(t, r, "uncontrolled goodput retention")
	controlled := findRow(t, r, "limiter+codel goodput retention")
	if uncontrolled > 50 {
		t.Errorf("uncontrolled arm retained %.1f%% of baseline goodput post-heal; expected a metastable collapse (≤50%%)", uncontrolled)
	}
	if controlled < 90 {
		t.Errorf("limiter+codel arm retained %.1f%% of baseline goodput post-heal; want ≥90%%", controlled)
	}
	ctrlP99 := findRow(t, r, "limiter+codel post-heal P99")
	unctrlP99 := findRow(t, r, "uncontrolled post-heal P99")
	if ctrlP99 >= unctrlP99 {
		t.Errorf("controlled post-heal P99 %.0fms not below uncontrolled %.0fms", ctrlP99, unctrlP99)
	}
	if ctrlP99 > 1000 {
		t.Errorf("controlled post-heal P99 %.0fms; want bounded under 1s once the limiter regrows", ctrlP99)
	}
	// The controlled arm's rejections happen at the client: the admission
	// queue must have both shed and kept its delay bounded (well under the
	// 2s deadline the uncontrolled arm rides to).
	if shed := findRow(t, r, "limiter+codel shed"); shed <= 0 {
		t.Errorf("limiter+codel arm shed nothing under a 10x saturation fault")
	}
	if maxDelay := findRow(t, r, "limiter+codel max queue delay"); maxDelay > 2000 {
		t.Errorf("admission queue delay peaked at %.0fms; want bounded below the 2s deadline", maxDelay)
	}
}

// TestFigO2Thresholds pins the criticality claim: the flash crowd is
// absorbed by the sheddable tier in strict tier order, and the critical
// tier's SLO stays intact while the uncontrolled arm collapses across all
// tiers.
func TestFigO2Thresholds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute simulated scenario; skipped in -short")
	}
	r, err := FigO2(quickOverloadOptions())
	if err != nil {
		t.Fatalf("FigO2: %v", err)
	}
	shedCrit := findRow(t, r, "tiered shedding critical shed")
	shedDef := findRow(t, r, "tiered shedding default shed")
	shedShed := findRow(t, r, "tiered shedding sheddable shed")
	if !(shedShed > shedDef && shedDef > shedCrit) {
		t.Errorf("shed counts not strictly tier-ordered: sheddable %.0f, default %.0f, critical %.0f", shedShed, shedDef, shedCrit)
	}
	critViol := findRow(t, r, "tiered shedding critical SLO violation")
	if critViol > 2 {
		t.Errorf("critical tier violated its SLO for %.1fs under tiered shedding; want ≈0", critViol)
	}
	// Without control the flash must actually hurt the critical tier —
	// otherwise the figure proves nothing.
	unctrlCrit := findRow(t, r, "no control critical SLO violation")
	if unctrlCrit < 10 {
		t.Errorf("no-control critical SLO violation only %.1fs; the flash crowd is not overloading the testbed", unctrlCrit)
	}
	if readmits := findRow(t, r, "tiered shedding tier re-admits"); readmits <= 0 {
		t.Errorf("gate never re-admitted a tier; hysteresis path untested by the figure")
	}
}

// TestOverloadOptionValidation pins the wiring contract: a tier mix without
// a policy is a configuration error.
func TestOverloadOptionValidation(t *testing.T) {
	sc, _, _ := flashCrowdScenario(time.Minute)
	opts := Options{Reps: 1, WarmUp: time.Second, Duration: time.Second, OverloadTierMix: []int{0}}
	if _, err := sweep(1, cell{trace: sc, algo: AlgoRoundRobin, opts: opts}); err == nil {
		t.Fatalf("OverloadTierMix without Overload accepted; want an error")
	}
}

// TestOverloadShardedMatchesClassic pins the mode-independence contract
// extended to the admission layer: an overload-controlled run produces
// byte-identical recorders on the classic and sharded cores.
func TestOverloadShardedMatchesClassic(t *testing.T) {
	sc, _, _ := flashCrowdScenario(30 * time.Second)
	base := Options{
		Seed: 7, Reps: 1, WarmUp: 5 * time.Second, Duration: 30 * time.Second,
		Concurrency: 4, QueueCapacity: 32,
		Overload:        figO2OverloadPolicy(),
		OverloadTierMix: []int{overload.TierCritical, overload.TierDefault, overload.TierSheddable},
		Resilience:      &resilience.Policy{Deadline: 500 * time.Millisecond},
	}
	sharded := base
	sharded.Shards = 2
	out, err := sweep(base.Parallel,
		cell{trace: sc, algo: AlgoRoundRobin, opts: base},
		cell{trace: sc, algo: AlgoRoundRobin, opts: sharded})
	if err != nil {
		t.Fatal(err)
	}
	classic, shardedOut := out[0], out[1]
	if got, want := shardedOut.rec.String(), classic.rec.String(); got != want {
		t.Errorf("sharded recorder diverged from classic:\nclassic: %s\nsharded: %s", want, got)
	}
	admitted := overload.MetricAdmittedTotal
	if shardedOut.total(admitted) != classic.total(admitted) || shardedOut.shed != classic.shed {
		t.Errorf("admission counters diverged: classic admitted %.0f shed %v, sharded admitted %.0f shed %v",
			classic.total(admitted), classic.shed, shardedOut.total(admitted), shardedOut.shed)
	}
	for tier := range classic.tiers {
		if got, want := shardedOut.tiers[tier].String(), classic.tiers[tier].String(); got != want {
			t.Errorf("tier %d recorder diverged:\nclassic: %s\nsharded: %s", tier, want, got)
		}
	}
}
