package metrics_test

import (
	"testing"
	"time"

	"l3/internal/bench"
	"l3/internal/metrics"
)

// TestDescriptorsStillSpellTheirKeys runs a DSB world and a Figure 10 grid,
// two worlds at a time, then audits the process-wide descriptor table: every
// label map and template the registries of all those worlds shared must
// still spell the key it was filed under. A reader that wrote into a shared
// map would show here; so must the one this test writes into on purpose.
func TestDescriptorsStillSpellTheirKeys(t *testing.T) {
	opts := bench.Options{Seed: 3, Reps: 2, Parallel: 2, WarmUp: 10 * time.Second, Duration: 10 * time.Second}
	if _, err := bench.RunDSB(bench.AlgoL3, 200, opts.Duration, opts); err != nil {
		t.Fatal(err)
	}
	opts.Reps = 1
	if _, err := bench.Fig10(opts); err != nil {
		t.Fatal(err)
	}
	series, samples, err := metrics.AuditDescriptors()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d descriptors audited, %d samples", series, samples)
	if samples < 6909 {
		t.Fatalf("the table describes %d samples, fewer than one DSB world's 6 909", samples)
	}

	r := metrics.NewRegistry()
	r.Counter("audit_mutant_total", metrics.Labels{"backend": "a"})
	shared := r.Snapshot()[0].Labels
	shared["backend"] = "b"
	_, _, err = metrics.AuditDescriptors()
	shared["backend"] = "a"
	if err == nil {
		t.Fatal("the audit passed a shared map written after registration")
	}
	if _, _, err := metrics.AuditDescriptors(); err != nil {
		t.Fatalf("the map restored: %v", err)
	}
}
