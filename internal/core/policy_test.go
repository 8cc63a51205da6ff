package core

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"l3/internal/backend"
	"l3/internal/balancer"
	"l3/internal/ewma"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/smi"
	"l3/internal/timeseries"
	"l3/internal/wan"
)

func TestPolicyValidate(t *testing.T) {
	tests := []struct {
		name   string
		policy OptimizationPolicy
		want   error
	}{
		{"valid defaults", OptimizationPolicy{Name: "p"}, nil},
		{"valid full", OptimizationPolicy{Name: "p", Percentile: 0.98, Penalty: time.Second, FilterKind: ewma.KindPeak}, nil},
		{"no name", OptimizationPolicy{}, ErrPolicyNoName},
		{"bad percentile", OptimizationPolicy{Name: "p", Percentile: 1.5}, ErrPolicyBadPercentile},
		{"NaN percentile", OptimizationPolicy{Name: "p", Percentile: math.NaN()}, ErrPolicyBadPercentile},
		{"negative penalty", OptimizationPolicy{Name: "p", Penalty: -time.Second}, ErrPolicyBadPenalty},
		{"unknown filter", OptimizationPolicy{Name: "p", FilterKind: ewma.Kind(9)}, ErrPolicyUnknownFilter},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.policy.Validate()
			if tt.want == nil && err != nil {
				t.Fatalf("err = %v", err)
			}
			if tt.want != nil && !errors.Is(err, tt.want) {
				t.Fatalf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestPolicyTarget(t *testing.T) {
	p := OptimizationPolicy{Name: "books-policy"}
	if p.Target() != "books-policy" {
		t.Fatalf("default target = %q", p.Target())
	}
	p.TargetSplit = "books"
	if p.Target() != "books" {
		t.Fatalf("explicit target = %q", p.Target())
	}
}

func TestPolicyStoreValueSemanticsAndValidation(t *testing.T) {
	s := NewPolicyStore()
	if err := s.Create(&OptimizationPolicy{}); !errors.Is(err, ErrPolicyNoName) {
		t.Fatalf("invalid create err = %v", err)
	}
	p := &OptimizationPolicy{Name: "p", Percentile: 0.98}
	if err := s.Create(p); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("p"); !ok || got != p {
		t.Fatalf("Get = %+v, want the stored policy", got)
	}
	if len(s.List()) != 1 {
		t.Fatal("List length")
	}
	next := &OptimizationPolicy{Name: "p", Percentile: 0.9}
	if err := s.Update(next); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("p"); got != next || p.Percentile != 0.98 {
		t.Fatalf("after Update Get = %+v and the old policy reads %v, want the new one and 0.98", got, p.Percentile)
	}
	if err := s.Delete("p"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("p"); ok {
		t.Fatal("deleted policy still present")
	}
}

// policyRig wires a 2-backend mesh with a controller that manages what
// policies declare. Latencies are lognormal, so the tail quantiles differ.
type policyRig struct {
	engine   *sim.Engine
	m        *mesh.Mesh
	policies *PolicyStore
	ctrl     *Controller
	selfReg  *metrics.Registry
}

func newPolicyRig(t *testing.T) *policyRig {
	t.Helper()
	engine := sim.NewEngine()
	rng := sim.NewRand(42)
	m := mesh.New(engine, rng.Fork(), wan.New(wan.DefaultConfig()), metrics.NewRegistry())
	_, _ = m.AddService("api")
	mk := func(med time.Duration) backend.Profile {
		dist := sim.NewLogNormalFromQuantiles(med, 4*med)
		return func(_ time.Duration, r *sim.Rand) (time.Duration, bool) { return dist.Sample(r), true }
	}
	_, _ = m.AddBackend("api", "api-fast", "cluster-1", backend.Config{}, mk(20*time.Millisecond))
	_, _ = m.AddBackend("api", "api-slow", "cluster-2", backend.Config{}, mk(400*time.Millisecond))
	r := &policyRig{engine: engine, m: m, policies: NewPolicyStore(), selfReg: metrics.NewRegistry()}
	r.createSplit(t, "api")
	_ = m.SetPicker("api", balancer.NewWeightedSplit(m.Splits(), rng.Fork(), nil))

	db := timeseries.NewDB(time.Minute)
	NewScraperClock(engine, db, []*metrics.Registry{m.Registry()}, 5*time.Second).Start()
	r.ctrl = NewControllerClock(engine, m.Splits(), &Collector{DB: db}, ControllerConfig{
		Policies:     r.policies,
		SelfRegistry: r.selfReg,
	})
	r.ctrl.Start()

	engine.Every(20*time.Millisecond, func() {
		_ = m.Call("cluster-1", "api", func(mesh.Result) {})
	})
	return r
}

// createSplit adds a split over the api backends at even weights. Only the
// split named api steers traffic; another is steered by the controller alone.
func (r *policyRig) createSplit(t *testing.T, name string) {
	t.Helper()
	if err := r.m.Splits().Create(&smi.TrafficSplit{
		Name: name, RootService: "api",
		Backends: []smi.Backend{{Service: "api-fast", Weight: 500}, {Service: "api-slow", Weight: 500}},
	}); err != nil {
		t.Fatal(err)
	}
}

func (r *policyRig) weights(t *testing.T, split string) (fast, slow int64) {
	t.Helper()
	ts, ok := r.m.Splits().Get(split)
	if !ok {
		t.Fatalf("split %s vanished", split)
	}
	for _, b := range ts.Backends {
		switch b.Service {
		case "api-fast":
			fast = b.Weight
		case "api-slow":
			slow = b.Weight
		}
	}
	return fast, slow
}

// l3Assigner returns the L3 assigner the controller runs for split.
func (r *policyRig) l3Assigner(t *testing.T, split string) *L3Assigner {
	t.Helper()
	a, ok := r.ctrl.Assigner(split)
	if !ok {
		t.Fatalf("split %s is not tracked", split)
	}
	l3, ok := a.(*L3Assigner)
	if !ok {
		t.Fatalf("split %s runs %T, want *L3Assigner", split, a)
	}
	return l3
}

// TestControllerPolicyManagesOnlyDeclaredSplits: with Policies set, a split
// without a policy is neither tracked nor written, and one with a policy is
// steered.
func TestControllerPolicyManagesOnlyDeclaredSplits(t *testing.T) {
	r := newPolicyRig(t)
	r.createSplit(t, "logs")
	r.engine.RunUntil(time.Minute)
	if fast, slow := r.weights(t, "api"); fast != 500 || slow != 500 {
		t.Fatalf("unmanaged split mutated: %d/%d", fast, slow)
	}
	if err := r.policies.Create(&OptimizationPolicy{Name: "api"}); err != nil {
		t.Fatal(err)
	}
	r.engine.RunUntil(3 * time.Minute)
	if fast, slow := r.weights(t, "api"); fast <= slow {
		t.Fatalf("policy-managed weights fast=%d slow=%d", fast, slow)
	}
	if fast, slow := r.weights(t, "logs"); fast != 500 || slow != 500 {
		t.Fatalf("split without a policy mutated: %d/%d", fast, slow)
	}
	if got := r.ctrl.Tracked(); !slices.Equal(got, []string{"api"}) {
		t.Fatalf("Tracked = %v, want [api]", got)
	}
	if r.ctrl.Updates() == 0 {
		t.Fatal("no update rounds counted")
	}
}

// TestControllerPolicyDeleteStopsManagement: deleting a policy freezes its
// split, untracks it and zeroes its self-metrics, as deleting the split does.
func TestControllerPolicyDeleteStopsManagement(t *testing.T) {
	r := newPolicyRig(t)
	_ = r.policies.Create(&OptimizationPolicy{Name: "api"})
	r.engine.RunUntil(2 * time.Minute)
	weight := r.selfReg.Gauge(MetricWeight, metrics.Labels{"split": "api", "backend": "api-fast"})
	if weight.Value() == 0 {
		t.Fatal("no weight self-metric before the delete")
	}
	if err := r.policies.Delete("api"); err != nil {
		t.Fatal(err)
	}
	fast0, slow0 := r.weights(t, "api")
	r.engine.RunUntil(3 * time.Minute)
	if fast1, slow1 := r.weights(t, "api"); fast0 != fast1 || slow0 != slow1 {
		t.Fatalf("weights changed after policy deletion: %d/%d -> %d/%d", fast0, slow0, fast1, slow1)
	}
	if got := r.ctrl.Tracked(); len(got) != 0 {
		t.Fatalf("Tracked = %v after the policy's delete", got)
	}
	if v := weight.Value(); v != 0 {
		t.Fatalf("weight self-metric reads %v after the policy's delete, want 0", v)
	}
}

// TestControllerPolicyDeletedWhileStopped: a restarted controller drops a
// split whose policy went away while no watch was running.
func TestControllerPolicyDeletedWhileStopped(t *testing.T) {
	r := newPolicyRig(t)
	_ = r.policies.Create(&OptimizationPolicy{Name: "api"})
	r.engine.RunUntil(time.Minute)
	r.ctrl.Stop()
	_ = r.policies.Delete("api")
	r.ctrl.Start()
	if got := r.ctrl.Tracked(); len(got) != 0 {
		t.Fatalf("Tracked = %v after a restart without the policy", got)
	}
}

// TestControllerPolicyRetargets: a policy updated onto another split leaves
// the first and manages the second.
func TestControllerPolicyRetargets(t *testing.T) {
	r := newPolicyRig(t)
	r.createSplit(t, "search")
	_ = r.policies.Create(&OptimizationPolicy{Name: "p", TargetSplit: "api"})
	if err := r.policies.Update(&OptimizationPolicy{Name: "p", TargetSplit: "search"}); err != nil {
		t.Fatal(err)
	}
	if got := r.ctrl.Tracked(); !slices.Equal(got, []string{"search"}) {
		t.Fatalf("Tracked = %v after the retarget, want [search]", got)
	}
}

// TestControllerPolicyUpdateRebuildsPipeline: an update takes effect without
// a restart, with a fresh assigner built from the new policy.
func TestControllerPolicyUpdateRebuildsPipeline(t *testing.T) {
	r := newPolicyRig(t)
	_ = r.policies.Create(&OptimizationPolicy{Name: "api"})
	r.engine.RunUntil(2 * time.Minute)
	before := r.l3Assigner(t, "api")
	change := r.selfReg.Gauge(MetricRelativeChange, metrics.Labels{"split": "api"})
	if change.Value() == 0 {
		t.Fatal("no relative-change reading before the update")
	}
	if err := r.policies.Update(&OptimizationPolicy{Name: "api", FilterKind: ewma.KindPeak, DisableRateControl: true}); err != nil {
		t.Fatal(err)
	}
	after := r.l3Assigner(t, "api")
	if after == before || after.Weighter().Config().FilterKind != ewma.KindPeak || after.RateController() != nil {
		t.Fatalf("update kept the assigner (rebuilt %v), its filter (%v) or rate control (%v)",
			after != before, after.Weighter().Config().FilterKind, after.RateController() != nil)
	}
	if v := change.Value(); v != 0 {
		t.Fatalf("relative-change gauge reads %v with rate control off, want 0", v)
	}
	updates := r.ctrl.Updates()
	r.engine.RunUntil(3 * time.Minute)
	if r.ctrl.Updates() == updates {
		t.Fatal("updates stopped after policy update")
	}
	if fast, slow := r.weights(t, "api"); fast <= slow {
		t.Fatalf("post-update weights: %d/%d", fast, slow)
	}
}

// TestControllerPolicyMissingTargetRetries: a policy may precede its split;
// the split is managed from its creation on.
func TestControllerPolicyMissingTargetRetries(t *testing.T) {
	r := newPolicyRig(t)
	_ = r.policies.Create(&OptimizationPolicy{Name: "later", TargetSplit: "later-split"})
	r.engine.RunUntil(time.Minute)
	if got := r.ctrl.Tracked(); len(got) != 0 {
		t.Fatalf("Tracked = %v before the target exists", got)
	}
	r.createSplit(t, "later-split")
	r.engine.RunUntil(3 * time.Minute)
	if fast, slow := r.weights(t, "later-split"); fast == 500 && slow == 500 {
		t.Fatal("late-created target never reconciled")
	}
}

// TestControllerPolicyConfiguresEachSplit: two splits, two policies, each
// split's assigner built from its own.
func TestControllerPolicyConfiguresEachSplit(t *testing.T) {
	r := newPolicyRig(t)
	r.createSplit(t, "search")
	_ = r.policies.Create(&OptimizationPolicy{Name: "checkout", TargetSplit: "api"})
	_ = r.policies.Create(&OptimizationPolicy{Name: "search", Penalty: 300 * time.Millisecond, FilterKind: ewma.KindPeak, DisableRateControl: true})
	for _, tt := range []struct {
		split   string
		penalty time.Duration
		filter  ewma.Kind
		rate    bool
	}{
		{"api", 600 * time.Millisecond, ewma.KindEWMA, true},
		{"search", 300 * time.Millisecond, ewma.KindPeak, false},
	} {
		a := r.l3Assigner(t, tt.split)
		cfg := a.Weighter().Config()
		if cfg.Penalty != tt.penalty || cfg.FilterKind != tt.filter || (a.RateController() != nil) != tt.rate {
			t.Errorf("split %s: penalty %v, filter %v, rate control %v; want %v, %v, %v",
				tt.split, cfg.Penalty, cfg.FilterKind, a.RateController() != nil, tt.penalty, tt.filter, tt.rate)
		}
	}
}

// TestControllerPolicyPercentileReachesCollector: two splits over the same
// backends, one policy at P99 and one at P99.9, read the same series at their
// own quantile, so the tail policy's filtered latency is higher.
func TestControllerPolicyPercentileReachesCollector(t *testing.T) {
	r := newPolicyRig(t)
	r.createSplit(t, "api-tail")
	_ = r.policies.Create(&OptimizationPolicy{Name: "api", Percentile: 0.99})
	_ = r.policies.Create(&OptimizationPolicy{Name: "api-tail", Percentile: 0.999})
	r.engine.RunUntil(2 * time.Minute)
	p99 := func(split string) float64 {
		return r.selfReg.Gauge(MetricFilteredP99, metrics.Labels{"split": split, "backend": "api-fast"}).Value()
	}
	if base, tail := p99("api"), p99("api-tail"); !(base > 0 && tail > base) {
		t.Fatalf("filtered latency at P99 %v, at P99.9 %v: want 0 < P99 < P99.9", base, tail)
	}
}
