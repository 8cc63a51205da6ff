package core

import (
	"errors"
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

// policyRig wires a 2-backend mesh with a policy-driven controller.
type policyRig struct {
	engine   *sim.Engine
	m        *mesh.Mesh
	policies *PolicyStore
	ctrl     *PolicyController
}

func newPolicyRig(t *testing.T) *policyRig {
	t.Helper()
	engine := sim.NewEngine()
	rng := sim.NewRand(42)
	m := mesh.New(engine, rng.Fork(), wan.New(wan.DefaultConfig()), metrics.NewRegistry())
	_, _ = m.AddService("api")
	mk := func(d time.Duration) backend.Profile {
		return func(time.Duration, *sim.Rand) (time.Duration, bool) { return d, true }
	}
	_, _ = m.AddBackend("api", "api-fast", "cluster-1", backend.Config{}, mk(20*time.Millisecond))
	_, _ = m.AddBackend("api", "api-slow", "cluster-2", backend.Config{}, mk(400*time.Millisecond))
	_ = m.Splits().Create(&smi.TrafficSplit{
		Name: "api", RootService: "api",
		Backends: []smi.Backend{{Service: "api-fast", Weight: 500}, {Service: "api-slow", Weight: 500}},
	})
	_ = m.SetPicker("api", balancer.NewWeightedSplit(m.Splits(), rng.Fork(), nil))

	db := timeseries.NewDB(time.Minute)
	NewScraper(engine, db, m.Registry(), 5*time.Second).Start()
	policies := NewPolicyStore()
	ctrl := NewPolicyController(engine, m.Splits(), db, policies, PolicyControllerConfig{})
	ctrl.Start()

	engine.Every(20*time.Millisecond, func() {
		_ = m.Call("cluster-1", "api", func(mesh.Result) {})
	})
	return &policyRig{engine: engine, m: m, policies: policies, ctrl: ctrl}
}

func (r *policyRig) weights(t *testing.T) (fast, slow int64) {
	t.Helper()
	ts, ok := r.m.Splits().Get("api")
	if !ok {
		t.Fatal("split vanished")
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

func TestPolicyControllerManagesOnlyDeclaredSplits(t *testing.T) {
	r := newPolicyRig(t)
	// No policy yet: the split must stay untouched.
	r.engine.RunUntil(time.Minute)
	fast, slow := r.weights(t)
	if fast != 500 || slow != 500 {
		t.Fatalf("unmanaged split mutated: %d/%d", fast, slow)
	}
	// Declare a policy; weights start moving.
	if err := r.policies.Create(&OptimizationPolicy{Name: "api"}); err != nil {
		t.Fatal(err)
	}
	r.engine.RunUntil(3 * time.Minute)
	fast, slow = r.weights(t)
	if fast <= slow {
		t.Fatalf("policy-managed weights fast=%d slow=%d", fast, slow)
	}
	if got := r.ctrl.Managed(); len(got) != 1 || got[0] != "api" {
		t.Fatalf("Managed = %v", got)
	}
	if r.ctrl.Updates() == 0 {
		t.Fatal("no update rounds counted")
	}
}

func TestPolicyControllerDeleteStopsManagement(t *testing.T) {
	r := newPolicyRig(t)
	_ = r.policies.Create(&OptimizationPolicy{Name: "api"})
	r.engine.RunUntil(2 * time.Minute)
	if err := r.policies.Delete("api"); err != nil {
		t.Fatal(err)
	}
	fast0, slow0 := r.weights(t)
	r.engine.RunUntil(3 * time.Minute)
	fast1, slow1 := r.weights(t)
	if fast0 != fast1 || slow0 != slow1 {
		t.Fatalf("weights changed after policy deletion: %d/%d -> %d/%d", fast0, slow0, fast1, slow1)
	}
	if len(r.ctrl.Managed()) != 0 {
		t.Fatal("deleted policy still managed")
	}
}

func TestPolicyControllerUpdateRebuildsPipeline(t *testing.T) {
	r := newPolicyRig(t)
	_ = r.policies.Create(&OptimizationPolicy{Name: "api"})
	r.engine.RunUntil(2 * time.Minute)
	// Update with a PeakEWMA filter: takes effect without a restart and
	// management continues.
	if err := r.policies.Update(&OptimizationPolicy{Name: "api", FilterKind: ewma.KindPeak}); err != nil {
		t.Fatal(err)
	}
	before := r.ctrl.Updates()
	r.engine.RunUntil(3 * time.Minute)
	if r.ctrl.Updates() == before {
		t.Fatal("updates stopped after policy update")
	}
	fast, slow := r.weights(t)
	if fast <= slow {
		t.Fatalf("post-update weights: %d/%d", fast, slow)
	}
}

func TestPolicyControllerMissingTargetRetries(t *testing.T) {
	r := newPolicyRig(t)
	// Policy for a split that does not exist yet.
	_ = r.policies.Create(&OptimizationPolicy{Name: "later", TargetSplit: "later-split"})
	r.engine.RunUntil(time.Minute) // must not panic or wedge
	// Create the target; management picks it up.
	_ = r.m.Splits().Create(&smi.TrafficSplit{
		Name: "later-split", RootService: "api",
		Backends: []smi.Backend{{Service: "api-fast", Weight: 500}, {Service: "api-slow", Weight: 500}},
	})
	r.engine.RunUntil(3 * time.Minute)
	ts, _ := r.m.Splits().Get("later-split")
	moved := false
	for _, b := range ts.Backends {
		if b.Weight != 500 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("late-created target never reconciled")
	}
}

func TestPolicyControllerRequiresDeps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil deps did not panic")
		}
	}()
	NewPolicyController(nil, nil, nil, nil, PolicyControllerConfig{})
}
