package core

import (
	"errors"
	"fmt"
	"time"

	"l3/internal/cluster"
	"l3/internal/ewma"
)

// OptimizationPolicy is the user-defined object the L3 operator manages
// (§4: L3 runs "as a containerized workload ... managing user-defined
// objects declaring desired latency optimizations"). One policy targets
// one TrafficSplit and carries the per-workload knobs §3 exposes: the
// latency percentile, the penalty factor P, the filter variant and whether
// the rate controller runs. Future work in the paper — determining P
// per-workload — is exactly a per-policy setting here.
type OptimizationPolicy struct {
	// Name identifies the policy.
	Name string
	// TargetSplit names the TrafficSplit to manage; empty means a split
	// named like the policy.
	TargetSplit string
	// Percentile of successful-request latency to optimise (0 = the
	// controller's Collector.Percentile).
	Percentile float64
	// Penalty is P (0 = the paper's default 600 ms).
	Penalty time.Duration
	// FilterKind selects EWMA or PeakEWMA (0 = EWMA).
	FilterKind ewma.Kind
	// DisableRateControl turns Algorithm 2 off for this workload.
	DisableRateControl bool
}

// ObjectName implements cluster.Object.
func (p *OptimizationPolicy) ObjectName() string { return p.Name }

// Target returns the managed split's name.
func (p *OptimizationPolicy) Target() string {
	if p.TargetSplit != "" {
		return p.TargetSplit
	}
	return p.Name
}

// Policy validation errors.
var (
	ErrPolicyNoName        = errors.New("core: policy has no name")
	ErrPolicyBadPercentile = errors.New("core: policy percentile outside (0, 1)")
	ErrPolicyBadPenalty    = errors.New("core: policy penalty is negative")
	ErrPolicyUnknownFilter = errors.New("core: policy filter kind unknown")
)

// Validate checks the policy's fields.
func (p *OptimizationPolicy) Validate() error {
	if p.Name == "" {
		return ErrPolicyNoName
	}
	if p.Percentile != 0 && !(p.Percentile > 0 && p.Percentile < 1) {
		return fmt.Errorf("%w: %v", ErrPolicyBadPercentile, p.Percentile)
	}
	if p.Penalty < 0 {
		return fmt.Errorf("%w: %v", ErrPolicyBadPenalty, p.Penalty)
	}
	switch p.FilterKind {
	case 0, ewma.KindEWMA, ewma.KindPeak:
	default:
		return fmt.Errorf("%w: %v", ErrPolicyUnknownFilter, p.FilterKind)
	}
	return nil
}

// PolicyStore stores OptimizationPolicies with validation and watches. Like
// smi.Store it keeps the policy it is handed and hands out that object, which
// nobody changes: Update replaces it. Delete, List and Watch are
// cluster.Store's.
type PolicyStore struct{ *policyStore }

type policyStore = cluster.Store[*OptimizationPolicy]

// NewPolicyStore returns an empty store.
func NewPolicyStore() *PolicyStore { return &PolicyStore{cluster.NewStore[*OptimizationPolicy]()} }

// Create validates and inserts a policy.
func (s *PolicyStore) Create(p *OptimizationPolicy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	return s.policyStore.Create(p)
}

// Update validates and replaces a policy.
func (s *PolicyStore) Update(p *OptimizationPolicy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	return s.policyStore.Update(p)
}

// Get returns the named policy.
func (s *PolicyStore) Get(name string) (*OptimizationPolicy, bool) {
	p, _, ok := s.policyStore.Get(name)
	return p, ok
}

// onPolicyEvent re-derives the management of the event's target and of
// every tracked split, since an update may have moved a policy off one.
func (c *Controller) onPolicyEvent(e cluster.Event[*OptimizationPolicy]) {
	c.resyncTracked()
	c.resync(e.Object.Target())
}

func (c *Controller) resyncTracked() {
	for _, name := range c.order {
		c.resync(name)
	}
}

// policyFor returns the policy that configures split: of those targeting it,
// the one with the least name, so two policies on one split resolve the same
// way in every run. It is nil when no policy targets split or Policies is
// unset.
func (c *Controller) policyFor(split string) *OptimizationPolicy {
	if c.cfg.Policies == nil {
		return nil
	}
	for _, p := range c.cfg.Policies.List() { // sorted by name
		if p.Target() == split {
			return p
		}
	}
	return nil
}

// resync brings one split's management in line with the policies: untracked
// when none targets it, tracked once one does and the split exists, and its
// assigner rebuilt when the configuring policy changes, since a new filter or
// percentile invalidates the old filters' state.
func (c *Controller) resync(split string) {
	p := c.policyFor(split)
	t, tracked := c.tracked[split]
	switch {
	case p == nil:
		if tracked {
			c.untrack(split)
		}
	case !tracked:
		if c.cfg.SplitFilter != nil && !c.cfg.SplitFilter(split) {
			return
		}
		if ts, ok := c.splits.Get(split); ok {
			c.track(ts, p)
		}
	case t.policy != p:
		t.configure(p)
	}
}

// configure builds the split's assigner from its policy: Algorithm 1 with
// the policy's penalty and filter, then Algorithm 2 unless it is turned off,
// in which case no round sets the relative-change gauge again.
func (t *trackedSplit) configure(p *OptimizationPolicy) {
	t.policy = p
	t.assigner = NewL3Assigner(WeightingConfig{Penalty: p.Penalty, FilterKind: p.FilterKind}, RateControlConfig{}, !p.DisableRateControl)
	if p.DisableRateControl && t.relativeChange != nil {
		t.relativeChange.Set(0)
	}
}
