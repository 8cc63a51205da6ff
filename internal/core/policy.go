package core

import (
	"errors"
	"fmt"
	"time"

	"l3/internal/cluster"
	"l3/internal/ewma"
	"l3/internal/sim"
	"l3/internal/smi"
	"l3/internal/timeseries"
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
	// paper's default 0.99).
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
	if p.Percentile != 0 && (p.Percentile <= 0 || p.Percentile >= 1) {
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

// PolicyControllerConfig parameterises the policy-driven operator.
type PolicyControllerConfig struct {
	// Interval is the reconcile period (default 5 s).
	Interval time.Duration
	// WeightScale converts float weights to TrafficSplit integers
	// (default 1000).
	WeightScale float64
	// Window is the collectors' query window (default 10 s).
	Window time.Duration
	// Match scopes metric queries (e.g. {"src": "cluster-1"} for a
	// per-cluster instance).
	Match metricLabels
	// Elector gates writes when set.
	Elector *cluster.Elector
}

// metricLabels aliases the metrics label type without forcing callers of
// the zero value to import it.
type metricLabels = map[string]string

// PolicyController is the declarative flavour of the operator: the managed
// set is whatever OptimizationPolicies exist, each reconciled with an L3
// pipeline configured from its policy. Policy create/update/delete takes
// effect immediately (update rebuilds the policy's filters, as a changed
// percentile or filter kind invalidates the old EWMA state).
type PolicyController struct {
	engine   *sim.Engine
	splits   *smi.Store
	db       *timeseries.DB
	policies *PolicyStore
	cfg      PolicyControllerConfig

	managed     map[string]*managedPolicy
	ticker      *sim.Timer
	cancelWatch func()
	updates     uint64
	ints        map[string]int64 // a write's integer weights, refilled by the next
}

type managedPolicy struct {
	policy    OptimizationPolicy
	assigner  *L3Assigner
	collector *Collector
}

// NewPolicyController wires the operator; call Start to begin.
func NewPolicyController(engine *sim.Engine, splits *smi.Store, db *timeseries.DB, policies *PolicyStore, cfg PolicyControllerConfig) *PolicyController {
	if engine == nil || splits == nil || db == nil || policies == nil {
		panic("core: NewPolicyController requires engine, splits, db and policies")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.WeightScale <= 0 {
		cfg.WeightScale = 1000
	}
	if cfg.Window <= 0 {
		cfg.Window = 10 * time.Second
	}
	return &PolicyController{
		engine:   engine,
		splits:   splits,
		db:       db,
		policies: policies,
		cfg:      cfg,
		managed:  make(map[string]*managedPolicy),
	}
}

// Start begins watching policies (with replay) and reconciling.
func (c *PolicyController) Start() {
	c.cancelWatch = c.policies.Watch(true, c.onPolicyEvent)
	c.ticker = c.engine.Every(c.cfg.Interval, c.updateAll)
	if c.cfg.Elector != nil {
		c.cfg.Elector.Run()
	}
}

// Stop halts the control loops.
func (c *PolicyController) Stop() {
	if c.cancelWatch != nil {
		c.cancelWatch()
	}
	if c.ticker != nil {
		c.ticker.Cancel()
	}
	if c.cfg.Elector != nil {
		c.cfg.Elector.Stop()
	}
}

// Updates returns the number of applied weight-update rounds.
func (c *PolicyController) Updates() uint64 { return c.updates }

// Managed returns the names of policies under management.
func (c *PolicyController) Managed() []string {
	out := make([]string, 0, len(c.managed))
	for name := range c.managed {
		out = append(out, name)
	}
	return out
}

func (c *PolicyController) onPolicyEvent(e cluster.Event[*OptimizationPolicy]) {
	switch e.Type {
	case cluster.Added, cluster.Updated:
		c.managed[e.Object.Name] = c.build(*e.Object)
	case cluster.Deleted:
		delete(c.managed, e.Object.Name)
	}
}

func (c *PolicyController) build(p OptimizationPolicy) *managedPolicy {
	match := make(map[string]string, len(c.cfg.Match))
	for k, v := range c.cfg.Match {
		match[k] = v
	}
	return &managedPolicy{
		policy: p,
		assigner: NewL3Assigner(WeightingConfig{
			Penalty:    p.Penalty,
			FilterKind: p.FilterKind,
		}, RateControlConfig{}, !p.DisableRateControl),
		collector: &Collector{
			DB:         c.db,
			Window:     c.cfg.Window,
			Percentile: p.Percentile,
			Match:      match,
		},
	}
}

func (c *PolicyController) isLeader() bool {
	return c.cfg.Elector == nil || c.cfg.Elector.IsLeader()
}

func (c *PolicyController) updateAll() {
	now := c.engine.Now()
	leader := c.isLeader()
	for _, m := range c.managed {
		ts, ok := c.splits.Get(m.policy.Target())
		if !ok {
			continue // target not created yet; retry next round
		}
		metrics := m.collector.Collect(now, ts.RootService, ts.BackendNames())
		weights := m.assigner.Assign(now, metrics)
		if !leader {
			continue
		}
		c.ints = scaledWeights(c.ints, ts, weights, c.cfg.WeightScale)
		next, err := ts.WithWeights(c.ints)
		if err != nil {
			continue
		}
		if err := c.splits.Update(next); err != nil {
			continue
		}
		c.updates++
	}
}
