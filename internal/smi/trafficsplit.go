// Package smi implements the slice of the Service Mesh Interface standard
// that L3 is built on: the TrafficSplit resource (split.smi-spec.io
// v1alpha4). A TrafficSplit declares how traffic addressed to a root
// service is distributed across backend services; the ratio between backend
// weights is the ratio of traffic each receives. L3's whole write-side is
// "update the weights of a TrafficSplit"; the mesh data plane's read-side is
// "pick a backend proportionally to the current weights".
package smi

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"l3/internal/cluster"
)

// Backend is one weighted target service of a TrafficSplit. In a
// multi-cluster deployment each backend names the service export of one
// cluster (e.g. "books-east", "books-west").
type Backend struct {
	// Service is the backend service name, unique within the split.
	Service string
	// Weight is a non-negative integer; traffic is distributed
	// proportionally to the weights. All-zero weights mean the split is
	// inert and the data plane falls back to uniform selection.
	Weight int64
}

// TrafficSplit is the SMI traffic-split resource.
type TrafficSplit struct {
	// Name identifies the split (metadata.name).
	Name string
	// RootService is the FQDN clients address (spec.service).
	RootService string
	// Backends are the weighted targets (spec.backends).
	Backends []Backend
}

// ObjectName implements cluster.Object.
func (ts *TrafficSplit) ObjectName() string { return ts.Name }

// Clone returns a deep copy: the way to edit a stored split is to edit a
// clone and Update with it.
func (ts *TrafficSplit) Clone() *TrafficSplit {
	c := &TrafficSplit{Name: ts.Name, RootService: ts.RootService}
	c.Backends = make([]Backend, len(ts.Backends))
	copy(c.Backends, ts.Backends)
	return c
}

// TotalWeight returns the sum of all backend weights.
func (ts *TrafficSplit) TotalWeight() int64 {
	var sum int64
	for _, b := range ts.Backends {
		sum += b.Weight
	}
	return sum
}

// BackendNames returns the backend service names in declaration order.
func (ts *TrafficSplit) BackendNames() []string {
	out := make([]string, len(ts.Backends))
	for i, b := range ts.Backends {
		out[i] = b.Service
	}
	return out
}

// WithWeights returns the next version of the split: a copy carrying w's
// weight for every backend w names, and the current weight for the rest. A
// negative weight (ErrNegativeWeight) or a service not in the split
// (ErrUnknownBackend) returns no version at all. ts itself never changes: a
// stored split is shared by the store, its watchers and the pickers.
func (ts *TrafficSplit) WithWeights(w map[string]int64) (*TrafficSplit, error) {
	next := ts.Clone()
	found := 0
	for i := range next.Backends {
		b := &next.Backends[i]
		if v, ok := w[b.Service]; ok {
			if v < 0 {
				return nil, fmt.Errorf("%w: %s=%d", ErrNegativeWeight, b.Service, v)
			}
			b.Weight = v
			found++
		}
	}
	if found < len(w) {
		for svc := range w {
			if !slices.ContainsFunc(ts.Backends, func(b Backend) bool { return b.Service == svc }) {
				return nil, fmt.Errorf("%w: %s", ErrUnknownBackend, svc)
			}
		}
	}
	return next, nil
}

// CheckScaledSum asserts the integer-scaling sum invariant: a weight vector
// produced by ScaleWeights(…, scale) totals scale up to one rounding unit
// per backend. A larger drift means the vector was not share-preserving.
func (ts *TrafficSplit) CheckScaledSum(scale int64) error {
	drift := ts.TotalWeight() - scale
	if drift < 0 {
		drift = -drift
	}
	if drift > int64(len(ts.Backends)) {
		return fmt.Errorf("%w: total %d vs scale %d (tolerance %d)",
			ErrWeightSum, ts.TotalWeight(), scale, len(ts.Backends))
	}
	return nil
}

// ScaleWeights converts a float weight vector to TrafficSplit integers while
// preserving shares: weights are normalised, multiplied by scale, rounded,
// and floored at 1 so every backend stays measurable. names lists weights'
// keys in the order their mass is summed, so one input is one bit pattern
// whatever the map's order; out is cleared and refilled, so a caller that
// keeps it allocates nothing. NaN, ±Inf and negative inputs are rejected
// (ErrWeightNotFinite / ErrNegativeWeight), as is a vector with no positive
// mass; out is then left empty.
func ScaleWeights(out map[string]int64, names []string, weights map[string]float64, scale int64) error {
	clear(out)
	if scale <= 0 {
		scale = 1000
	}
	var sum float64
	for _, svc := range names {
		w := weights[svc]
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("%w: %s=%v", ErrWeightNotFinite, svc, w)
		}
		if w < 0 {
			return fmt.Errorf("%w: %s=%v", ErrNegativeWeight, svc, w)
		}
		sum += w
	}
	if len(names) == 0 || sum <= 0 {
		return fmt.Errorf("%w: no positive weight mass", ErrWeightSum)
	}
	var total int64
	for _, svc := range names {
		v := int64(math.Round(weights[svc] / sum * float64(scale)))
		if v < 1 {
			v = 1
		}
		out[svc] = v
		total += v
	}
	// Integer-scaling sum invariant: rounding moves the total by at most one
	// half-unit per backend, the floor by at most one unit per backend.
	drift := total - scale
	if drift < 0 {
		drift = -drift
	}
	if drift > int64(len(names)) {
		clear(out)
		return fmt.Errorf("%w: scaled total %d vs scale %d", ErrWeightSum, total, scale)
	}
	return nil
}

// String renders the split compactly for logs.
func (ts *TrafficSplit) String() string {
	parts := make([]string, len(ts.Backends))
	for i, b := range ts.Backends {
		parts[i] = fmt.Sprintf("%s=%d", b.Service, b.Weight)
	}
	sort.Strings(parts)
	return fmt.Sprintf("trafficsplit/%s[%s -> %s]", ts.Name, ts.RootService, strings.Join(parts, ","))
}

// Validation errors.
var (
	ErrNoName         = errors.New("smi: traffic split has no name")
	ErrNoRootService  = errors.New("smi: traffic split has no root service")
	ErrNoBackends     = errors.New("smi: traffic split has no backends")
	ErrNegativeWeight = errors.New("smi: backend weight is negative")
	ErrDuplicate      = errors.New("smi: duplicate backend service")
	// ErrUnknownBackend rejects a weight write addressing a service that is
	// not part of the split.
	ErrUnknownBackend = errors.New("smi: unknown backend service")
	// ErrWeightNotFinite rejects NaN or infinite float weights before they
	// can reach integer scaling (int64(NaN) is platform-defined).
	ErrWeightNotFinite = errors.New("smi: weight is not finite")
	// ErrWeightSum rejects weight vectors violating the integer-scaling sum
	// invariant (scaled totals must stay within one unit per backend of the
	// scale).
	ErrWeightSum = errors.New("smi: weight sum invariant violated")
)

// Validate checks structural invariants required by the SMI spec.
func (ts *TrafficSplit) Validate() error {
	if ts.Name == "" {
		return ErrNoName
	}
	if ts.RootService == "" {
		return ErrNoRootService
	}
	if len(ts.Backends) == 0 {
		return ErrNoBackends
	}
	seen := make(map[string]bool, len(ts.Backends))
	for _, b := range ts.Backends {
		if b.Weight < 0 {
			return fmt.Errorf("%w: %s=%d", ErrNegativeWeight, b.Service, b.Weight)
		}
		if seen[b.Service] {
			return fmt.Errorf("%w: %s", ErrDuplicate, b.Service)
		}
		seen[b.Service] = true
	}
	return nil
}

// Store is a validating store of TrafficSplits with watch support. A stored
// split is an immutable version: Create and Update take ownership of the
// split they are handed, and Get, List and watch events all return that very
// object, so nobody may change a split after handing it to the store or
// receiving it from it. A write builds the next version (WithWeights, or a
// Clone edited before Update). Delete, List, Len, ResourceVersion and Watch
// are cluster.Store's.
type Store struct{ *splitStore }

type splitStore = cluster.Store[*TrafficSplit]

// NewStore returns an empty store.
func NewStore() *Store { return &Store{cluster.NewStore[*TrafficSplit]()} }

// Create validates a split and stores it.
func (s *Store) Create(ts *TrafficSplit) error {
	if err := ts.Validate(); err != nil {
		return err
	}
	return s.splitStore.Create(ts)
}

// Update validates a split and stores it in place of the one of its name.
func (s *Store) Update(ts *TrafficSplit) error {
	if err := ts.Validate(); err != nil {
		return err
	}
	return s.splitStore.Update(ts)
}

// Get returns the stored version of the named split.
func (s *Store) Get(name string) (*TrafficSplit, bool) {
	ts, _, ok := s.splitStore.Get(name)
	return ts, ok
}
