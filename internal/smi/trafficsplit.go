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

// Clone returns a deep copy, so mutations of the copy never alias stored
// state.
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

// SetWeight updates one backend's weight in place. Unlike the historical
// behaviour (silently clamping negatives to zero), invalid writes are an
// explicit error: a negative weight returns ErrNegativeWeight and an unknown
// backend returns ErrUnknownBackend, both without mutating the split.
func (ts *TrafficSplit) SetWeight(service string, weight int64) error {
	if weight < 0 {
		return fmt.Errorf("%w: %s=%d", ErrNegativeWeight, service, weight)
	}
	for i := range ts.Backends {
		if ts.Backends[i].Service == service {
			ts.Backends[i].Weight = weight
			return nil
		}
	}
	return fmt.Errorf("%w: %s", ErrUnknownBackend, service)
}

// ApplyWeights replaces the weights of every named backend atomically: the
// whole vector is validated first (non-negative, all backends present) and
// the split is only mutated when every entry is applicable. Backends of the
// split absent from w keep their weight.
func (ts *TrafficSplit) ApplyWeights(w map[string]int64) error {
	idx := make(map[string]int, len(ts.Backends))
	for i, b := range ts.Backends {
		idx[b.Service] = i
	}
	for svc, weight := range w {
		if weight < 0 {
			return fmt.Errorf("%w: %s=%d", ErrNegativeWeight, svc, weight)
		}
		if _, ok := idx[svc]; !ok {
			return fmt.Errorf("%w: %s", ErrUnknownBackend, svc)
		}
	}
	for svc, weight := range w {
		ts.Backends[idx[svc]].Weight = weight
	}
	return nil
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
// and floored at 1 so every backend stays measurable. NaN, ±Inf and negative
// inputs are rejected (ErrWeightNotFinite / ErrNegativeWeight), as is a
// vector with no positive mass.
func ScaleWeights(weights map[string]float64, scale int64) (map[string]int64, error) {
	if scale <= 0 {
		scale = 1000
	}
	var sum float64
	for svc, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("%w: %s=%v", ErrWeightNotFinite, svc, w)
		}
		if w < 0 {
			return nil, fmt.Errorf("%w: %s=%v", ErrNegativeWeight, svc, w)
		}
		sum += w
	}
	if len(weights) == 0 || sum <= 0 {
		return nil, fmt.Errorf("%w: no positive weight mass", ErrWeightSum)
	}
	out := make(map[string]int64, len(weights))
	var total int64
	for svc, w := range weights {
		v := int64(math.Round(w / sum * float64(scale)))
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
	if drift > int64(len(weights)) {
		return nil, fmt.Errorf("%w: scaled total %d vs scale %d", ErrWeightSum, total, scale)
	}
	return out, nil
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

// Store is a validating store of TrafficSplits with watch support. Objects
// are stored and returned by value semantics: every read hands out a clone,
// so callers can mutate freely and write back via Update.
type Store struct {
	inner *cluster.Store[*TrafficSplit]
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{inner: cluster.NewStore[*TrafficSplit]()}
}

// Create validates and inserts a split.
func (s *Store) Create(ts *TrafficSplit) error {
	if err := ts.Validate(); err != nil {
		return err
	}
	return s.inner.Create(ts.Clone())
}

// Update validates and replaces a split.
func (s *Store) Update(ts *TrafficSplit) error {
	if err := ts.Validate(); err != nil {
		return err
	}
	return s.inner.Update(ts.Clone())
}

// Delete removes a split by name.
func (s *Store) Delete(name string) error { return s.inner.Delete(name) }

// Get returns a clone of the named split.
func (s *Store) Get(name string) (*TrafficSplit, bool) {
	ts, _, ok := s.inner.Get(name)
	if !ok {
		return nil, false
	}
	return ts.Clone(), true
}

// List returns clones of all splits, sorted by name.
func (s *Store) List() []*TrafficSplit {
	stored := s.inner.List()
	out := make([]*TrafficSplit, len(stored))
	for i, ts := range stored {
		out[i] = ts.Clone()
	}
	return out
}

// Len returns the number of stored splits.
func (s *Store) Len() int { return s.inner.Len() }

// ResourceVersion moves on every Create, Update and Delete and is read
// without a lock: what a reader got from Get holds while it stands still.
func (s *Store) ResourceVersion() uint64 { return s.inner.ResourceVersion() }

// Watch registers fn for mutation events (cloned objects). With replay, fn
// first receives synthetic Added events for existing splits.
func (s *Store) Watch(replay bool, fn func(cluster.Event[*TrafficSplit])) (cancel func()) {
	return s.inner.Watch(replay, func(e cluster.Event[*TrafficSplit]) {
		fn(cluster.Event[*TrafficSplit]{Type: e.Type, Object: e.Object.Clone()})
	})
}
