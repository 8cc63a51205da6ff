// Package ewma implements the time-decayed moving-average filters L3 uses to
// smooth data-plane metrics: the EWMA of Equation 1 and the peak-sensitive
// PeakEWMA of Equation 2 in the paper (the latter originating from Twitter's
// Finagle).
//
// Both filters are parameterised by a half-life rather than the raw decay
// coefficient β: a sample observed one half-life ago contributes half as
// much as a fresh one (β = halfLife / ln 2). Each filter carries a default
// value λ used before the first observation, and can relax back toward that
// default while no traffic produces samples, matching §4 of the paper
// ("EWMA default values").
package ewma

import (
	"fmt"
	"math"
	"time"
)

// ln2 converts between half-life and the exponential decay coefficient.
const ln2 = 0.6931471805599453

// EWMA is an exponentially weighted moving average over timestamped samples
// (Equation 1 of the paper). The zero value is unusable; construct with New.
// EWMA is not safe for concurrent use.
type EWMA struct {
	beta        float64 // decay coefficient β, in seconds
	def         float64 // λ, the pre-observation default
	value       float64
	lastSample  time.Duration
	initialized bool
}

// New returns an EWMA with the given half-life and default value λ. The
// half-life must be positive.
func New(halfLife time.Duration, def float64) *EWMA {
	if halfLife <= 0 {
		panic(fmt.Sprintf("ewma: non-positive half-life %v", halfLife))
	}
	return &EWMA{beta: halfLife.Seconds() / ln2, def: def}
}

// Observe folds sample y observed at virtual time now into the average and
// returns the updated value. The first observation initialises the filter
// with λ before folding in y, per Equation 1's E_prev = ∅ branch followed by
// the regular update: the paper initialises E to λ and then treats every
// sample uniformly. The λ seed carries no timestamp, so the first sample
// folds in with one half-life of decay — weight ½ each for λ and y, the
// timestamp-free choice consistent with the filter's half-life semantics.
// Subsequent samples weight by their actual elapsed time.
func (e *EWMA) Observe(now time.Duration, y float64) float64 {
	if !e.initialized {
		e.initialized = true
		e.lastSample = now
		e.value = (e.def + y) / 2
		return e.value
	}
	dt := now - e.lastSample
	if dt < 0 {
		dt = 0
	}
	e.lastSample = now
	w := math.Exp(-dt.Seconds() / e.beta)
	e.value = y*(1-w) + e.value*w
	return e.value
}

// Value returns the current filtered value, or λ if nothing has been
// observed yet.
func (e *EWMA) Value() float64 {
	if !e.initialized {
		return e.def
	}
	return e.value
}

// Initialized reports whether at least one sample has been observed.
func (e *EWMA) Initialized() bool { return e.initialized }

// Relax moves the value a small increment toward λ, modelling the behaviour
// the paper describes when no metrics can be retrieved for ≥10 s: the filter
// converges toward its initial value until new samples arrive. fraction is
// the per-call step in (0, 1]; the paper's "small increments" correspond to
// a fraction well below 1.
func (e *EWMA) Relax(now time.Duration, fraction float64) float64 {
	if !e.initialized {
		return e.def
	}
	if fraction <= 0 {
		return e.value
	}
	if fraction > 1 {
		fraction = 1
	}
	e.lastSample = now
	e.value += (e.def - e.value) * fraction
	return e.value
}

// Reset returns the filter to its pre-observation state.
func (e *EWMA) Reset() {
	e.initialized = false
	e.value = 0
	e.lastSample = 0
}

// PeakEWMA is the peak-sensitive variant of Equation 2: a sample above the
// current value replaces it outright, while lower samples decay in like a
// regular EWMA. It reacts instantly to latency spikes and recovers
// cautiously. PeakEWMA is not safe for concurrent use.
type PeakEWMA struct {
	inner EWMA
}

// NewPeak returns a PeakEWMA with the given half-life and default λ.
func NewPeak(halfLife time.Duration, def float64) *PeakEWMA {
	return &PeakEWMA{inner: *New(halfLife, def)}
}

// Observe folds sample y at time now per Equation 2. The pre-observation
// value is the λ seed, so Equation 2's peak rule applies to the first
// sample too: y above λ replaces the seed outright, y below it decays in.
func (p *PeakEWMA) Observe(now time.Duration, y float64) float64 {
	if !p.inner.initialized && y > p.inner.def {
		p.inner.initialized = true
		p.inner.value = y
		p.inner.lastSample = now
		return y
	}
	if p.inner.initialized && y > p.inner.value {
		p.inner.value = y
		p.inner.lastSample = now
		return y
	}
	return p.inner.Observe(now, y)
}

// Value returns the current filtered value, or λ before any observation.
func (p *PeakEWMA) Value() float64 { return p.inner.Value() }

// Initialized reports whether at least one sample has been observed.
func (p *PeakEWMA) Initialized() bool { return p.inner.Initialized() }

// Relax moves the value a small increment toward λ (see EWMA.Relax).
func (p *PeakEWMA) Relax(now time.Duration, fraction float64) float64 {
	return p.inner.Relax(now, fraction)
}

// Reset returns the filter to its pre-observation state.
func (p *PeakEWMA) Reset() { p.inner.Reset() }

// Filter is the interface shared by EWMA and PeakEWMA, letting L3's weight
// assigner be configured with either (§5.2.2 compares the two).
type Filter interface {
	Observe(now time.Duration, y float64) float64
	Value() float64
	Initialized() bool
	Relax(now time.Duration, fraction float64) float64
	Reset()
}

var (
	_ Filter = (*EWMA)(nil)
	_ Filter = (*PeakEWMA)(nil)
)

// Kind selects which filter variant a component should construct.
type Kind int

const (
	// KindEWMA selects the plain EWMA of Equation 1.
	KindEWMA Kind = iota + 1
	// KindPeak selects the PeakEWMA of Equation 2.
	KindPeak
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindEWMA:
		return "ewma"
	case KindPeak:
		return "peak-ewma"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// NewFilter constructs a filter of the given kind.
func NewFilter(k Kind, halfLife time.Duration, def float64) Filter {
	if k == KindPeak {
		return NewPeak(halfLife, def)
	}
	return New(halfLife, def)
}
