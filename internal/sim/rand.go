package sim

import (
	"math"
	"math/rand/v2"
	"time"
)

// Rand is a deterministic random source with the distribution helpers the
// simulation models need. It wraps math/rand/v2's PCG so that two Rand
// values created with the same seed produce identical streams on every
// platform. The PCG state lives inside the Rand, so a Rand is one
// allocation and Set copies a stream without any; src points at pcg, so a
// Rand must not be copied by assignment.
type Rand struct {
	src rand.Rand
	pcg rand.PCG
}

// NewRand returns a deterministic source seeded with seed.
func NewRand(seed uint64) *Rand {
	r := &Rand{pcg: *rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)}
	r.src = *rand.New(&r.pcg)
	return r
}

// Set makes r continue src's stream from src's current position: both then
// draw the same values, each consuming only its own state.
func (r *Rand) Set(src *Rand) {
	r.pcg = src.pcg
	r.src = *rand.New(&r.pcg)
}

// Fork derives an independent deterministic stream from this one. Models use
// Fork to give each component its own stream so that adding a consumer does
// not perturb the draws seen by others.
func (r *Rand) Fork() *Rand {
	return NewRand(r.src.Uint64())
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) IntN(n int) int { return r.src.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Bool returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// Normal returns a draw from the normal distribution N(mean, stddev²).
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// LogNormal returns a draw from the log-normal distribution with the given
// parameters of the underlying normal (mu is the log-median, sigma the log
// standard deviation).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.src.NormFloat64())
}

// Exp returns a draw from the exponential distribution with the given mean.
// It panics if mean <= 0.
func (r *Rand) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("sim: Exp called with non-positive mean")
	}
	return r.src.ExpFloat64() * mean
}

// z99 is the 0.99 quantile of the standard normal distribution; it converts
// a P99/median ratio of a log-normal distribution into its sigma parameter.
const z99 = 2.3263478740408408

// LogNormalFromQuantiles describes a log-normal distribution by its median
// and 99th percentile, the two statistics the paper reports for every
// scenario. Durations are drawn with Sample.
type LogNormalFromQuantiles struct {
	mu    float64
	sigma float64
}

// NewLogNormalFromQuantiles builds the distribution from a median and P99.
// p99 must be >= median; equal values yield a constant distribution.
func NewLogNormalFromQuantiles(median, p99 time.Duration) LogNormalFromQuantiles {
	if median <= 0 {
		median = time.Microsecond
	}
	if p99 < median {
		p99 = median
	}
	m := median.Seconds()
	return LogNormalFromQuantiles{
		mu:    math.Log(m),
		sigma: math.Log(p99.Seconds()/m) / z99,
	}
}

// Sample draws one duration, at least 1 ns: a log-normal draw is positive,
// but one under a nanosecond would truncate to 0.
func (d LogNormalFromQuantiles) Sample(r *Rand) time.Duration {
	return max(time.Duration(r.LogNormal(d.mu, d.sigma)*float64(time.Second)), 1)
}

// Median returns the distribution's median as a duration.
func (d LogNormalFromQuantiles) Median() time.Duration {
	return time.Duration(math.Exp(d.mu) * float64(time.Second))
}

// P99 returns the distribution's 99th percentile as a duration.
func (d LogNormalFromQuantiles) P99() time.Duration {
	return time.Duration(math.Exp(d.mu+z99*d.sigma) * float64(time.Second))
}
