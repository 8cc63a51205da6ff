package trace

import (
	"math"
	"time"

	"l3/internal/sim"
)

// walkCoarseStep is the step, in samples, of the underlying coarse random
// walk. The paper's production traces vary on timescales of tens of
// seconds to minutes — sustained excursions a 5-second control loop can
// react to — not white noise; generating the walk at a 20-sample (20 s)
// granularity and interpolating reproduces that temporal structure.
const walkCoarseStep = 20

// walk produces n samples of a mean-reverting random walk confined to
// [lo, hi], varying on multi-ten-second timescales with a little
// sample-level jitter on top. vol controls the coarse-step volatility
// relative to the band width.
func walk(rng *sim.Rand, n int, lo, hi, vol float64) []float64 {
	if hi < lo {
		hi = lo
	}
	band := hi - lo
	coarseN := n/walkCoarseStep + 2
	coarse := make([]float64, coarseN)
	x := lo + band*rng.Float64()
	mid := lo + band/2
	for i := range coarse {
		// Ornstein-Uhlenbeck-flavoured step: weak pull toward the middle,
		// perturbed by noise, reflected at the band edges.
		x += 0.15*(mid-x) + rng.Normal(0, vol*band)
		if x < lo {
			x = lo + (lo - x)
		}
		if x > hi {
			x = hi - (x - hi)
		}
		x = math.Min(hi, math.Max(lo, x))
		coarse[i] = x
	}
	out := make([]float64, n)
	for i := range out {
		pos := float64(i) / walkCoarseStep
		j := int(pos)
		frac := pos - float64(j)
		v := coarse[j]*(1-frac) + coarse[j+1]*frac
		// Small per-second jitter so the series is not piecewise linear.
		v *= 1 + rng.Normal(0, 0.02)
		out[i] = math.Min(hi, math.Max(lo, v))
	}
	return out
}

// episodes builds a multiplier series modelling sustained degradation
// phases: count episodes at random positions, each lasting minLen..maxLen
// steps with a peak multiplier in [magLo, magHi] and ~5-step half-cosine
// ramps at the edges. Outside episodes the multiplier is 1; overlapping
// episodes take the larger multiplier. These are the paper's
// characteristic trace feature — one backend's latency staying elevated
// for tens of seconds to minutes while the others are healthy (§2.1,
// §5.3.1's "median of one backend often worse than the P99 of the
// others").
func episodes(rng *sim.Rand, n, count, minLen, maxLen int, magLo, magHi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	if n == 0 || count <= 0 {
		return out
	}
	const ramp = 5
	for e := 0; e < count; e++ {
		length := minLen
		if maxLen > minLen {
			length += rng.IntN(maxLen - minLen)
		}
		if length >= n {
			length = n - 1
		}
		at := rng.IntN(n - length)
		mag := magLo + (magHi-magLo)*rng.Float64()
		for i := 0; i < length; i++ {
			env := 1.0
			if i < ramp {
				env = 0.5 - 0.5*math.Cos(math.Pi*float64(i)/ramp)
			} else if i >= length-ramp {
				env = 0.5 - 0.5*math.Cos(math.Pi*float64(length-1-i)/ramp)
			}
			m := 1 + (mag-1)*env
			if m > out[at+i] {
				out[at+i] = m
			}
		}
	}
	return out
}

// mulInto multiplies dst element-wise by a blend of the multiplier series:
// dst[i] *= 1 + (mul[i]-1)*fraction.
func mulInto(dst, mul []float64, fraction float64) {
	for i := range dst {
		dst[i] *= 1 + (mul[i]-1)*fraction
	}
}

// clampMax caps every value at maxV.
func clampMax(vals []float64, maxV float64) {
	for i, v := range vals {
		if v > maxV {
			vals[i] = maxV
		}
	}
}

// failureParams describes an artificial failure injection: a base success
// rate with jitter, plus a number of dips during which one cluster's
// success rate collapses toward (1-dipDepth)·base... concretely the dip
// floor is base·(1-dipDepth), held for dipLen steps with smooth edges.
type failureParams struct {
	base       float64 // steady-state success rate
	baseJitter float64 // uniform jitter amplitude around base
	dips       int     // number of single-cluster dips over the scenario
	dipDepth   float64 // fraction of base removed at the dip floor
	dipLen     int     // dip duration in steps
}

// injectFailures rewrites every cluster's Success series per p. Dips are
// assigned round-robin across clusters so each failure episode affects a
// single cluster, as in the paper's failure-1/failure-2 construction. One
// cluster (the last) receives a reduced jitter and no deep dips so that the
// scenario has a "healthiest backend" whose average success stays near the
// base, mirroring failure-2's 99.8 %-availability backend.
func injectFailures(rng *sim.Rand, sc *Scenario, p failureParams) {
	n := len(sc.Clusters[0].Success.Values)
	for ci := range sc.Clusters {
		r := rng.Fork()
		jitter := p.baseJitter
		if ci == len(sc.Clusters)-1 {
			jitter = p.baseJitter / 4
		}
		// The baseline success rate wanders slowly within its band (like
		// every other signal in the production traces) rather than
		// flickering i.i.d.: sustained small differences are what a
		// success-rate-weighted balancer actually reacts to.
		hi := p.base + jitter
		if hi > 1 {
			hi = 1
		}
		vals := walk(r, n, p.base-jitter, hi, 0.2)
		sc.Clusters[ci].Success = Series{Step: sc.Step, Values: vals}
	}

	healthy := len(sc.Clusters) - 1
	for d := 0; d < p.dips; d++ {
		ci := d % healthy // never dip the healthiest cluster
		vals := sc.Clusters[ci].Success.Values
		at := rng.IntN(n - p.dipLen)
		floor := p.base * (1 - p.dipDepth)
		for i := 0; i < p.dipLen; i++ {
			// Smooth edges: half-cosine envelope into and out of the dip.
			frac := float64(i) / float64(p.dipLen-1)
			env := 0.5 - 0.5*math.Cos(2*math.Pi*frac) // 0..1..0
			v := vals[at+i]*(1-env) + floor*env
			if v < vals[at+i] {
				vals[at+i] = v
			}
		}
	}
}

// Walk exposes the generator's band-confined, multi-ten-second-timescale
// random walk as a Series, for models needing trace-like variability
// outside the named scenarios (e.g. per-node performance factors of the
// DSB testbed).
func Walk(rng *sim.Rand, step time.Duration, n int, lo, hi, vol float64) Series {
	return Series{Step: step, Values: walk(rng, n, lo, hi, vol)}
}

// EpisodeMultipliers exposes the sustained-degradation multiplier process
// as a Series (1 outside episodes).
func EpisodeMultipliers(rng *sim.Rand, step time.Duration, n, count, minLen, maxLen int, magLo, magHi float64) Series {
	return Series{Step: step, Values: episodes(rng, n, count, minLen, maxLen, magLo, magHi)}
}
