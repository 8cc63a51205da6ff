package trace

import (
	"math"

	"l3/internal/sim"
)

// walkCoarseStep is the step, in samples, of the underlying coarse random
// walk. The paper's production traces vary on timescales of tens of
// seconds to minutes — sustained excursions a 5-second control loop can
// react to — not white noise; generating the walk at a 20-sample (20 s)
// granularity and interpolating reproduces that temporal structure.
const walkCoarseStep = 20

// walkJitter is the standard deviation of the walk's per-sample relative
// jitter.
const walkJitter = 0.02

// walk produces n samples of a mean-reverting random walk confined to
// [lo, hi], varying on multi-ten-second timescales with a little
// sample-level jitter on top. vol controls the coarse-step volatility
// relative to the band width.
func walk(rng *sim.Rand, n int, lo, hi, vol float64) []float64 {
	coarse, hi := walkCoarse(rng, n, lo, hi, vol)
	out := make([]float64, n)
	for i := range out {
		out[i] = walkSample(coarse, i, rng.Normal(0, walkJitter), lo, hi)
	}
	return out
}

// walkCoarse draws the walk's start and its coarse path, one point every
// walkCoarseStep samples and one past the end, and returns them with the
// band's upper edge (raised to lo when below it).
func walkCoarse(rng *sim.Rand, n int, lo, hi, vol float64) ([]float64, float64) {
	if hi < lo {
		hi = lo
	}
	band := hi - lo
	coarse := make([]float64, n/walkCoarseStep+2)
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
	return coarse, hi
}

// walkSample is the walk's sample i: the coarse path interpolated at i,
// scaled by 1 + jitter (that sample's draw) and clamped to [lo, hi].
func walkSample(coarse []float64, i int, jitter, lo, hi float64) float64 {
	pos := float64(i) / walkCoarseStep
	j := int(pos)
	frac := pos - float64(j)
	v := coarse[j]*(1-frac) + coarse[j+1]*frac
	// Small per-second jitter so the series is not piecewise linear.
	v *= 1 + jitter
	return math.Min(hi, math.Max(lo, v))
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
	for range count {
		e := drawEpisode(rng, n, minLen, maxLen, magLo, magHi)
		for i := 0; i < e.length; i++ {
			if m := e.level(i); m > out[e.start+i] {
				out[e.start+i] = m
			}
		}
	}
	return out
}

// episode is one degradation phase: length steps from start, peaking at mag.
type episode struct {
	start, length int
	mag           float64
}

// drawEpisode draws one episode over n steps: its length, its start, then
// its peak.
func drawEpisode(rng *sim.Rand, n, minLen, maxLen int, magLo, magHi float64) episode {
	length := minLen
	if maxLen > minLen {
		length += rng.IntN(maxLen - minLen)
	}
	if length >= n {
		length = n - 1
	}
	at := rng.IntN(n - length)
	return episode{start: at, length: length, mag: magLo + (magHi-magLo)*rng.Float64()}
}

// level is the episode's multiplier i steps after its start, 0 <= i <
// length: the peak, reached and left over ~5-step half-cosine ramps.
func (e episode) level(i int) float64 {
	const ramp = 5
	env := 1.0
	if i < ramp {
		env = 0.5 - 0.5*math.Cos(math.Pi*float64(i)/ramp)
	} else if i >= e.length-ramp {
		env = 0.5 - 0.5*math.Cos(math.Pi*float64(e.length-1-i)/ramp)
	}
	return 1 + (e.mag-1)*env
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
