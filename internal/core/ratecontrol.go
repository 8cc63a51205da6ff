package core

import (
	"math"
	"time"

	"l3/internal/ewma"
)

// RateControlConfig parameterises Algorithm 2.
type RateControlConfig struct {
	// RPSHalfLife is the half-life of the total-RPS EWMA the relative
	// change is computed against (default 10 s, like the per-backend RPS
	// filter).
	RPSHalfLife time.Duration
}

func (c RateControlConfig) withDefaults() RateControlConfig {
	if c.RPSHalfLife <= 0 {
		c.RPSHalfLife = 10 * time.Second
	}
	return c
}

// RateControlAdjust is the pure weight-adjustment function of Algorithm 2
// lines 4-12 (Equation 5 and its decrease-side counterparts): given the
// relative RPS change c, a backend's weight wb and the average weight wMu,
// it returns the adjusted weight (before the floor).
//
//   - c > 0 (RPS rising): every weight converges toward the average so the
//     surge spreads across all backends.
//   - c < 0, wb ≤ wMu (RPS falling, slow backend): the weight shrinks,
//     opportunistically shifting share to faster backends.
//   - c < 0, wb > wMu (RPS falling, fast backend): the weight grows away
//     from the average.
//   - c = 0: the weight is unchanged.
func RateControlAdjust(c, wb, wMu float64) float64 {
	switch {
	case c > 0:
		k := math.Pow(1+c*c, 1.5)
		return wMu - wMu/k + wb/k
	case c < 0:
		if wb <= wMu {
			return wb / math.Pow(1+2*c*c, 1.5)
		}
		return 2*wb - wMu - (wb-wMu)/math.Pow(1+3*c*c, 1.5)
	default:
		return wb
	}
}

// RateController implements Algorithm 2 statefully: it maintains the EWMA
// of total RPS and rewrites a weight set whenever the newest RPS sample
// deviates from it. Not safe for concurrent use.
type RateController struct {
	cfg      RateControlConfig
	totalRPS *ewma.EWMA
	lastC    float64
	names    []string // the last Apply's weight names, sorted
}

// NewRateController returns a controller with cfg (zero fields take
// defaults).
func NewRateController(cfg RateControlConfig) *RateController {
	cfg = cfg.withDefaults()
	return &RateController{
		cfg:      cfg,
		totalRPS: ewma.New(cfg.RPSHalfLife, 0),
	}
}

// Apply adjusts weights in place per Algorithm 2, given the newest total
// RPS sample, and returns the same map. The relative change is computed
// against the EWMA before the sample is folded in, since the EWMA's lag is
// exactly what makes the comparison meaningful.
func (rc *RateController) Apply(now time.Duration, weights map[string]float64, rpsLast float64) map[string]float64 {
	c := rc.relativeChange(rpsLast)
	rc.observe(now, rpsLast)
	rc.lastC = c
	if len(weights) == 0 {
		return weights
	}

	// The mean is summed in name order, so one input is one bit pattern.
	rc.names = sortedKeys(rc.names, weights)
	var sum float64
	for _, b := range rc.names {
		sum += weights[b]
	}
	wMu := sum / float64(len(weights))

	for _, b := range rc.names {
		w := RateControlAdjust(c, weights[b], wMu)
		if w < minWeight { // braking never zeroes a backend out
			w = minWeight
		}
		weights[b] = w
	}
	return weights
}

// LastRelativeChange returns the c computed by the most recent Apply, for
// instrumentation.
func (rc *RateController) LastRelativeChange() float64 { return rc.lastC }

// RPSEWMA returns the current filtered total-RPS value.
func (rc *RateController) RPSEWMA() float64 { return rc.totalRPS.Value() }

func (rc *RateController) observe(now time.Duration, rps float64) {
	rc.totalRPS.Observe(now, rps)
}

// relativeChange is Algorithm 2 line 1: (RPS_last − RPS_EWMA) / RPS_EWMA,
// with a zero EWMA (no history) mapping to no change.
func (rc *RateController) relativeChange(rpsLast float64) float64 {
	e := rc.totalRPS.Value()
	if e <= 0 {
		return 0
	}
	return (rpsLast - e) / e
}
