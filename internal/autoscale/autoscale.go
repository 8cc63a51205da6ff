// Package autoscale is the horizontal-autoscaling substrate the paper's
// rate controller is designed to cooperate with (§3.2): when L3 spreads a
// load surge across all backends, "the cluster's autoscaling mechanisms
// [can] promptly scale up the faster backends in response", after which
// traffic share to them can rise again; on load drops, scaling down the
// slower backends "increase[s] resource efficiency".
//
// The scaler follows the shape of Kubernetes' HorizontalPodAutoscaler:
// a control loop compares a utilisation measurement against a target and
// resizes the worker pool proportionally, with a stabilisation window
// against flapping and min/max bounds. Utilisation here is busy workers
// over pool size — the analogue of CPU utilisation for the replica model.
package autoscale

import (
	"fmt"
	"math"
	"time"

	"l3/internal/backend"
	"l3/internal/clock"
	"l3/internal/sim"
)

// Config parameterises an Autoscaler.
type Config struct {
	// Target is the desired utilisation in (0, 1] (default 0.6, a common
	// HPA setting).
	Target float64
	// Min and Max bound the worker-pool size (defaults 4 and 1024).
	Min, Max int
	// Interval is the control period (default 15 s, the HPA default).
	Interval time.Duration
	// ScaleDownStabilization delays shrinking until utilisation has been
	// below target for this long (default 60 s), preventing flapping —
	// scale-ups apply immediately, as in Kubernetes.
	ScaleDownStabilization time.Duration
	// Tolerance suppresses resizes within ±Tolerance of the target
	// (default 0.1).
	Tolerance float64
}

func (c Config) withDefaults() Config {
	if c.Target <= 0 || c.Target > 1 {
		c.Target = 0.6
	}
	if c.Min <= 0 {
		c.Min = 4
	}
	if c.Max <= 0 {
		c.Max = 1024
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.Interval <= 0 {
		c.Interval = 15 * time.Second
	}
	if c.ScaleDownStabilization <= 0 {
		c.ScaleDownStabilization = time.Minute
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.1
	}
	return c
}

// Autoscaler resizes one Replica's worker pool on the virtual clock.
type Autoscaler struct {
	engine  *sim.Engine
	replica *backend.Replica
	cfg     Config

	ticker clock.Timer
	// belowSince tracks how long utilisation has been below target, for
	// the scale-down stabilisation window; -1 means "not below".
	belowSince time.Duration

	// samples accumulated between control rounds (utilisation is sampled
	// every second for a steadier signal than one instantaneous read).
	sampler              clock.Timer
	sampleΣ              float64
	sampleN              int
	scaleUps, scaleDowns int
}

// New returns an autoscaler for the replica; call Start to begin.
func New(engine *sim.Engine, replica *backend.Replica, cfg Config) *Autoscaler {
	if engine == nil || replica == nil {
		panic("autoscale: New requires engine and replica")
	}
	return &Autoscaler{
		engine:     engine,
		replica:    replica,
		cfg:        cfg.withDefaults(),
		belowSince: -1,
	}
}

// Start begins sampling and the control loop.
func (a *Autoscaler) Start() {
	a.sampler = a.engine.Every(time.Second, func() {
		a.sampleΣ += a.replica.Utilization()
		a.sampleN++
	})
	a.ticker = a.engine.Every(a.cfg.Interval, a.tick)
}

// Stop halts the loops.
func (a *Autoscaler) Stop() {
	if a.sampler != nil {
		a.sampler.Cancel()
	}
	if a.ticker != nil {
		a.ticker.Cancel()
	}
}

// ScaleEvents returns how many times the pool grew and shrank.
func (a *Autoscaler) ScaleEvents() (ups, downs int) { return a.scaleUps, a.scaleDowns }

func (a *Autoscaler) tick() {
	if a.sampleN == 0 {
		return
	}
	util := a.sampleΣ / float64(a.sampleN)
	a.sampleΣ, a.sampleN = 0, 0

	cur := a.replica.Concurrency()
	ratio := util / a.cfg.Target
	switch {
	case ratio > 1+a.cfg.Tolerance:
		// Scale up immediately, proportionally to the excess.
		want := clamp(int(math.Ceil(float64(cur)*ratio)), a.cfg.Min, a.cfg.Max)
		if want > cur {
			a.replica.SetConcurrency(want)
			a.scaleUps++
		}
		a.belowSince = -1
	case ratio < 1-a.cfg.Tolerance:
		now := a.engine.Now()
		if a.belowSince < 0 {
			a.belowSince = now
			return
		}
		if now-a.belowSince < a.cfg.ScaleDownStabilization {
			return
		}
		want := clamp(int(math.Ceil(float64(cur)*ratio)), a.cfg.Min, a.cfg.Max)
		if want < cur {
			a.replica.SetConcurrency(want)
			a.scaleDowns++
		}
		a.belowSince = now // restart the window after each step down
	default:
		a.belowSince = -1
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// String describes the scaler.
func (a *Autoscaler) String() string {
	return fmt.Sprintf("autoscaler{target=%.0f%% min=%d max=%d every=%v}",
		a.cfg.Target*100, a.cfg.Min, a.cfg.Max, a.cfg.Interval)
}
