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

// Config bounds the worker-pool size an Autoscaler may set.
type Config struct {
	Min, Max int
}

// The control law, at common HorizontalPodAutoscaler settings: every
// interval, compare utilisation with target and resize unless it is within
// ±tolerance of it. Scale-ups apply immediately; a scale-down waits until
// utilisation has been below target for scaleDownStabilization, which
// prevents flapping, as in Kubernetes.
const (
	target                 = 0.6
	tolerance              = 0.1
	interval               = 15 * time.Second
	scaleDownStabilization = time.Minute
)

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
		cfg:        cfg,
		belowSince: -1,
	}
}

// Start begins sampling and the control loop.
func (a *Autoscaler) Start() {
	a.sampler = a.engine.Every(time.Second, func() {
		a.sampleΣ += a.replica.Utilization()
		a.sampleN++
	})
	a.ticker = a.engine.Every(interval, a.tick)
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
	ratio := util / target
	switch {
	case ratio > 1+tolerance:
		// Scale up immediately, proportionally to the excess.
		want := clamp(int(math.Ceil(float64(cur)*ratio)), a.cfg.Min, a.cfg.Max)
		if want > cur {
			a.replica.SetConcurrency(want)
			a.scaleUps++
		}
		a.belowSince = -1
	case ratio < 1-tolerance:
		now := a.engine.Now()
		if a.belowSince < 0 {
			a.belowSince = now
			return
		}
		if now-a.belowSince < scaleDownStabilization {
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
		target*100, a.cfg.Min, a.cfg.Max, interval)
}
