package trace

import (
	"fmt"
	"time"

	"l3/internal/sim"
)

// ClusterTrace is one cluster's backend behaviour over a scenario: the
// time-varying latency distribution of its service replicas (summarised by
// median and P99, the two statistics the paper plots) plus its success
// rate. The latency distribution at any instant is log-normal, which §3.1
// of the paper takes as the characteristic shape of network service
// latency.
type ClusterTrace struct {
	Cluster string
	Median  Series // seconds
	P99     Series // seconds
	Success Series // fraction in [0, 1]
}

// SampleLatency draws one service-time from the cluster's distribution at
// virtual time now.
func (ct *ClusterTrace) SampleLatency(now time.Duration, rng *sim.Rand) time.Duration {
	med := time.Duration(ct.Median.At(now) * float64(time.Second))
	p99 := time.Duration(ct.P99.At(now) * float64(time.Second))
	return sim.NewLogNormalFromQuantiles(med, p99).Sample(rng)
}

// SampleSuccess draws whether a request at time now succeeds.
func (ct *ClusterTrace) SampleSuccess(now time.Duration, rng *sim.Rand) bool {
	return rng.Bool(ct.Success.At(now))
}

// Scenario is a complete workload: per-cluster backend behaviour plus the
// offered load entering the mesh.
type Scenario struct {
	Name     string
	Duration time.Duration
	Step     time.Duration
	RPS      Series
	Clusters []ClusterTrace
}

// Cluster returns the trace for the named cluster, or nil.
func (s *Scenario) Cluster(name string) *ClusterTrace {
	for i := range s.Clusters {
		if s.Clusters[i].Cluster == name {
			return &s.Clusters[i]
		}
	}
	return nil
}

// ClusterNames returns the cluster names in order.
func (s *Scenario) ClusterNames() []string {
	out := make([]string, len(s.Clusters))
	for i := range s.Clusters {
		out[i] = s.Clusters[i].Cluster
	}
	return out
}

// scenario names accepted by Generate.
const (
	Scenario1 = "scenario-1"
	Scenario2 = "scenario-2"
	Scenario3 = "scenario-3"
	Scenario4 = "scenario-4"
	Scenario5 = "scenario-5"
	Failure1  = "failure-1"
	Failure2  = "failure-2"
)

// Names lists every scenario Generate accepts, in the paper's order.
func Names() []string {
	return []string{Scenario1, Scenario2, Scenario3, Scenario4, Scenario5, Failure1, Failure2}
}

// clusterNames are the three clusters of the paper's testbed.
var clusterNames = []string{"cluster-1", "cluster-2", "cluster-3"}

// Generate synthesises the named scenario with the given seed. The same
// (name, seed) pair always yields the identical scenario.
func Generate(name string, seed uint64) (*Scenario, error) {
	const (
		step     = time.Second
		duration = 10 * time.Minute
	)
	n := int(duration/step) + 1
	rng := sim.NewRand(seed ^ hashName(name))

	sc := &Scenario{Name: name, Duration: duration, Step: step}
	switch name {
	case Scenario1, Failure1:
		// Median 50-100 ms most of the time with cluster-2 peaks up to
		// ~350 ms; P99 fluctuating 100-950 ms; stable ~300 RPS. §5.3.1
		// notes the median of one backend is often worse than the P99 of
		// the others — cluster-2's episodes provide those phases.
		for i, c := range clusterNames {
			p := clusterParams{
				medLo: 0.050, medHi: 0.085,
				ratioLo: 2.0, ratioHi: 3.5,
				epCount: 2, epMinLen: 30, epMaxLen: 60,
				epMagLo: 2.0, epMagHi: 3.0, epMedFraction: 0.3,
				p99Cap: 0.950,
			}
			if i == 1 { // cluster-2 carries the deep sustained episodes
				p.epCount, p.epMinLen, p.epMaxLen = 3, 40, 100
				p.epMagLo, p.epMagHi, p.epMedFraction = 4.5, 6.5, 0.45
			}
			sc.Clusters = append(sc.Clusters, buildCluster(rng.Fork(), c, n, step, p))
		}
		sc.RPS = Series{Step: step, Values: walk(rng.Fork(), n, 280, 320, 0.05)}
	case Scenario2, Failure2:
		// Median 3-9 ms; P99 10-100 ms with intermittent spikes past
		// 2000 ms (sustained for tens of seconds on one cluster at a
		// time); RPS fluctuating between ~45 and 200.
		for _, c := range clusterNames {
			sc.Clusters = append(sc.Clusters, buildCluster(rng.Fork(), c, n, step, clusterParams{
				medLo: 0.0035, medHi: 0.0075,
				ratioLo: 3.0, ratioHi: 11.0,
				epCount: 2, epMinLen: 15, epMaxLen: 40,
				epMagLo: 16, epMagHi: 40, epMedFraction: 0.02,
				p99Cap: 2.4,
			}))
		}
		sc.RPS = Series{Step: step, Values: walk(rng.Fork(), n, 45, 200, 0.35)}
	case Scenario3:
		// Stable median, irregular sustained P99 peaks up to ~2000 ms.
		for _, c := range clusterNames {
			sc.Clusters = append(sc.Clusters, buildCluster(rng.Fork(), c, n, step, clusterParams{
				medLo: 0.040, medHi: 0.070,
				ratioLo: 3.0, ratioHi: 6.0,
				epCount: 3, epMinLen: 25, epMaxLen: 50,
				epMagLo: 3.0, epMagHi: 5.5, epMedFraction: 0.1,
				p99Cap: 2.0,
			}))
		}
		sc.RPS = Series{Step: step, Values: walk(rng.Fork(), n, 150, 250, 0.15)}
	case Scenario4:
		// The most violent tail of the five: P99 spikes toward 5000 ms,
		// in episodes short enough that a 5-second control loop struggles
		// (the paper's gains are smallest here).
		for _, c := range clusterNames {
			sc.Clusters = append(sc.Clusters, buildCluster(rng.Fork(), c, n, step, clusterParams{
				medLo: 0.050, medHi: 0.090,
				ratioLo: 3.0, ratioHi: 7.0,
				epCount: 7, epMinLen: 18, epMaxLen: 32,
				epMagLo: 5.0, epMagHi: 10.0, epMedFraction: 0.05,
				p99Cap: 5.0,
			}))
		}
		sc.RPS = Series{Step: step, Values: walk(rng.Fork(), n, 120, 220, 0.2)}
	case Scenario5:
		// Calm: P99 within ~0-300 ms, cluster medians within a few ms of
		// each other (the paper reports σ = 6.3 ms between backends).
		for _, c := range clusterNames {
			sc.Clusters = append(sc.Clusters, buildCluster(rng.Fork(), c, n, step, clusterParams{
				medLo: 0.038, medHi: 0.052,
				ratioLo: 2.0, ratioHi: 4.0,
				epCount: 3, epMinLen: 30, epMaxLen: 60,
				epMagLo: 1.6, epMagHi: 2.4, epMedFraction: 0.25,
				p99Cap: 0.3,
			}))
		}
		sc.RPS = Series{Step: step, Values: walk(rng.Fork(), n, 150, 220, 0.1)}
	default:
		return nil, fmt.Errorf("trace: unknown scenario %q (valid: %v)", name, Names())
	}

	switch name {
	case Failure1:
		// Average success 91.4 % with intermittent single-cluster drops
		// down to 30 %.
		injectFailures(rng.Fork(), sc, failureParams{
			base: 0.94, baseJitter: 0.03,
			dips: 5, dipDepth: 0.68, dipLen: 25,
		})
	case Failure2:
		// Average success 98.5 %: mostly ~99 % with recurring short dips of
		// a few points; the healthiest backend averages 99.8 %.
		injectFailures(rng.Fork(), sc, failureParams{
			base: 0.99, baseJitter: 0.02,
			dips: 5, dipDepth: 0.065, dipLen: 40,
		})
	}
	return sc, nil
}

func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
