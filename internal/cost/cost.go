// Package cost models inter-cluster data-transfer pricing and makes L3
// aware of it — the first extension the paper's conclusion proposes ("L3
// could be extended with additional parameters to make it aware of data
// transmission costs from cloud vendors", §7; §6 notes L3 "lacks awareness
// of the network transfer costs"). The big three clouds charge for any
// transfer leaving a zone, which locality-aware balancing avoids and pure
// latency-aware balancing happily pays.
//
// The Assigner decorator discounts each backend's weight by the marginal
// dollar cost of reaching it from the controller's cluster, with a
// tunable exchange rate λ between dollars and latency: λ = 0 reproduces
// plain L3, larger λ trades tail latency for cheaper traffic.
package cost

import (
	"sort"
	"time"

	"l3/internal/core"
)

// The price of a request, as common public-cloud pricing puts it: transfer
// within a cluster is free, and between clusters it costs interClusterPerGB
// dollars a GB (AWS-like cross-AZ/region transfer). A request moves
// bytesPerRequest, a modest request plus a JSON response.
const (
	interClusterPerGB = 0.02
	bytesPerRequest   = 16 << 10
)

// RequestCost returns the dollar cost of one request from src to dst.
func RequestCost(src, dst string) float64 {
	if src == dst {
		return 0
	}
	return interClusterPerGB * bytesPerRequest / (1 << 30)
}

// TrafficCost prices a request-count matrix keyed by (src, dst) cluster.
// Links are summed in sorted order so the floating-point total is
// reproducible across runs (map iteration order is not).
func TrafficCost(counts map[[2]string]float64) float64 {
	links := make([][2]string, 0, len(counts))
	for link := range counts {
		links = append(links, link)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	var total float64
	for _, link := range links {
		total += counts[link] * RequestCost(link[0], link[1])
	}
	return total
}

// Assigner decorates a core.Assigner with cost awareness: every backend's
// weight is divided by (1 + λ·costSeconds), where costSeconds is the
// backend's marginal transfer cost expressed in the same unit as Lest by
// the exchange rate. With Equation 4's w = 1/((Rᵢ+1)²·Lest) this is
// equivalent to adding a cost term to the estimated latency — dollars
// become virtual milliseconds.
type Assigner struct {
	inner     core.Assigner
	src       string
	clusterOf func(backend string) string
	// lambda converts dollars per request into seconds of virtual
	// latency (seconds per dollar).
	lambda float64
}

var _ core.Assigner = (*Assigner)(nil)

// NewAssigner wraps inner. clusterOf maps a TrafficSplit backend name to
// its cluster; lambda is the dollars→latency exchange rate in seconds per
// dollar (0 disables cost awareness).
func NewAssigner(inner core.Assigner, src string, clusterOf func(string) string, lambda float64) *Assigner {
	if inner == nil || clusterOf == nil {
		panic("cost: NewAssigner requires inner assigner and clusterOf")
	}
	return &Assigner{inner: inner, src: src, clusterOf: clusterOf, lambda: lambda}
}

// Assign implements core.Assigner.
func (a *Assigner) Assign(now time.Duration, m map[string]core.BackendMetrics) map[string]float64 {
	weights := a.inner.Assign(now, m)
	if a.lambda <= 0 {
		return weights
	}
	for b, w := range weights {
		costSeconds := a.lambda * RequestCost(a.src, a.clusterOf(b))
		weights[b] = w / (1 + costSeconds*w)
	}
	return weights
}

// Forget implements core.Assigner.
func (a *Assigner) Forget(b string) { a.inner.Forget(b) }
