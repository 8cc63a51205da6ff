// Package l3 is the root of a reproduction of "L3: Latency-aware Load
// Balancing in Multi-Cluster Service Mesh" (Middleware '24).
//
// The implementation lives under internal/:
//
//   - internal/core holds the L3 controller (weight assigner, rate
//     controller, metrics collector).
//   - the remaining internal packages are the substrates the paper's
//     evaluation depends on: a discrete-event simulator, a Prometheus-style
//     metrics pipeline, a Kubernetes-flavoured object store with leader
//     election, an SMI TrafficSplit store, a multi-cluster mesh data plane,
//     scenario trace generators, the C3 baseline, a constant-throughput load
//     generator and the DeathStarBench hotel-reservation application model.
//
// See DESIGN.md for the system inventory and the per-figure experiment
// index, and EXPERIMENTS.md for paper-vs-measured results. cmd/l3bench
// regenerates every figure of the paper's evaluation; benchmark/ (its own
// module, declared in BENCHMARK.json) measures what the reproduction costs.
package l3
