package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if xs[0] != 10 {
		t.Error("quartiles sorted its argument in place")
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the exclusive
	// method extrapolates past the data on tiny samples.
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 5.5/5.5 = 1", got)
	}
	sorted := []float64{1, 2, 3, 4, 5}
	if got := quantileSorted(sorted, 0.99); got != 5 {
		t.Errorf("quantile 0.99 of 1..5 = %v, want 5", got)
	}
	if got := quantileSorted(sorted, 0.5); got != 3 {
		t.Errorf("quantile 0.5 of 1..5 = %v, want 3", got)
	}
}

func TestBestTenthAndSteadyMetrics(t *testing.T) {
	var xs []float64 // 1..25 shuffled by stride
	for i := 0; i < 25; i++ {
		xs = append(xs, float64((i*7)%25+1))
	}
	if got := bestTenth(xs, true); got != 2 { // mean of 1, 2, 3
		t.Errorf("best tenth of 1..25, lower better = %v, want 2", got)
	}
	if got := bestTenth(xs, false); got != 24 { // mean of 23, 24, 25
		t.Errorf("best tenth of 1..25, higher better = %v, want 24", got)
	}
	if got := bestTenth([]float64{4, 2, 3}, true); got != 2 {
		t.Errorf("best tenth of three values = %v, want their minimum", got)
	}
	if got := bestTenth([]float64{4, 2, 3}, false); got != 4 {
		t.Errorf("best tenth of three values, higher better = %v, want their maximum", got)
	}
	if bestTenth(nil, true) != 0 {
		t.Error("bestTenth(nil) is not 0")
	}

	// Two kinds of slice: kind 0 carries 300 ops at best 1 ms/op, kind 1
	// carries 100 ops at best 4 ms/op. Kinds are never compared with each
	// other, only weighted.
	slices := []slice{
		{kind: 0, ops: 100, wall: 100 * time.Millisecond, opMs: 1},
		{kind: 0, ops: 100, wall: 200 * time.Millisecond, opMs: 2},
		{kind: 0, ops: 100, wall: 300 * time.Millisecond, opMs: 3},
		{kind: 1, ops: 50, wall: 200 * time.Millisecond, opMs: 4},
		{kind: 1, ops: 50, wall: 400 * time.Millisecond, opMs: 8},
	}
	if got, want := steadyOpMs(slices), (1.0*300+4.0*100)/400; math.Abs(got-want) > 1e-12 {
		t.Errorf("steadyOpMs = %v, want %v", got, want)
	}
	// 300 ops at 1000/s and 100 ops at 250/s take 0.3 s + 0.4 s.
	if got, want := steadyOpsPerS(slices), 400/0.7; math.Abs(got-want) > 1e-9 {
		t.Errorf("steadyOpsPerS = %v, want %v", got, want)
	}
	if steadyOpMs(nil) != 0 || steadyOpsPerS(nil) != 0 {
		t.Error("steady metrics of no slices are not 0")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "round", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},    // overlaps a: 20 new
		{Name: "c", Parent: 0, Start: 90, End: 120},   // clipped to the parent: 10
		{Name: "leaf", Parent: 1, Start: 15, End: 20}, // grandchild: a's, not round's
	}
	self := selfTimes(spans)
	want := []int64{100 - 30 - 20 - 10, 30 - 5, 30, 30, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	tot := totalsByName(spans)
	if tot["round"].Own != 40 || tot["round"].Total != 100 || tot["a"].Count != 1 {
		t.Errorf("totalsByName = %+v", tot)
	}
}

func TestSpanStackClosesWhatCalleesLeftOpen(t *testing.T) {
	tr := newTracer()
	ss := &spanStack{tr: tr}
	clk := tracedClock{ss: ss, name: "tick"}
	clk.wrap(func() {
		ss.push("left-open")
		if !ss.topIs("left-open") {
			t.Error("topIs does not see the innermost span")
		}
	})()
	if len(ss.stack) != 0 {
		t.Fatalf("%d spans still open after the callback returned", len(ss.stack))
	}
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != 0 || spans[1].End < spans[1].Start {
		t.Errorf("spans = %+v", spans)
	}
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the runner's own
// tables from drifting apart.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the runner %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in the file, %q in the runner", i, w.Name, workloads[i].name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the runner %d", len(file.EndToEnd), len(endToEnd))
	}
	for i, m := range file.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: %+v in the file, %+v in the runner", i, m, d)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the runner %d", len(file.PerLayer), len(perLayer))
	}
	for i, m := range file.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: %+v in the file, %+v in the runner", i, m, d)
		}
	}
}

// TestSmoke runs every workload at about 1/50 size, untraced and traced,
// and wants every named metric present and finite.
func TestSmoke(t *testing.T) {
	start := time.Now()
	p := params{seed: 7, seconds: 1, small: true}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			began := time.Now()
			rec, err := runOnce(wl, p, traced, t.TempDir(), io.Discard)
			t.Logf("%s traced=%v took %v", wl.name, traced, time.Since(began))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				rec2, _ := json.Marshal(rec)
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", wl.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec2)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", wl.name, traced, d.Name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want above 0", wl.name, d.Name, m.Value)
				}
			}
		}
	}
	t.Logf("smoke took %v", time.Since(start))
}
