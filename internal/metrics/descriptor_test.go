package metrics

import (
	"fmt"
	"math"
	"testing"
)

// Two registries that register one series hand out one label map and one
// template slice, neither of them the caller's map; a counter and a gauge of
// one name and labels share neither.
func TestEqualSeriesShareOneDescription(t *testing.T) {
	labels := Labels{"service": "share-api", "backend": "share-api-cluster-1"}
	a, b := NewRegistry(), NewRegistry()
	for _, r := range []*Registry{a, b} {
		r.Counter("share_total", labels).Inc()
		r.Gauge("share_total", labels).Set(2)
		r.Histogram("share_latency", labels, []float64{0.01, 0.1, 1}).Observe(0.05)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa) != len(sb) || len(sa) != 2+4+2 {
		t.Fatalf("snapshots of %d and %d samples, want 8 each", len(sa), len(sb))
	}
	for i := range sa {
		if !SameMap(sa[i].Labels, sb[i].Labels) {
			t.Errorf("sample %d (%s%v): two registries hand out two maps", i, sa[i].Name, sa[i].Labels)
		}
		if SameMap(sa[i].Labels, labels) {
			t.Errorf("sample %d (%s): the registry kept the caller's map", i, sa[i].Name)
		}
	}
	for i := range a.order {
		if ta, tb := a.order[i].templates, b.order[i].templates; &ta[0] != &tb[0] {
			t.Errorf("series %d (%s): two registries hold two template slices", i, a.order[i].name)
		}
		if !SameMap(a.order[i].desc.labels, b.order[i].desc.labels) {
			t.Errorf("series %d (%s): two registries hold two label maps", i, a.order[i].name)
		}
	}
	if SameMap(sa[0].Labels, sa[1].Labels) || &a.order[0].templates[0] == &a.order[1].templates[0] {
		t.Error("a counter and a gauge of one name and labels share a description")
	}
	if sa[0].Kind != KindCounter || sa[1].Kind != KindGauge {
		t.Errorf("kinds %v and %v, want counter and gauge", sa[0].Kind, sa[1].Kind)
	}
}

// Histograms of one name and labels but other bounds never share a
// description, and each writes its own "le"s; a -0 bound is another bound,
// since it is written "-0". The same bounds in another order do share.
func TestHistogramsOfOtherBoundsDoNotShare(t *testing.T) {
	labels := Labels{"backend": "bounds"}
	bounds := [][]float64{{0, 0.5, 1}, {0, 0.25, 1}, {1, 0.5, 0}, {math.Copysign(0, -1), 0.5, 1}}
	snaps := make([][]Sample, len(bounds))
	for i, b := range bounds {
		r := NewRegistry()
		r.Histogram("bounds_latency", labels, b)
		snaps[i] = r.Snapshot()
	}
	for i, want := range []string{"0 0.5 1 +Inf", "0 0.25 1 +Inf", "0 0.5 1 +Inf", "-0 0.5 1 +Inf"} {
		s := snaps[i]
		if got := fmt.Sprintf("%s %s %s %s", s[0].Labels["le"], s[1].Labels["le"], s[2].Labels["le"], s[3].Labels["le"]); got != want {
			t.Errorf("bounds %v write le %s, want %s", bounds[i], got, want)
		}
	}
	for i, share := range []bool{false, true, false} {
		for j := range snaps[0] {
			if SameMap(snaps[0][j].Labels, snaps[i+1][j].Labels) != share {
				t.Errorf("bounds %v and %v, sample %d (%s): shared %v, want %v",
					bounds[0], bounds[i+1], j, snaps[0][j].Name, !share, share)
			}
		}
	}
}

// A full table is cleared. A series registered before keeps its description
// and snapshots as before; registered again, it gets a new description whose
// samples equal the old ones.
func TestFullDescriptorTableClears(t *testing.T) {
	labels := Labels{"backend": "cleared"}
	before := NewRegistry()
	before.Histogram("cleared_latency", labels, []float64{0.1, 1}).Observe(0.5)
	old := before.Snapshot()
	key := descriptorKey{0, seriesKey("cleared_latency", labels)}
	for i := 0; described.holds(key); i++ {
		if i > descriptorCap {
			t.Fatalf("%d descriptors entered and the table still holds the first", i)
		}
		filler := Labels{"i": fmt.Sprint(i)}
		described.get(KindCounter, seriesKey("filler_total", filler), filler, nil)
	}
	if n := described.len(); n > 1 {
		t.Fatalf("the table holds %d descriptors after it cleared, want 1", n)
	}
	after := NewRegistry()
	after.Histogram("cleared_latency", labels, []float64{0.1, 1}).Observe(0.5)
	if got := before.Snapshot(); !sameSamples(got, old) || !SameMap(got[0].Labels, old[0].Labels) {
		t.Fatalf("the registry's samples changed when the table cleared:\n%v\n%v", got, old)
	}
	renewed := after.Snapshot()
	if !sameSamples(renewed, old) {
		t.Fatalf("registered again: %v, want %v", renewed, old)
	}
	if SameMap(renewed[0].Labels, old[0].Labels) {
		t.Fatal("registered again after the table cleared, the series has its old map")
	}
}

// Registries on several goroutines that register and snapshot the same series
// at once all end up with one map and one template slice per series.
func TestConcurrentRegistriesShareOneDescription(t *testing.T) {
	const workers, series = 4, 50
	snaps := make([][]Sample, workers)
	done := make(chan int)
	for w := 0; w < workers; w++ {
		go func() {
			r := NewRegistry()
			for i := 0; i < series; i++ {
				labels := Labels{"backend": fmt.Sprint("concurrent-", i)}
				r.Counter("concurrent_total", labels).Inc()
				r.Histogram("concurrent_latency", labels, []float64{0.1, 1}).Observe(0.5)
				r.Snapshot()
			}
			snaps[w] = r.Snapshot()
			done <- w
		}()
	}
	for range workers {
		<-done
	}
	for w := 1; w < workers; w++ {
		if len(snaps[w]) != len(snaps[0]) {
			t.Fatalf("worker %d snapshots %d samples, worker 0 %d", w, len(snaps[w]), len(snaps[0]))
		}
		for i, s := range snaps[w] {
			if !SameMap(s.Labels, snaps[0][i].Labels) || s.Name != snaps[0][i].Name {
				t.Fatalf("worker %d sample %d: %s%v is not worker 0's %s%v", w, i, s.Name, s.Labels, snaps[0][i].Name, snaps[0][i].Labels)
			}
		}
	}
}
