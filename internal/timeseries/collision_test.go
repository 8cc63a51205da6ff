package timeseries

import (
	"testing"

	"l3/internal/metrics"
)

// Two label sets filed under one hash must stay two series: find confirms
// with Equal and walks the chain.
func TestFamilyKeepsCollidingLabelSetsApart(t *testing.T) {
	f := newFamily(0)
	a, b, c := metrics.Labels{"backend": "a"}, metrics.Labels{"backend": "b"}, metrics.Labels{"backend": "c"}
	const hash = 42
	sa := f.insert(hash, a)
	if got := f.find(hash, b); got != nil {
		t.Fatalf("find(b) returned the series of %v", got.labels)
	}
	sb := f.insert(hash, b)
	if f.find(hash, a) != sa || f.find(hash, b) != sb {
		t.Fatal("colliding series not found behind each other")
	}
	if f.find(hash, c) != nil || f.find(hash+1, a) != nil {
		t.Fatal("find matched a label set that was never inserted")
	}
	if len(f.series) != 2 || len(f.postings["backend"]) != 2 {
		t.Fatalf("family holds %d series, %d backend postings; want 2 and 2", len(f.series), len(f.postings["backend"]))
	}
}
