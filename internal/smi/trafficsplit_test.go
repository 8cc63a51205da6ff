package smi

import (
	"errors"
	"maps"
	"testing"

	"l3/internal/cluster"
)

func split() *TrafficSplit {
	return &TrafficSplit{
		Name:        "books",
		RootService: "books.default.svc",
		Backends: []Backend{
			{Service: "books-east", Weight: 500},
			{Service: "books-west", Weight: 500},
		},
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := split().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*TrafficSplit)
		want   error
	}{
		{"no name", func(ts *TrafficSplit) { ts.Name = "" }, ErrNoName},
		{"no root", func(ts *TrafficSplit) { ts.RootService = "" }, ErrNoRootService},
		{"no backends", func(ts *TrafficSplit) { ts.Backends = nil }, ErrNoBackends},
		{"negative weight", func(ts *TrafficSplit) { ts.Backends[0].Weight = -1 }, ErrNegativeWeight},
		{"duplicate backend", func(ts *TrafficSplit) { ts.Backends[1].Service = ts.Backends[0].Service }, ErrDuplicate},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ts := split()
			tt.mutate(ts)
			if err := ts.Validate(); !errors.Is(err, tt.want) {
				t.Fatalf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestTotalWeightAndNames(t *testing.T) {
	ts := split()
	if ts.TotalWeight() != 1000 {
		t.Fatalf("TotalWeight = %d", ts.TotalWeight())
	}
	names := ts.BackendNames()
	if len(names) != 2 || names[0] != "books-east" || names[1] != "books-west" {
		t.Fatalf("BackendNames = %v", names)
	}
}

func TestWithWeights(t *testing.T) {
	ts := split()
	next, err := ts.WithWeights(map[string]int64{"books-west": 123})
	if err != nil {
		t.Fatalf("WithWeights of an existing backend failed: %v", err)
	}
	if next == ts || next.Backends[0].Weight != 500 || next.Backends[1].Weight != 123 {
		t.Fatalf("next version = %v, want books-east=500 books-west=123 in a new split", next)
	}
	if ts.Backends[1].Weight != 500 {
		t.Fatalf("WithWeights changed the version it was called on: %v", ts)
	}
	for _, c := range []struct {
		w    map[string]int64
		want error
	}{
		{map[string]int64{"books-east": 1, "missing": 1}, ErrUnknownBackend},
		{map[string]int64{"books-west": 1, "books-east": -5}, ErrNegativeWeight},
	} {
		if next, err := ts.WithWeights(c.w); !errors.Is(err, c.want) || next != nil {
			t.Errorf("WithWeights(%v) = %v, %v; want no version and %v", c.w, next, err, c.want)
		}
	}
	if ts.Backends[0].Weight != 500 || ts.Backends[1].Weight != 500 {
		t.Fatalf("a rejected write changed the split: %v", ts)
	}
}

func TestCloneIsDeep(t *testing.T) {
	ts := split()
	c := ts.Clone()
	c.Backends[0].Weight = 9999
	if ts.Backends[0].Weight == 9999 {
		t.Fatal("Clone shares backend storage")
	}
}

// A stored split is one immutable version: Create keeps the split it is
// handed, Get returns it, and a write stores the next version without
// touching the one a reader holds.
func TestStoreValueSemantics(t *testing.T) {
	s := NewStore()
	ts := split()
	if err := s.Create(ts); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("books")
	if !ok || got != ts {
		t.Fatalf("Get = %p, want the created split %p", got, ts)
	}
	next, err := got.WithWeights(map[string]int64{"books-east": 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update(next); err != nil {
		t.Fatal(err)
	}
	if got.Backends[0].Weight != 500 {
		t.Fatal("a write changed the version a reader holds")
	}
	if again, _ := s.Get("books"); again != next || s.List()[0] != next {
		t.Fatal("Get or List does not return the stored version")
	}
}

func TestStoreRejectsInvalid(t *testing.T) {
	s := NewStore()
	bad := split()
	bad.Backends = nil
	if err := s.Create(bad); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("Create invalid err = %v", err)
	}
	_ = s.Create(split())
	bad2 := split()
	bad2.Backends[0].Weight = -1
	if err := s.Update(bad2); !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("Update invalid err = %v", err)
	}
}

func TestStoreUpdateDeleteList(t *testing.T) {
	s := NewStore()
	_ = s.Create(split())
	ts, _ := s.Get("books")
	ts, _ = ts.WithWeights(map[string]int64{"books-east": 900})
	if err := s.Update(ts); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("books")
	if got.Backends[0].Weight != 900 {
		t.Fatalf("update not visible: %d", got.Backends[0].Weight)
	}
	other := split()
	other.Name = "another"
	_ = s.Create(other)
	if s.Len() != 2 || len(s.List()) != 2 {
		t.Fatalf("Len/List = %d/%d", s.Len(), len(s.List()))
	}
	if s.List()[0].Name != "another" {
		t.Fatal("List not sorted by name")
	}
	if err := s.Delete("books"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("books"); ok {
		t.Fatal("deleted split still readable")
	}
}

func TestStoreWatchDeliversTheStoredVersion(t *testing.T) {
	s := NewStore()
	var seen []*TrafficSplit
	s.Watch(false, func(e cluster.Event[*TrafficSplit]) { seen = append(seen, e.Object) })
	ts := split()
	_ = s.Create(ts)
	next, _ := ts.WithWeights(map[string]int64{"books-east": 1})
	_ = s.Update(next)
	if len(seen) != 2 || seen[0] != ts || seen[1] != next {
		t.Fatalf("watch saw %v, want the created split then its next version", seen)
	}
}

// ScaleWeights sums in the order of names, not of the map: weights whose
// mass adds to 0.6 or to 0.6000000000000001 depending on the order scale to
// 1/1/2 or 1/1/1 at scale 3.
func TestScaleWeightsIsOneResultWhateverTheMapOrder(t *testing.T) {
	var first map[string]int64
	for i := 0; i < 200; i++ {
		w := map[string]float64{"a": 0.1, "b": 0.2, "c": 0.3}
		out := make(map[string]int64)
		if err := ScaleWeights(out, []string{"a", "b", "c"}, w, 3); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = out
		} else if !maps.Equal(out, first) {
			t.Fatalf("call %d scaled to %v, the first to %v", i, out, first)
		}
	}
}

func TestStringFormat(t *testing.T) {
	got := split().String()
	want := "trafficsplit/books[books.default.svc -> books-east=500,books-west=500]"
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
