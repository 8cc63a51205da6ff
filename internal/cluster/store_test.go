package cluster

import (
	"errors"
	"sync"
	"testing"
)

type obj struct {
	name string
	val  int
}

func (o obj) ObjectName() string { return o.name }

func TestStoreCreateGet(t *testing.T) {
	s := NewStore[obj]()
	if err := s.Create(obj{name: "a", val: 1}); err != nil {
		t.Fatal(err)
	}
	got, ver, ok := s.Get("a")
	if !ok || got.val != 1 || ver == 0 {
		t.Fatalf("Get = %+v, %d, %v", got, ver, ok)
	}
	if _, _, ok := s.Get("missing"); ok {
		t.Fatal("Get of missing object succeeded")
	}
}

func TestStoreCreateDuplicateFails(t *testing.T) {
	s := NewStore[obj]()
	_ = s.Create(obj{name: "a"})
	if err := s.Create(obj{name: "a"}); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("duplicate Create err = %v, want ErrAlreadyExists", err)
	}
}

func TestStoreUpdate(t *testing.T) {
	s := NewStore[obj]()
	if err := s.Update(obj{name: "a"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Update of missing err = %v", err)
	}
	_ = s.Create(obj{name: "a", val: 1})
	if err := s.Update(obj{name: "a", val: 2}); err != nil {
		t.Fatal(err)
	}
	got, _, _ := s.Get("a")
	if got.val != 2 {
		t.Fatalf("val = %d, want 2", got.val)
	}
}

func TestStoreUpdateIfVersion(t *testing.T) {
	s := NewStore[obj]()
	_ = s.Create(obj{name: "a", val: 1})
	_, ver, _ := s.Get("a")
	if err := s.UpdateIfVersion(obj{name: "a", val: 2}, ver); err != nil {
		t.Fatal(err)
	}
	// Stale version now conflicts.
	if err := s.UpdateIfVersion(obj{name: "a", val: 3}, ver); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale update err = %v, want ErrConflict", err)
	}
	if err := s.UpdateIfVersion(obj{name: "zz", val: 3}, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing update err = %v, want ErrNotFound", err)
	}
	got, _, _ := s.Get("a")
	if got.val != 2 {
		t.Fatalf("val = %d, want 2 (stale write must not land)", got.val)
	}
}

func TestStoreDelete(t *testing.T) {
	s := NewStore[obj]()
	_ = s.Create(obj{name: "a"})
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("a"); ok {
		t.Fatal("object still present after delete")
	}
	if err := s.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete err = %v", err)
	}
}

func TestStoreListSorted(t *testing.T) {
	s := NewStore[obj]()
	for _, n := range []string{"c", "a", "b"} {
		_ = s.Create(obj{name: n})
	}
	list := s.List()
	if len(list) != 3 || list[0].name != "a" || list[2].name != "c" {
		t.Fatalf("List = %+v, want sorted a,b,c", list)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStoreResourceVersionMonotone(t *testing.T) {
	s := NewStore[obj]()
	v0 := s.ResourceVersion()
	_ = s.Create(obj{name: "a"})
	v1 := s.ResourceVersion()
	_ = s.Update(obj{name: "a", val: 1})
	v2 := s.ResourceVersion()
	_ = s.Delete("a")
	v3 := s.ResourceVersion()
	if !(v0 < v1 && v1 < v2 && v2 < v3) {
		t.Fatalf("versions not monotone: %d %d %d %d", v0, v1, v2, v3)
	}
}

func TestWatchReceivesMutations(t *testing.T) {
	s := NewStore[obj]()
	var events []Event[obj]
	cancel := s.Watch(false, func(e Event[obj]) { events = append(events, e) })
	_ = s.Create(obj{name: "a", val: 1})
	_ = s.Update(obj{name: "a", val: 2})
	_ = s.Delete("a")
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	wantTypes := []EventType{Added, Updated, Deleted}
	for i, w := range wantTypes {
		if events[i].Type != w {
			t.Fatalf("event %d type = %v, want %v", i, events[i].Type, w)
		}
	}
	cancel()
	_ = s.Create(obj{name: "b"})
	if len(events) != 3 {
		t.Fatal("event delivered after cancel")
	}
}

func TestWatchReplayListsExisting(t *testing.T) {
	s := NewStore[obj]()
	_ = s.Create(obj{name: "b"})
	_ = s.Create(obj{name: "a"})
	var names []string
	s.Watch(true, func(e Event[obj]) {
		if e.Type == Added {
			names = append(names, e.Object.name)
		}
	})
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("replay = %v, want [a b] sorted", names)
	}
}

func TestMultipleWatchersAllNotified(t *testing.T) {
	s := NewStore[obj]()
	n1, n2 := 0, 0
	s.Watch(false, func(Event[obj]) { n1++ })
	s.Watch(false, func(Event[obj]) { n2++ })
	_ = s.Create(obj{name: "a"})
	if n1 != 1 || n2 != 1 {
		t.Fatalf("watcher counts = %d, %d", n1, n2)
	}
}

// TestWatchCancelDuringNotify pins what a mutation does with the watcher list
// while handlers change it: handlers run in registration order; one cancelled
// (or registered) by an earlier handler of the same event still gets (or does
// not get) that event, and the change holds from the next mutation on.
func TestWatchCancelDuringNotify(t *testing.T) {
	s := NewStore[obj]()
	var order []string
	var cancelSecond func()
	s.Watch(false, func(Event[obj]) {
		order = append(order, "first")
		if cancelSecond != nil {
			cancelSecond()
			cancelSecond = nil
			s.Watch(false, func(Event[obj]) { order = append(order, "late") })
		}
	})
	cancelSecond = s.Watch(false, func(Event[obj]) { order = append(order, "second") })
	s.Watch(false, func(Event[obj]) { order = append(order, "third") })
	_ = s.Create(obj{name: "a"})
	_ = s.Update(obj{name: "a", val: 1})
	want := []string{"first", "second", "third", "first", "third", "late"}
	if len(order) != len(want) {
		t.Fatalf("notified %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("notified %v, want %v", order, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Update(obj{name: "a", val: 2}) }); allocs != 0 {
		t.Fatalf("a mutation with watchers allocates %.1f objects, want 0", allocs)
	}
}

// TestStoreVersionPolledDuringWrites runs the data plane's read pattern —
// poll ResourceVersion without the lock, Get when it moved — and watcher
// churn against a writer, for the race detector: a reader never sees a
// version newer than the object it then reads.
func TestStoreVersionPolledDuringWrites(t *testing.T) {
	s := NewStore[obj]()
	_ = s.Create(obj{name: "a"})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen uint64
			for i := 0; i < 2000; i++ {
				if v := s.ResourceVersion(); v != seen {
					o, version, _ := s.Get("a")
					if version < v || uint64(o.val)+1 != version {
						t.Errorf("polled version %d, then read val %d at version %d", v, o.val, version)
						return
					}
					seen = v
				}
				s.Watch(false, func(Event[obj]) {})()
			}
		}()
	}
	for i := 1; i <= 2000; i++ {
		_ = s.Update(obj{name: "a", val: i}) // version i+1
	}
	wg.Wait()
}

func TestEventTypeString(t *testing.T) {
	if Added.String() != "added" || Updated.String() != "updated" || Deleted.String() != "deleted" {
		t.Fatal("event type names wrong")
	}
	if EventType(0).String() != "unknown" {
		t.Fatal("zero event type should be unknown")
	}
}
