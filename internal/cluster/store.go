// Package cluster provides the Kubernetes-flavoured control-plane substrate
// the L3 operator runs on: a typed object store with resource versions and
// watch notifications, a retrying reconcile work-queue, and lease-based
// leader election (§4 of the paper describes L3 as a Kubernetes operator
// with control loops and a lease-locked leader).
//
// The substrate is event-driven on the virtual clock of internal/sim rather
// than goroutine-driven, which keeps simulations deterministic.
package cluster

import (
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Object is anything storable: it must expose a stable name unique within
// its store.
type Object interface {
	ObjectName() string
}

// EventType classifies a watch notification.
type EventType int

const (
	// Added fires when an object is first created.
	Added EventType = iota + 1
	// Updated fires when an existing object is replaced.
	Updated
	// Deleted fires when an object is removed.
	Deleted
)

// String returns the event type's name.
func (t EventType) String() string {
	switch t {
	case Added:
		return "added"
	case Updated:
		return "updated"
	case Deleted:
		return "deleted"
	default:
		return "unknown"
	}
}

// Event is one watch notification.
type Event[T Object] struct {
	Type   EventType
	Object T
}

// Errors returned by Store operations.
var (
	ErrAlreadyExists = errors.New("cluster: object already exists")
	ErrNotFound      = errors.New("cluster: object not found")
)

// Store is a typed object store with watch support. Watch handlers are
// invoked synchronously in mutation order; handlers must not mutate the
// store re-entrantly. Safe for concurrent use.
type Store[T Object] struct {
	mu       sync.Mutex
	items    map[string]T
	versions map[string]uint64
	// rv is written under mu and read without it: a reader that sees an
	// unchanged version may keep what it derived from an earlier Get.
	rv atomic.Uint64
	// watchers is in registration order and copy-on-write: Watch and cancel
	// replace the slice, so a mutation hands the one it read under mu to
	// notify without copying it.
	watchers []*watcher[T]
}

type watcher[T Object] struct{ fn func(Event[T]) }

// NewStore returns an empty store.
func NewStore[T Object]() *Store[T] {
	return &Store[T]{
		items:    make(map[string]T),
		versions: make(map[string]uint64),
	}
}

// Create inserts a new object. It fails with ErrAlreadyExists if the name
// is taken.
func (s *Store[T]) Create(obj T) error {
	s.mu.Lock()
	name := obj.ObjectName()
	if _, ok := s.items[name]; ok {
		s.mu.Unlock()
		return ErrAlreadyExists
	}
	s.items[name] = obj
	s.versions[name] = s.rv.Add(1)
	watchers := s.watchers
	s.mu.Unlock()
	notify(watchers, Event[T]{Type: Added, Object: obj})
	return nil
}

// Update replaces an existing object. It fails with ErrNotFound if absent.
func (s *Store[T]) Update(obj T) error {
	s.mu.Lock()
	name := obj.ObjectName()
	if _, ok := s.items[name]; !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	s.items[name] = obj
	s.versions[name] = s.rv.Add(1)
	watchers := s.watchers
	s.mu.Unlock()
	notify(watchers, Event[T]{Type: Updated, Object: obj})
	return nil
}

// Delete removes an object by name. It fails with ErrNotFound if absent.
func (s *Store[T]) Delete(name string) error {
	s.mu.Lock()
	obj, ok := s.items[name]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	delete(s.items, name)
	delete(s.versions, name)
	s.rv.Add(1)
	watchers := s.watchers
	s.mu.Unlock()
	notify(watchers, Event[T]{Type: Deleted, Object: obj})
	return nil
}

// Get returns the object by name with its resource version.
func (s *Store[T]) Get(name string) (obj T, version uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok = s.items[name]
	return obj, s.versions[name], ok
}

// List returns all objects sorted by name.
func (s *Store[T]) List() []T {
	s.mu.Lock()
	names := make([]string, 0, len(s.items))
	for n := range s.items {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]T, 0, len(names))
	for _, n := range names {
		out = append(out, s.items[n])
	}
	s.mu.Unlock()
	return out
}

// Len returns the number of stored objects.
func (s *Store[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// ResourceVersion returns the store's monotonically increasing version,
// bumped by every mutation. It takes no lock, so a per-request reader can
// poll it and call Get only when it has moved.
func (s *Store[T]) ResourceVersion() uint64 { return s.rv.Load() }

// Watch registers fn to be called synchronously on every subsequent
// mutation. It returns a cancel function; after cancel, no further events
// are delivered. If replay is true, fn is first called with a synthetic
// Added event per existing object (list-then-watch semantics).
func (s *Store[T]) Watch(replay bool, fn func(Event[T])) (cancel func()) {
	s.mu.Lock()
	w := &watcher[T]{fn}
	s.watchers = append(slices.Clone(s.watchers), w)
	var existing []T
	if replay {
		for _, obj := range s.items {
			existing = append(existing, obj)
		}
		sort.Slice(existing, func(i, j int) bool {
			return existing[i].ObjectName() < existing[j].ObjectName()
		})
	}
	s.mu.Unlock()
	for _, obj := range existing {
		fn(Event[T]{Type: Added, Object: obj})
	}
	return func() {
		s.mu.Lock()
		s.watchers = slices.DeleteFunc(slices.Clone(s.watchers), func(x *watcher[T]) bool { return x == w })
		s.mu.Unlock()
	}
}

func notify[T Object](watchers []*watcher[T], ev Event[T]) {
	for _, w := range watchers {
		w.fn(ev)
	}
}
