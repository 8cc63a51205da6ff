package metrics

import "unsafe"

// MapIndex finds what a label map object last resolved to — a stored series,
// a gate's per-series state — without hashing or comparing its pairs. A store
// keeps one per metric name (a histogram's _sum and _count share a template
// map) and checks it before Hash and Equal; a miss takes the hash path, which
// stays the only way to resolve, and reports what it found to Resolved.
//
// An entry is made only when one map object resolves one value on two
// hash-path sightings in a row, and dropped when that value arrives under
// another map: Registry templates and ParseExposition's table, one map per
// series for life, are indexed from the third scrape on; a fresh map per
// sample (the table past its capacity, a Clone) never is, and pins nothing.
// An entry holds its map, so its address cannot be reused while indexed. The
// index rests on the Labels contract: a map handed to a store is never
// modified afterwards. The zero value is an empty index.
type MapIndex[T any] struct {
	m map[unsafe.Pointer]*T
}

// MapSighting is what an indexed value keeps of the maps it was resolved
// under; its zero value has seen none.
type MapSighting struct {
	last    uintptr        // the map of the last hash-path resolution; an address only, so it pins nothing
	indexed unsafe.Pointer // the map the index holds for this value, nil when none
}

// identity is the map object behind l, nil for a nil map: a map value is one
// pointer to it, read without building a reflect.Value per sample.
func identity(l Labels) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&l)) }

// Lookup returns the value l's map object is indexed to, or nil.
func (ix *MapIndex[T]) Lookup(l Labels) *T { return ix.m[identity(l)] }

// Indexes reports whether the index holds l's map object for this sighting's
// value: exactly when that index's Lookup(l) returns the value.
func (s *MapSighting) Indexes(l Labels) bool {
	return s.indexed != nil && s.indexed == identity(l)
}

// Resolved records that the hash path resolved l to v, whose sighting is
// seen: it drops v's entry under another map, and makes one under l's map
// when the previous hash-path resolution of v came by the same map.
func (ix *MapIndex[T]) Resolved(l Labels, v *T, seen *MapSighting) {
	id := identity(l)
	if id == nil {
		return
	}
	if seen.indexed != nil {
		delete(ix.m, seen.indexed)
		seen.indexed = nil
	}
	if uintptr(id) != seen.last {
		seen.last = uintptr(id)
		return
	}
	if ix.m == nil {
		ix.m = make(map[unsafe.Pointer]*T)
	}
	ix.m[id] = v
	seen.indexed = id
}

// Len returns the number of entries.
func (ix *MapIndex[T]) Len() int { return len(ix.m) }
