package metrics

import "unsafe"

// MapIndex finds what a label map object last resolved to — a stored series,
// a gate's per-series state — without hashing or comparing its pairs. A store
// keeps one per metric name (a histogram's _sum and _count share a template
// map) and checks it before Hash and Equal; a miss takes the hash path, which
// stays the only way to resolve, and reports what it found to Resolved.
//
// Each indexed value holds one label map — the one it was created with, or
// the last other equal map the hash path resolved it under — and a flag that
// says whether the index holds that map for it. An entry is made only when
// the hash path resolves a value under the map it already holds, the second
// sighting of that map in a row, and dropped when the value arrives under
// another map, which it holds from then on: Registry templates and
// ParseExposition's table, one map per series for life, are indexed from the
// third scrape on; a fresh map per sample (a Clone) never is. The index rests
// on the Labels contract: a map handed to a store is never modified
// afterwards. The zero value is an empty index.
type MapIndex[T any] struct {
	m map[unsafe.Pointer]*T
}

// identity is the map object behind l, nil for a nil map: a map value is one
// pointer to it, read without building a reflect.Value per sample.
func identity(l Labels) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&l)) }

// SameMap reports whether a and b are one map object, not merely equal ones.
func SameMap(a, b Labels) bool { return identity(a) == identity(b) }

// Lookup returns the value l's map object is indexed to, or nil.
func (ix *MapIndex[T]) Lookup(l Labels) *T { return ix.m[identity(l)] }

// Resolved records that the hash path resolved l to v, which holds the map
// *held and is indexed under it when *indexed: it drops that entry, and makes
// one under l's map when v already holds it; otherwise v holds l from now on.
func (ix *MapIndex[T]) Resolved(l Labels, v *T, held *Labels, indexed *bool) {
	id := identity(l)
	if id == nil {
		return
	}
	if *indexed {
		delete(ix.m, identity(*held))
		*indexed = false
	}
	if id != identity(*held) {
		*held = l
		return
	}
	if ix.m == nil {
		ix.m = make(map[unsafe.Pointer]*T)
	}
	ix.m[id] = v
	*indexed = true
}

// Len returns the number of entries.
func (ix *MapIndex[T]) Len() int { return len(ix.m) }
