package metrics

import "unsafe"

// Index recognises a scraped sample's series, its metric name and label map,
// and hands back the one Entry that holds a store's value for it, creating
// the entry on first sight. timeseries.DB keeps each series' points in one,
// the hygiene gate each series' admission state in another.
//
// A resolution tries three ways, cheapest first, and all three land on the
// same entry:
//
//   - The successor. A scrape spells its series in the same order every
//     round, so each entry remembers what the resolution after it landed on
//     last time (succ), and a resolution first guesses the successor of the
//     entry the previous one landed on. The guess is taken when the map step
//     below holds this label map for it and it is of this name: exactly when
//     that step would find it. A guess makes, drops and hashes nothing.
//   - The map. Per metric name, the index maps a label map object to the
//     entry it resolved, skipping Hash and Equal. An entry holds one label
//     map: the one it was created with, or the last other equal map the hash
//     path resolved it under. The map step is given that map on its second
//     sighting in a row and loses it when the entry arrives under another
//     map: Registry templates and ParseExposition's table, one map per series
//     for life, are found here from the third scrape on; a fresh map per
//     sample (a Clone) never is. Per name, because a histogram's _sum and
//     _count share one map.
//   - The hash. Per metric name, label sets by Hash, colliding ones chained
//     and told apart by Equal: the only way an entry is created.
//
// The index rests on the Labels contract: a map handed to Resolve is never
// modified afterwards. Entries are carved from chunks that fill the 16 KiB
// size class and live as long as the index. The zero value is an empty
// index. An Index is not safe for concurrent use.
type Index[T any] struct {
	byName map[string]*named[T]
	names  []string // by ordinal: an entry names its metric by a number
	last   *Entry[T]
	spare  []Entry[T] // the rest of the chunk new entries are handed out of
	// mapped and hashed count the resolutions that missed the successor and
	// those that took the hash path, for the tests.
	mapped, hashed uint64
}

// named is one metric name's entries: by the label maps the index has seen
// twice in a row, and by label hash with colliding label sets chained.
type named[T any] struct {
	ordinal uint32
	byMap   map[unsafe.Pointer]*Entry[T]
	byHash  map[uint64]*Entry[T]
}

// Entry is one series: the index's own 32 bytes, then the store's value.
// The fields a resolution reads share a cache line with the start of the
// value, which is what a store reads next.
type Entry[T any] struct {
	labels  Labels
	next    *Entry[T] // the next entry of the name with the same label hash
	succ    *Entry[T] // what the resolution after this entry's landed on last time
	name    uint32    // the metric name's ordinal: a number, not a pointer, keeps the fields at 32 bytes
	indexed bool      // the name's byMap holds labels for this entry

	Value T
}

// Labels returns the label map the entry holds, equal to every map it was
// resolved under.
func (e *Entry[T]) Labels() Labels { return e.labels }

// hashLabels is the hash path's label hash; the collision tests force it.
var hashLabels = Labels.Hash

// identity is the map object behind l, nil for a nil map: a map value is one
// pointer to it, read without building a reflect.Value per sample.
func identity(l Labels) unsafe.Pointer { return *(*unsafe.Pointer)(unsafe.Pointer(&l)) }

// Resolve returns the entry of the series (name, labels), and whether this
// call created it, zeroed.
func (ix *Index[T]) Resolve(name string, labels Labels) (e *Entry[T], created bool) {
	prev := ix.last
	if prev != nil {
		if e = prev.succ; e != nil && e.indexed && identity(e.labels) == identity(labels) && ix.names[e.name] == name {
			ix.last = e
			return e, false
		}
	}
	ix.mapped++
	n := ix.byName[name]
	if n == nil {
		if ix.byName == nil {
			ix.byName = make(map[string]*named[T])
		}
		n = &named[T]{ordinal: uint32(len(ix.names)), byHash: make(map[uint64]*Entry[T])}
		ix.byName[name] = n
		ix.names = append(ix.names, name)
	}
	if e = n.byMap[identity(labels)]; e == nil {
		ix.hashed++
		hash := hashLabels(labels)
		e = n.byHash[hash]
		for e != nil && !e.labels.Equal(labels) {
			e = e.next
		}
		if e == nil {
			e = ix.alloc()
			e.labels, e.next, e.name = labels, n.byHash[hash], n.ordinal
			n.byHash[hash] = e
			created = true
		} else {
			n.sighted(e, labels)
		}
	}
	if prev != nil {
		prev.succ = e
	}
	ix.last = e
	return e, created
}

// sighted records that the hash path resolved e under l. It drops e's map
// entry, then makes one under l when e already holds l; otherwise e holds l
// from now on. A nil map has no identity and changes nothing.
func (n *named[T]) sighted(e *Entry[T], l Labels) {
	id := identity(l)
	if id == nil {
		return
	}
	if e.indexed {
		delete(n.byMap, identity(e.labels))
		e.indexed = false
	}
	if id != identity(e.labels) {
		e.labels = l
		return
	}
	if n.byMap == nil {
		n.byMap = make(map[unsafe.Pointer]*Entry[T])
	}
	n.byMap[id] = e
	e.indexed = true
}

// alloc hands out the next zeroed entry of the current chunk, making a chunk
// when none is left: as many entries as fill the 16 KiB size class beside the
// 8-byte header of a pointer-holding object.
func (ix *Index[T]) alloc() *Entry[T] {
	if len(ix.spare) == 0 {
		ix.spare = make([]Entry[T], max(1, (16<<10-8)/unsafe.Sizeof(Entry[T]{})))
	}
	e := &ix.spare[0]
	ix.spare = ix.spare[1:]
	return e
}
