package timeseries

import (
	"reflect"
	"time"
	"unsafe"

	"l3/internal/metrics"
)

// Visited returns how many series the database has examined so far while
// resolving selectors, standing or ad hoc.
func Visited(db *DB) uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.visited
}

// SeriesSize is the size of one stored series: the database's fields and
// the index's.
const SeriesSize = unsafe.Sizeof(series{})

// SeriesChunk is how many series one chunk of the index holds: as many as
// fill the 16 KiB size class beside the 8-byte header.
const SeriesChunk = (16<<10 - 8) / SeriesSize

// Spilled returns how many stored series' points no longer alias the window
// the series started with: each has grown onto the heap.
func Spilled(db *DB) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for _, f := range db.families {
		for _, s := range f.series {
			if d := &s.Value; unsafe.SliceData(d.points) != &d.window0[0] {
				n++
			}
		}
	}
	return n
}

// IndexCounts returns how many of the database's index resolutions missed
// the successor and how many took the hash path, and how many label maps the
// index's map step holds. The index keeps these for its own tests; they are
// read off its fields, so that the database's traffic can be checked too.
func IndexCounts(db *DB) (mapped, hashed uint64, indexed int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	ix := reflect.ValueOf(&db.index).Elem()
	for it := ix.FieldByName("byName").MapRange(); it.Next(); {
		indexed += it.Value().Elem().FieldByName("byMap").Len()
	}
	return ix.FieldByName("mapped").Uint(), ix.FieldByName("hashed").Uint(), indexed
}

// Holds reports whether the series stored under (name, labels) holds the map
// labels itself, not merely an equal one.
func Holds(db *DB, name string, labels metrics.Labels) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	f, ok := db.families[name]
	if !ok {
		return false
	}
	id := reflect.ValueOf(labels).UnsafePointer()
	for _, s := range f.series {
		if reflect.ValueOf(s.Labels()).UnsafePointer() == id && s.Labels().Equal(labels) {
			return true
		}
	}
	return false
}

// Scrape snapshots a registry and appends every sample at time t by its
// labels, through the ingestion gate when one is installed: one Prometheus
// scrape pass with no memory of the last. The tests' driver, and the oracle
// the ref-keeping core.Scraper is compared against.
func (db *DB) Scrape(t time.Duration, reg *metrics.Registry) {
	for _, s := range reg.Snapshot() {
		db.AppendSample(s.Name, s.Labels, s.Kind, t, s.Value)
	}
}

// Dump returns a copy of every stored series' points, oldest first, keyed
// by "name{labels}".
func Dump(db *DB) map[string][]Point {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make(map[string][]Point)
	for name, f := range db.families {
		for _, s := range f.series {
			out[name+s.Labels().String()] = append([]Point(nil), s.Value.points...)
		}
	}
	return out
}
