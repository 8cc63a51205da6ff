package timeseries

import (
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

// HashResolved returns how many samples the database has resolved by the hash
// path so far: every one whose label map its identity index did not hold.
func HashResolved(db *DB) uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.hashed
}

// MapPathResolved returns how many samples the database has resolved through
// its family map so far: every one whose series the successor rule did not
// predict.
func MapPathResolved(db *DB) uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.mapped
}

// SeriesSize is the size of one stored series' struct.
const SeriesSize = unsafe.Sizeof(series{})

// SeriesChunk is how many series one chunk holds.
const SeriesChunk = seriesChunk

// NewSeries hands out the database's next new series, as an insert takes it,
// and returns its address.
func NewSeries(db *DB) unsafe.Pointer {
	db.mu.Lock()
	defer db.mu.Unlock()
	return unsafe.Pointer(db.newSeries())
}

// Indexed returns how many label maps the database's identity index holds.
func Indexed(db *DB) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for _, f := range db.families {
		n += f.byMap.Len()
	}
	return n
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
	s := f.find(hashLabels(labels), labels)
	return s != nil && metrics.SameMap(s.labels, labels)
}

// ForceHashCollisions, while on, files every label set under one hash, so
// every family is one collision chain.
func ForceHashCollisions(on bool) {
	hashLabels = metrics.Labels.Hash
	if on {
		hashLabels = func(metrics.Labels) uint64 { return 42 }
	}
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
			out[name+s.labels.String()] = append([]Point(nil), s.points...)
		}
	}
	return out
}
