// Package timeseries is a miniature in-memory time-series database in the
// spirit of Prometheus, storing scraped metric samples and answering the
// windowed queries L3 issues: counter rates, gauge averages and
// histogram-quantile estimates over a trailing window.
//
// L3's data-freshness semantics come from this layer: samples only exist at
// scrape instants (every 5 s by default), a rate query needs at least two
// samples inside its window (hence the paper's 10 s window), and per-second
// rates are averages over the sampled interval. Queries return ok=false
// when the window holds insufficient data, which the controller treats as
// "no traffic" and relaxes its filters toward defaults.
package timeseries

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"l3/internal/histogram"
	"l3/internal/metrics"
)

// Point is one sampled value of one series.
type Point struct {
	T time.Duration // virtual scrape time
	V float64
}

// A series is 320 bytes, its first point window included, carved from a
// chunk (DB.newSeries). Its label map may be shared with equal series of
// other registries, since a registry takes it from the process-wide
// descriptor.
type series struct {
	// labels is the map the series was created with, or the last other equal
	// map the hash path resolved it under; indexed says the family's byMap
	// holds it for the series.
	labels metrics.Labels
	points []Point
	// bound is the "le" label parsed once at creation: bucket marks a series
	// HistogramQuantile can use (le is "+Inf" or parses to a number, NaN
	// excluded), inf the +Inf overflow bucket.
	bound                float64
	bucket, inf, indexed bool
	family               uint32  // the family's index in DB.names: a number, not a pointer, keeps the header at 64 bytes
	next                 *series // next series of the family with the same label hash
	succ                 *series // what the resolution after this series' landed on last time
	window0              [pointWindow]Point
}

// family is one metric name's series: in insertion order, by label hash for
// ingest, by label-map identity ahead of the hash, and by postings (label
// name -> value -> series, each list in insertion order) for selector
// queries — the index layout Prometheus's own head block uses.
type family struct {
	ordinal  uint32 // the index of its name in DB.names
	series   []*series
	byHash   map[uint64]*series
	byMap    metrics.MapIndex[series]
	postings map[string]map[string][]*series
}

// hashLabels is the hash path's label hash; the collision tests force it.
var hashLabels = metrics.Labels.Hash

func newFamily(ordinal uint32) *family {
	return &family{ordinal: ordinal, byHash: make(map[uint64]*series), postings: make(map[string]map[string][]*series)}
}

// find returns the family's series with exactly these labels. hash is
// labels.Hash(); distinct label sets that collide share a chain.
func (f *family) find(hash uint64, labels metrics.Labels) *series {
	for s := f.byHash[hash]; s != nil; s = s.next {
		if s.labels.Equal(labels) {
			return s
		}
	}
	return nil
}

// pointWindow is the capacity a new series' points start with, inside the
// series (window0): a minute of 5 s scrapes is 13 points, so a series and
// the window it keeps for life are one slot of a chunk.
const pointWindow = 16

// insert adds s, a zeroed series, under its label hash, holding the labels
// map it was handed, and indexes every pair.
func (f *family) insert(s *series, hash uint64, labels metrics.Labels) *series {
	s.labels, s.family, s.next = labels, f.ordinal, f.byHash[hash]
	s.points = s.window0[:0]
	for k, v := range s.labels {
		byValue := f.postings[k]
		if byValue == nil {
			byValue = make(map[string][]*series)
			f.postings[k] = byValue
		}
		byValue[v] = append(byValue[v], s)
	}
	if le, ok := s.labels["le"]; ok {
		if le == "+Inf" {
			s.bucket, s.inf = true, true
		} else if b, err := strconv.ParseFloat(le, 64); err == nil && b == b {
			s.bucket, s.bound = true, b
		}
	}
	f.byHash[hash] = s
	f.series = append(f.series, s)
	return s
}

// Gate screens samples before ingestion. A gate may rewrite the admitted
// value (e.g. splice a counter reset onto a cumulative offset) or reject the
// sample outright. Implemented by internal/guard's hygiene layer; the
// interface lives here so timeseries does not import its guards.
//
// Gates run on the scrape path only — the request fast path never sees them.
// A label map handed to Admit is never modified afterwards: gates may keep it
// and recognise a series by its map object (see metrics.Labels).
type Gate interface {
	Admit(name string, labels metrics.Labels, kind metrics.Kind, t time.Duration, v float64) (adjusted float64, ok bool)
}

// DB stores samples by (metric name, label set) and answers window queries.
// Safe for concurrent use.
type DB struct {
	// gate is read without mu and called before mu is taken: a gate is
	// caller-supplied code, and one that reads the database must not deadlock.
	gate atomic.Pointer[Gate]

	mu        sync.Mutex
	retention time.Duration
	families  map[string]*family
	// names lists the family names in creation order; a series names its
	// family by an index here.
	names []string
	// last is the series the previous resolution landed on: its succ is the
	// next resolution's guess.
	last *series
	// buckets maps a histogram's base name to its "<name>_bucket" family, so
	// HistogramQuantile concatenates no name per call.
	buckets map[string]*family
	// spare is the rest of the chunk new series are handed out of.
	spare []series

	// Query scratch, reused under mu: the series a label-taking query
	// matched, and HistogramQuantile's per-bound merge.
	matched []*series
	bounds  []float64
	rates   []float64
	counts  []float64
	// visited counts series examined while resolving selectors, for the tests
	// that pin a collect round's cost as linear in the backends it asks about
	// on first sight and as nothing once its selectors stand; mapped and
	// hashed count series resolved through the family map and by the hash
	// path, for those that pin a scrape's.
	visited, mapped, hashed uint64
}

// NewDB returns a database that retains at least the given duration of
// samples per series. Retention must cover the largest query window used;
// anything older may be compacted away.
func NewDB(retention time.Duration) *DB {
	if retention <= 0 {
		retention = 2 * time.Minute
	}
	return &DB{
		retention: retention,
		families:  make(map[string]*family),
		buckets:   make(map[string]*family),
	}
}

// Ref remembers the stored series a scraped sample landed in, so the next
// sample of the same (name, labels) skips the name -> hash -> Equal lookup.
// The zero value is unresolved. A ref belongs to one (name, labels) for its
// life — the database trusts it — and to the database that resolved it: handed
// to another DB it resolves again there. Series are never deleted, so a
// resolved ref stays good for as long as its database does.
type Ref struct {
	db *DB
	s  *series
}

// Append stores one sample, ungated. Appends must be in strictly increasing
// time order per series (scrapes are); out-of-order and duplicate-timestamp
// samples are dropped — a double-fired scrape must not double a window's
// increase. The labels contract is AppendSample's.
func (db *DB) Append(name string, labels metrics.Labels, t time.Duration, v float64) {
	var ref Ref
	db.mu.Lock()
	db.store(&ref, name, labels, t, v)
	db.mu.Unlock()
}

// SetGate installs an ingestion gate applied to samples arriving through
// AppendSample/AppendSampleRef. A nil gate restores raw ingestion. Gates see
// the scrape path only; queries and the data plane are unaffected.
func (db *DB) SetGate(g Gate) {
	if g == nil {
		db.gate.Store(nil)
		return
	}
	db.gate.Store(&g)
}

// AppendSample routes one scraped sample through the gate (when one is
// installed) and stores the admitted, possibly adjusted value. Without a
// gate it is equivalent to Append. The labels map is never modified
// afterwards: the database keeps it as the series' labels, and finds the
// series of a map it has resolved twice in a row by the map object alone
// (see metrics.MapIndex).
func (db *DB) AppendSample(name string, labels metrics.Labels, kind metrics.Kind, t time.Duration, v float64) {
	var ref Ref
	db.AppendSampleRef(&ref, name, labels, kind, t, v)
}

// AppendSampleRef is AppendSample for a caller that keeps one Ref per series
// it scrapes: the first sample resolves the ref, later ones store through it.
// The gate sees (name, labels, ...) for every sample either way and runs
// outside the database's lock, which is then taken once. The labels contract
// is AppendSample's.
func (db *DB) AppendSampleRef(ref *Ref, name string, labels metrics.Labels, kind metrics.Kind, t time.Duration, v float64) {
	if g := db.gate.Load(); g != nil {
		adjusted, ok := (*g).Admit(name, labels, kind, t, v)
		if !ok {
			return
		}
		v = adjusted
	}
	db.mu.Lock()
	db.store(ref, name, labels, t, v)
	db.mu.Unlock()
}

// store appends one point to ref's series, resolving ref first when it is
// empty or another database's. Called under mu.
func (db *DB) store(ref *Ref, name string, labels metrics.Labels, t time.Duration, v float64) {
	s := ref.s
	if s == nil || ref.db != db {
		s = db.resolve(name, labels)
		ref.db, ref.s = db, s
	}
	if n := len(s.points); n > 0 && s.points[n-1].T >= t {
		return
	}
	s.points = append(s.points, Point{T: t, V: v})
	// Compact: drop points older than retention, keeping at least two.
	cutoff := t - db.retention
	drop := 0
	for drop < len(s.points)-2 && s.points[drop].T < cutoff {
		drop++
	}
	if drop > 0 {
		s.points = append(s.points[:0], s.points[drop:]...)
	}
}

// resolve returns the series for (name, labels), creating family and series
// on first sight. A scrape lists its series in the same order every round, so
// it first guesses the series that followed the previous resolution's last
// time, and takes it when the family index holds the labels' map for it and
// it is of this name: exactly when the family map and the index would find
// it, since an index entry for a series exists iff it is indexed under the
// map it holds. A guess makes, drops and hashes nothing. Otherwise the family
// finds the series by the labels' map object when it has indexed it, else by
// hash, which then tells the index what it found, unless it just created it;
// the series becomes the previous one's successor.
func (db *DB) resolve(name string, labels metrics.Labels) *series {
	prev := db.last
	if prev != nil {
		if s := prev.succ; s != nil && s.indexed && metrics.SameMap(s.labels, labels) && db.names[s.family] == name {
			db.last = s
			return s
		}
	}
	db.mapped++
	f, ok := db.families[name]
	if !ok {
		f = newFamily(uint32(len(db.names)))
		db.families[name] = f
		db.names = append(db.names, name)
		if base, ok := strings.CutSuffix(name, "_bucket"); ok {
			db.buckets[base] = f
		}
	}
	s := f.byMap.Lookup(labels)
	if s == nil {
		db.hashed++
		hash := hashLabels(labels)
		if s = f.find(hash, labels); s == nil {
			s = f.insert(db.newSeries(), hash, labels)
		} else {
			f.byMap.Resolved(labels, s, &s.labels, &s.indexed)
		}
	}
	if prev != nil {
		prev.succ = s
	}
	db.last = s
	return s
}

// seriesChunk is how many series one allocation makes: as many as fill the
// 16 KiB size class beside the 8-byte header of a pointer-holding object.
const seriesChunk = int((16<<10 - 8) / unsafe.Sizeof(series{}))

// newSeries hands out the next zeroed series of the current chunk, making a
// chunk when none is left; called under mu.
func (db *DB) newSeries() *series {
	if len(db.spare) == 0 {
		db.spare = make([]series, seriesChunk)
	}
	s := &db.spare[0]
	db.spare = db.spare[1:]
	return s
}

// SeriesCount returns the number of distinct series stored, for tests and
// introspection.
func (db *DB) SeriesCount() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for _, f := range db.families {
		n += len(f.series)
	}
	return n
}

// window extracts the points of s inside (from, to] — Prometheus range
// semantics — by binary search: Append keeps points in strictly increasing
// time order.
func (s *series) window(from, to time.Duration) []Point {
	pts := s.points
	lo := sort.Search(len(pts), func(i int) bool { return pts[i].T > from })
	hi := lo + sort.Search(len(pts)-lo, func(i int) bool { return pts[lo+i].T > to })
	return pts[lo:hi]
}

// matching returns the series of the named family whose labels contain
// match as a subset, in insertion order — the order every multi-series sum
// below adds in, so a query's float result is one bit pattern. The result is
// db.matched, valid until the next call.
func (db *DB) matching(name string, match metrics.Labels) []*series {
	f, ok := db.families[name]
	if !ok {
		return nil
	}
	return db.match(f, match)
}

// match walks the shortest posting list among the selector's pairs and
// verifies each candidate against the whole selector. A pair with an empty
// value selects nothing by postings — it also matches series lacking the
// label — so it is only verified; a selector with no other pair walks the
// family.
func (db *DB) match(f *family, match metrics.Labels) []*series {
	candidates, _, _, ok := f.candidates(match)
	if !ok {
		return nil
	}
	return db.verify(candidates, match)
}

// candidates returns the list match walks: the posting list of the pair
// (label, value) that is the shortest among match's pairs with a value, or
// the family's series when no pair has one (label and value ""). ok is false
// when a pair's list is empty: nothing matches yet.
func (f *family) candidates(match metrics.Labels) (list []*series, label, value string, ok bool) {
	list = f.series
	indexed := false
	for k, v := range match {
		if v == "" {
			continue
		}
		l := f.postings[k][v]
		if len(l) == 0 {
			return nil, "", "", false
		}
		if !indexed || len(l) < len(list) {
			list, label, value, indexed = l, k, v, true
		}
	}
	return list, label, value, true
}

// verify returns the candidates that carry match in db.matched, valid until
// the next call.
func (db *DB) verify(candidates []*series, match metrics.Labels) []*series {
	out := db.matched[:0]
	for _, s := range candidates {
		if s.labels.Matches(match) {
			out = append(out, s)
		}
	}
	db.visited += uint64(len(candidates))
	db.matched = out
	return out
}

// Selector is a standing query target: one family of one database and the
// labels its series must carry, with the series that matched kept in
// insertion order. It keeps the list the first match walked — the posting
// list a label-taking query would walk, or the family's series — and how much
// of it it has examined. Posting lists and a family's series only grow, at
// the end, in insertion order, so when the family grows the selector examines
// only what its list gained, and otherwise no series. A family that does not
// exist yet, or where a pair's list is still empty, is looked for again by
// the next query after it grows.
//
// A Selector is used by one goroutine at a time and not copied once queried;
// its match labels are shared with the caller, which must not change them.
type Selector struct {
	db    *DB
	name  string
	match metrics.Labels

	family *family
	size   int // len(family.series) when series was last brought up to date
	// label and value name the posting list the selector walks, "" the
	// family's series once listed; seen is how many entries it has examined.
	label, value string
	listed       bool
	seen         int
	series       []*series
}

// NewSelector returns a selector over the named family's series carrying
// match. HistogramQuantile wants the histogram's bucket family, "<name>_bucket".
func NewSelector(db *DB, name string, match metrics.Labels) Selector {
	return Selector{db: db, name: name, match: match}
}

// resolved returns the selector's series, examining what its list gained
// when the family has grown. Called under db.mu.
func (sel *Selector) resolved() []*series {
	if sel.family == nil {
		f, ok := sel.db.families[sel.name]
		if !ok {
			return nil
		}
		sel.family = f
	}
	f := sel.family
	if n := len(f.series); n != sel.size {
		sel.size = n
		var list []*series
		switch {
		case !sel.listed:
			var ok bool
			if list, sel.label, sel.value, ok = f.candidates(sel.match); !ok {
				return nil
			}
			sel.listed = true
		case sel.value == "":
			list = f.series
		default:
			list = f.postings[sel.label][sel.value]
		}
		sel.series = append(sel.series, sel.db.verify(list[sel.seen:], sel.match)...)
		sel.seen = len(list)
	}
	return sel.series
}

// increase computes the counter increase across the window's samples,
// tolerating counter resets (a drop restarts accumulation, like Prometheus).
func increase(pts []Point) (delta float64, ok bool) {
	if len(pts) < 2 {
		return 0, false
	}
	prev := pts[0].V
	for _, p := range pts[1:] {
		if p.V >= prev {
			delta += p.V - prev
		} else {
			delta += p.V // reset: counter restarted from 0
		}
		prev = p.V
	}
	return delta, true
}

// Rate returns the summed per-second rate of increase of all series of the
// named counter family matching match, over the window (at-window, at].
// ok is false when no matching series has the two samples a rate needs.
func (db *DB) Rate(name string, match metrics.Labels, at, window time.Duration) (rate float64, ok bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return rateOver(db.matching(name, match), at, window)
}

// Rate is DB.Rate over the selector's series.
func (sel *Selector) Rate(at, window time.Duration) (float64, bool) {
	sel.db.mu.Lock()
	defer sel.db.mu.Unlock()
	return rateOver(sel.resolved(), at, window)
}

func rateOver(matched []*series, at, window time.Duration) (float64, bool) {
	var (
		total float64
		any   bool
	)
	for _, s := range matched {
		pts := s.window(at-window, at)
		delta, ok := increase(pts)
		if !ok {
			continue
		}
		elapsed := (pts[len(pts)-1].T - pts[0].T).Seconds()
		if elapsed <= 0 {
			continue
		}
		total += delta / elapsed
		any = true
	}
	return total, any
}

// GaugeAvg returns the average of all samples of the matching gauge series
// inside the window, across series (avg_over_time of the summed gauge,
// approximated by sample mean per timestamp). ok is false with no samples.
func (db *DB) GaugeAvg(name string, match metrics.Labels, at, window time.Duration) (avg float64, ok bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return gaugeAvgOver(db.matching(name, match), at, window)
}

// GaugeAvg is DB.GaugeAvg over the selector's series.
func (sel *Selector) GaugeAvg(at, window time.Duration) (float64, bool) {
	sel.db.mu.Lock()
	defer sel.db.mu.Unlock()
	return gaugeAvgOver(sel.resolved(), at, window)
}

func gaugeAvgOver(matched []*series, at, window time.Duration) (float64, bool) {
	var sum float64
	var n int
	for _, s := range matched {
		for _, p := range s.window(at-window, at) {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Latest returns the most recent sample value at or before at across
// matching series, summed over series. ok is false when no series has a
// sample.
func (db *DB) Latest(name string, match metrics.Labels, at time.Duration) (v float64, ok bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	var sum float64
	any := false
	for _, s := range db.matching(name, match) {
		pts := s.points
		for i := len(pts) - 1; i >= 0; i-- {
			if pts[i].T <= at {
				sum += pts[i].V
				any = true
				break
			}
		}
	}
	return sum, any
}

// NewestSample returns the timestamp of the most recent stored sample across
// matching series of the named family — the freshness clock the staleness
// classifier reads. ok is false when no matching series has any sample.
func (db *DB) NewestSample(name string, match metrics.Labels) (t time.Duration, ok bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return newestOver(db.matching(name, match))
}

// NewestSample is DB.NewestSample over the selector's series.
func (sel *Selector) NewestSample() (time.Duration, bool) {
	sel.db.mu.Lock()
	defer sel.db.mu.Unlock()
	return newestOver(sel.resolved())
}

func newestOver(matched []*series) (t time.Duration, ok bool) {
	for _, s := range matched {
		if n := len(s.points); n > 0 {
			if last := s.points[n-1].T; !ok || last > t {
				t = last
			}
			ok = true
		}
	}
	return t, ok
}

// HistogramQuantile estimates the q-quantile of the named histogram family
// over the window, PromQL-style: it computes the per-bucket rate of each
// *_bucket series (identified by the "le" label), sums them across matching
// series, converts the cumulative layout to per-bucket counts and applies
// linear interpolation within the located bucket. The result unit matches
// the bucket bounds (seconds for latency). ok is false when the window
// carries no bucket increases.
func (db *DB) HistogramQuantile(q float64, name string, match metrics.Labels, at, window time.Duration) (float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	f, ok := db.buckets[name]
	if !ok {
		return 0, false
	}
	return db.quantileOver(q, db.match(f, match), at, window)
}

// HistogramQuantile is DB.HistogramQuantile over the selector's series, which
// are a histogram's buckets: the selector names the "<name>_bucket" family.
func (sel *Selector) HistogramQuantile(q float64, at, window time.Duration) (float64, bool) {
	sel.db.mu.Lock()
	defer sel.db.mu.Unlock()
	return sel.db.quantileOver(q, sel.resolved(), at, window)
}

// quantileOver merges into the database's scratch, so it runs under mu.
func (db *DB) quantileOver(q float64, matched []*series, at, window time.Duration) (float64, bool) {
	// Merge the matching series' increases into db.rates, one slot per
	// distinct bound, db.bounds kept ascending. Series of one histogram
	// arrive in ascending bound order, so the search usually ends in an
	// append.
	bounds, rates := db.bounds[:0], db.rates[:0]
	var infRate float64
	var haveInf bool
	for _, s := range matched {
		if !s.bucket {
			continue
		}
		delta, ok := increase(s.window(at-window, at))
		if !ok {
			continue
		}
		if s.inf {
			infRate += delta
			haveInf = true
			continue
		}
		i := len(bounds)
		for i > 0 && bounds[i-1] >= s.bound {
			i--
		}
		if i == len(bounds) || bounds[i] != s.bound {
			bounds = append(bounds, 0)
			rates = append(rates, 0)
			copy(bounds[i+1:], bounds[i:])
			copy(rates[i+1:], rates[i:])
			bounds[i], rates[i] = s.bound, 0
		}
		rates[i] += delta
	}
	db.bounds, db.rates = bounds, rates
	if len(bounds) == 0 {
		// Nothing increased, or only the overflow bucket did: no finite bound
		// to interpolate toward.
		return 0, false
	}
	if !haveInf {
		infRate = rates[len(rates)-1]
	}

	// Convert cumulative counts to per-bucket counts.
	counts := append(db.counts[:0], rates...)
	prev, total := 0.0, 0.0
	for i, c := range rates {
		d := c - prev
		if d < 0 {
			d = 0
		}
		counts[i] = d
		total += d
		prev = c
	}
	over := infRate - prev
	if over < 0 {
		over = 0
	}
	counts = append(counts, over)
	total += over
	db.counts = counts
	if total == 0 {
		return 0, false
	}
	return histogram.BucketQuantile(q, bounds, counts), true
}
