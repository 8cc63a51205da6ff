package timeseries_test

// The database as it was before the postings index, kept as the oracle the
// differential test compares the indexed one against: series in a Go map per
// family found by a built key string, a linear scan with a subset match per
// query, and a map + sort + three slices per HistogramQuantile.

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"l3/internal/histogram"
	"l3/internal/metrics"
	"l3/internal/timeseries"
)

type oracleSeries struct {
	labels metrics.Labels
	points []timeseries.Point
	seq    int // insertion number within the database
}

// DB stores samples by (metric name, label set) and answers window queries.
// Safe for concurrent use.
type oracleDB struct {
	mu        sync.Mutex
	retention time.Duration
	gate      timeseries.Gate
	byName    map[string]map[string]*oracleSeries // name -> label key -> series
}

// NewDB returns a database that retains at least the given duration of
// samples per series. Retention must cover the largest query window used;
// anything older may be compacted away.
func newOracleDB(retention time.Duration) *oracleDB {
	if retention <= 0 {
		retention = 2 * time.Minute
	}
	return &oracleDB{
		retention: retention,
		byName:    make(map[string]map[string]*oracleSeries),
	}
}

// Append stores one sample. Appends must be in strictly increasing time
// order per series (scrapes are); out-of-order and duplicate-timestamp
// samples are dropped — a double-fired scrape must not double a window's
// increase.
func (db *oracleDB) Append(name string, labels metrics.Labels, t time.Duration, v float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	byKey, ok := db.byName[name]
	if !ok {
		byKey = make(map[string]*oracleSeries)
		db.byName[name] = byKey
	}
	key := labels.Key()
	s, ok := byKey[key]
	if !ok {
		s = &oracleSeries{labels: labels.Clone(), seq: db.seriesCountLocked()}
		byKey[key] = s
	}
	if n := len(s.points); n > 0 && s.points[n-1].T >= t {
		return
	}
	s.points = append(s.points, timeseries.Point{T: t, V: v})
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

// SetGate installs an ingestion gate applied to samples arriving through
// AppendSample/Scrape. A nil gate restores raw ingestion. Gates see the
// scrape path only; queries and the data plane are unaffected.
func (db *oracleDB) SetGate(g timeseries.Gate) {
	db.mu.Lock()
	db.gate = g
	db.mu.Unlock()
}

// AppendSample routes one scraped sample through the gate (when one is
// installed) and stores the admitted, possibly adjusted value. Without a
// gate it is equivalent to Append.
func (db *oracleDB) AppendSample(name string, labels metrics.Labels, kind metrics.Kind, t time.Duration, v float64) {
	db.mu.Lock()
	g := db.gate
	db.mu.Unlock()
	if g != nil {
		adjusted, ok := g.Admit(name, labels, kind, t, v)
		if !ok {
			return
		}
		v = adjusted
	}
	db.Append(name, labels, t, v)
}

// SeriesCount returns the number of distinct series stored, for tests and
// introspection.
func (db *oracleDB) SeriesCount() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.seriesCountLocked()
}

func (db *oracleDB) seriesCountLocked() int {
	n := 0
	for _, byKey := range db.byName {
		n += len(byKey)
	}
	return n
}

// window extracts the points of s inside (from, to] — Prometheus range
// semantics.
func (s *oracleSeries) window(from, to time.Duration) []timeseries.Point {
	pts := s.points
	lo := 0
	for lo < len(pts) && pts[lo].T <= from {
		lo++
	}
	hi := lo
	for hi < len(pts) && pts[hi].T <= to {
		hi++
	}
	return pts[lo:hi]
}

// matching returns the series of the named family whose labels contain
// match as a subset.
func (db *oracleDB) matching(name string, match metrics.Labels) []*oracleSeries {
	byKey, ok := db.byName[name]
	if !ok {
		return nil
	}
	var out []*oracleSeries
	for _, s := range byKey {
		if s.labels.Matches(match) {
			out = append(out, s)
		}
	}
	// The oracle's one departure from the old code: the map's random order
	// made every sum over three or more series bit-random, so the matches are
	// put in insertion order — the order the index is specified to return.
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// increase computes the counter increase across the window's samples,
// tolerating counter resets (a drop restarts accumulation, like Prometheus).
func oracleIncrease(pts []timeseries.Point) (delta float64, ok bool) {
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
func (db *oracleDB) Rate(name string, match metrics.Labels, at, window time.Duration) (rate float64, ok bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.rateLocked(name, match, at, window)
}

func (db *oracleDB) rateLocked(name string, match metrics.Labels, at, window time.Duration) (float64, bool) {
	var (
		total float64
		any   bool
	)
	for _, s := range db.matching(name, match) {
		pts := s.window(at-window, at)
		delta, ok := oracleIncrease(pts)
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
func (db *oracleDB) GaugeAvg(name string, match metrics.Labels, at, window time.Duration) (avg float64, ok bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	var sum float64
	var n int
	for _, s := range db.matching(name, match) {
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
func (db *oracleDB) Latest(name string, match metrics.Labels, at time.Duration) (v float64, ok bool) {
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
func (db *oracleDB) NewestSample(name string, match metrics.Labels) (t time.Duration, ok bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	any := false
	for _, s := range db.matching(name, match) {
		if n := len(s.points); n > 0 {
			if last := s.points[n-1].T; !any || last > t {
				t = last
			}
			any = true
		}
	}
	return t, any
}

// HistogramQuantile estimates the q-quantile of the named histogram family
// over the window, PromQL-style: it computes the per-bucket rate of each
// *_bucket series (identified by the "le" label), sums them across matching
// series, converts the cumulative layout to per-bucket counts and applies
// linear interpolation within the located bucket. The result unit matches
// the bucket bounds (seconds for latency). ok is false when the window
// carries no bucket increases.
func (db *oracleDB) HistogramQuantile(q float64, name string, match metrics.Labels, at, window time.Duration) (float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()

	type bucketRate struct {
		bound float64
		inf   bool
		rate  float64
	}
	rates := make(map[string]*bucketRate)
	for _, s := range db.matching(name+"_bucket", match) {
		le, ok := s.labels["le"]
		if !ok {
			continue
		}
		pts := s.window(at-window, at)
		delta, ok := oracleIncrease(pts)
		if !ok {
			continue
		}
		br, ok := rates[le]
		if !ok {
			br = &bucketRate{}
			if le == "+Inf" {
				br.inf = true
			} else {
				b, err := oracleParseFloat(le)
				if err != nil {
					continue
				}
				br.bound = b
			}
			rates[le] = br
		}
		br.rate += delta
	}
	if len(rates) == 0 {
		return 0, false
	}

	var (
		bounds     []float64
		cumulative []float64
		infRate    float64
		haveInf    bool
	)
	ordered := make([]*bucketRate, 0, len(rates))
	for _, br := range rates {
		if br.inf {
			infRate = br.rate
			haveInf = true
			continue
		}
		ordered = append(ordered, br)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].bound < ordered[j].bound })
	for _, br := range ordered {
		bounds = append(bounds, br.bound)
		cumulative = append(cumulative, br.rate)
	}
	if !haveInf {
		if len(cumulative) == 0 {
			return 0, false
		}
		infRate = cumulative[len(cumulative)-1]
	}

	// Convert cumulative counts to per-bucket counts.
	counts := make([]float64, len(bounds)+1)
	prev := 0.0
	for i, c := range cumulative {
		d := c - prev
		if d < 0 {
			d = 0
		}
		counts[i] = d
		prev = c
	}
	over := infRate - prev
	if over < 0 {
		over = 0
	}
	counts[len(bounds)] = over

	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, false
	}
	return histogram.BucketQuantile(q, bounds, counts), true
}

func oracleParseFloat(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}
