// Package metrics is a Prometheus-flavoured instrumentation substrate: a
// registry of labelled counters, gauges and cumulative-bucket histograms
// that can be scraped into point-in-time samples.
//
// It mirrors the subset of the Prometheus data model that Linkerd's proxy
// metrics use and that L3 consumes: monotonically increasing counters (e.g.
// response_total), gauges (in-flight requests) and histograms with explicit
// upper bounds (response_latency). Histograms flatten into *_bucket samples
// with an "le" label plus *_sum and *_count, exactly as a Prometheus scrape
// would render them.
//
// Series are lock-free on the write side: counters, gauges and histogram
// buckets are atomics, so a data-plane observation costs a few atomic
// operations and allocates nothing. The registry lock only guards series
// registration and the scrape pass. Like Prometheus itself, a scrape
// concurrent with writers has no cross-series atomicity guarantee; in the
// simulator both run on the engine's single thread, where a scrape is
// coherent by construction.
package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is a set of label name/value pairs identifying one time series of
// a metric family.
//
// A label map handed to a store — timeseries.DB's appends, a
// timeseries.Gate — is never modified afterwards: the store keeps that map,
// not a copy, for the series' life, and recognises the series by its map
// object (Index). The registry's sample templates and ParseExposition's
// series table hand out such maps, one per series; equal series in different
// registries hand out one map (see descriptor).
type Labels map[string]string

// Clone returns an independent copy of the label set.
func (l Labels) Clone() Labels {
	c := make(Labels, len(l))
	for k, v := range l {
		c[k] = v
	}
	return c
}

// With returns a copy of the label set with one extra pair.
func (l Labels) With(name, value string) Labels {
	c := l.Clone()
	c[name] = value
	return c
}

// Matches reports whether every pair in m is present in l (subset match,
// like a PromQL equality selector).
func (l Labels) Matches(m Labels) bool {
	for k, v := range m {
		if l[k] != v {
			return false
		}
	}
	return true
}

// Equal reports whether two label sets hold exactly the same pairs.
func (l Labels) Equal(o Labels) bool {
	if len(l) != len(o) {
		return false
	}
	for k, v := range l {
		if ov, ok := o[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// Hash returns an allocation-free hash of the label set that does not depend
// on iteration order: each pair is hashed on its own (FNV-1a over name, a
// separator and value, then a finaliser) and the pair hashes are summed.
// Ingest paths find an existing series by this hash and confirm with Equal,
// where they used to build and sort a Key string per sample.
func (l Labels) Hash() uint64 {
	var sum uint64
	for k, v := range l {
		h := uint64(14695981039346656037)
		for i := 0; i < len(k); i++ {
			h = (h ^ uint64(k[i])) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211 // a byte no UTF-8 name holds, so "ab"="c" and "a"="bc" differ
		for i := 0; i < len(v); i++ {
			h = (h ^ uint64(v[i])) * 1099511628211
		}
		h ^= h >> 32
		h *= 0x9e3779b97f4a7c15
		sum += h ^ h>>29
	}
	return sum
}

// Key returns the canonical form of the label set, the exposition's sort key.
// It escapes nothing, so two label sets can share one (see seriesKey).
func (l Labels) Key() string {
	if len(l) == 0 {
		return ""
	}
	names := make([]string, 0, len(l))
	for k := range l {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(l[k])
	}
	return b.String()
}

// String renders the label set in Prometheus exposition style.
func (l Labels) String() string {
	return "{" + l.Key() + "}"
}

// Kind classifies a sample's series for ingestion-side consumers: counters
// are monotone by contract (resets excepted), gauges move freely. Histogram
// expansions (_bucket/_sum/_count) are cumulative and scrape as counters.
type Kind uint8

const (
	// KindCounter marks a monotonically increasing series.
	KindCounter Kind = iota + 1
	// KindGauge marks a free-moving series.
	KindGauge
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Sample is one scraped value of one series at scrape time.
type Sample struct {
	Name   string
	Labels Labels
	Kind   Kind
	Value  float64
}

// atomicFloat is a float64 updated through compare-and-swap on its bit
// pattern — the lock-free substrate under counters, gauges and histogram
// sums.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(delta float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value. Safe for concurrent use;
// updates are lock-free and allocation-free.
type Counter struct {
	v atomicFloat
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter. Negative deltas are ignored: counters are
// monotone by contract.
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	c.v.add(delta)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.load() }

// Gauge is a value that can go up and down. Safe for concurrent use;
// updates are lock-free and allocation-free.
type Gauge struct {
	v atomicFloat
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.store(v) }

// Add shifts the value by delta (may be negative).
func (g *Gauge) Add(delta float64) { g.v.add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.load() }

// Histogram is a cumulative-bucket histogram over explicit upper bounds
// (seconds for latency histograms). Safe for concurrent use; observations
// are lock-free (a binary search plus two atomic updates) and
// allocation-free. The observation count is the sum of the buckets, not a
// counter of its own, so a snapshot's _count always equals its +Inf bucket.
type Histogram struct {
	bounds []float64       // sorted ascending; +Inf bucket implied
	counts []atomic.Uint64 // len(bounds)+1, per-bucket (cumulated at scrape)
	sum    atomicFloat
}

// Observe records one value (same unit as the bounds).
func (h *Histogram) Observe(v float64) {
	// Inlined sort.SearchFloat64s: find the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sum.add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() float64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return float64(n)
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Bounds returns the histogram's upper bounds (shared, do not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// snapshot appends the histogram's flattened samples through the
// registration-time sample templates (see registered.templates), so a
// scrape builds no label maps and formats no bounds.
func (h *Histogram) snapshot(reg *registered, out []Sample) []Sample {
	cum := 0.0
	tpl := reg.templates
	for i := range h.counts {
		cum += float64(h.counts[i].Load())
		s := tpl[i]
		s.Value = cum
		out = append(out, s)
	}
	sum := tpl[len(h.counts)]
	sum.Value = h.sum.load()
	count := tpl[len(h.counts)+1]
	count.Value = cum // the +Inf bucket: the same reads, so never torn apart
	return append(out, sum, count)
}

// values appends snapshot's values alone, the count from the buckets' reads.
func (h *Histogram) values(out []float64) []float64 {
	cum := 0.0
	for i := range h.counts {
		cum += float64(h.counts[i].Load())
		out = append(out, cum)
	}
	return append(out, h.sum.load(), cum)
}

// reset zeroes the histogram, as a restarted process would re-expose it.
func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.store(0)
}

// Registry holds metric families and hands out series on demand
// (get-or-create semantics, like promauto). Safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	order      []registered
	samples    int // total flattened sample count across order (histograms expand)
	// expo is the text exposition's layout for the current series set: nil
	// until WritePrometheus needs it, and again once a series registers.
	// expoScratch is the idle render scratch WritePrometheus passes reuse.
	expo        *exposition
	expoScratch *expoScratch
}

// registered is one series in registration order, holding the series
// directly so a scrape never goes back through the lookup maps, plus the
// series' sample templates: everything about a sample except its value is
// fixed once, so the scrape path fills in values and allocates nothing.
// Templates come from the series' descriptor on its first snapshot — not at
// registration, which keeps lazy first-request registration on the data
// plane's hot path as cheap as it always was. The series' label map and its
// templates' are the descriptor's, shared across scrapes and with every
// registry that registers an equal series (see SnapshotAppend).
type registered struct {
	name      string
	desc      *descriptor
	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
	// templates holds value-less samples: one for a counter/gauge; for a
	// histogram, one per bucket (with the "le" label and formatted bound
	// baked in) followed by _sum and _count. nil until first snapshot.
	templates []Sample
	// layout is the series' part of the text exposition: nil until the
	// first layout that includes the series.
	layout *seriesLayout
}

// descriptor is what a series shares with every equal series in the
// process — of one kind, name and label set, and for a histogram bounds: the
// label map, a histogram's sorted bounds, and the sample templates, built on
// the first snapshot in any registry. None of it changes once published.
type descriptor struct {
	labels    Labels
	bounds    []float64
	templates []Sample // nil until the first snapshot; written under described.mu
}

// descriptorCap bounds the descriptor table at the parse table's floor. A full
// table is cleared, which changes no output: holders keep their descriptors,
// and a later registration builds an equal one.
const descriptorCap = seriesCacheCap

// described is the process-wide descriptor table. Its lock is taken under a
// registry's, never the other way round, and it calls back into nothing.
var described = descriptors{m: make(map[descriptorKey]*descriptor), le: make(map[uint64]string)}

type descriptors struct {
	mu sync.Mutex
	m  map[descriptorKey]*descriptor
	le map[uint64]string // every bucket bound's "le" text, by bit pattern
}

// descriptorKey files a series by its registry table — KindCounter,
// KindGauge, or 0 for a histogram — and seriesKey(name, labels).
type descriptorKey struct {
	kind Kind
	key  string
}

// get returns the descriptor of series key of this kind with these labels and
// sorted bounds (nil but for a histogram), entering copies of both on a miss;
// a histogram whose entry holds other bounds gets one of its own, unentered.
func (t *descriptors) get(kind Kind, key string, labels Labels, bounds []float64) *descriptor {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := descriptorKey{kind, key}
	d := t.m[k]
	if d != nil && sameBounds(d.bounds, bounds) {
		return d
	}
	fresh := &descriptor{labels: labels.Clone(), bounds: slices.Clone(bounds)}
	if d == nil {
		if len(t.m) >= descriptorCap {
			clear(t.m)
		}
		t.m[k] = fresh
	}
	return fresh
}

// templates returns reg's sample templates, building its descriptor's on the
// first snapshot of the series in any registry; called under reg's registry
// lock. Each bound's "le" text is formatted once per process.
func (t *descriptors) templates(reg *registered) []Sample {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := reg.desc
	if d.templates != nil {
		return d.templates
	}
	switch {
	case reg.counter != nil:
		d.templates = []Sample{{Name: reg.name, Labels: d.labels, Kind: KindCounter}}
	case reg.gauge != nil:
		d.templates = []Sample{{Name: reg.name, Labels: d.labels, Kind: KindGauge}}
	case reg.histogram != nil:
		templates := make([]Sample, 0, len(d.bounds)+3)
		bucket := reg.name + "_bucket"
		for i := 0; i <= len(d.bounds); i++ {
			text := "+Inf"
			if i < len(d.bounds) {
				bits := math.Float64bits(d.bounds[i])
				if text = t.le[bits]; text == "" {
					if len(t.le) >= descriptorCap {
						clear(t.le)
					}
					text = strconv.FormatFloat(d.bounds[i], 'g', -1, 64)
					t.le[bits] = text
				}
			}
			templates = append(templates, Sample{
				Name: bucket, Labels: d.labels.With("le", text), Kind: KindCounter,
			})
		}
		d.templates = append(templates,
			Sample{Name: reg.name + "_sum", Labels: d.labels, Kind: KindCounter},
			Sample{Name: reg.name + "_count", Labels: d.labels, Kind: KindCounter},
		)
	}
	return d.templates
}

// sameBounds reports whether two bound lists are equal bit for bit ("-0" ≠ "0").
func sameBounds(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// seriesKey is the registry's key for (name, labels): the name, then each
// pair in label-name order, every string length-prefixed. Labels.Key does not
// escape ',' or '=', so {a="1,b=2"} and {a="1",b="2"} share a Key.
func seriesKey(name string, labels Labels) string {
	var names [8]string
	sorted := names[:0]
	for k := range labels {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var buf [128]byte
	key := appendField(buf[:0], name)
	for _, k := range sorted {
		key = appendField(appendField(key, k), labels[k])
	}
	return string(key)
}

func appendField(key []byte, s string) []byte {
	return append(binary.AppendUvarint(key, uint64(len(s))), s...)
}

// checkLabelNames panics when two of a new series' label names sanitise to
// one: its line would repeat a label name, and a reader rejects the whole
// page for that.
func checkLabelNames(name string, labels Labels) {
	for k := range labels {
		s := sanitizeName(k)
		if s == k {
			continue
		}
		for o := range labels {
			if o != k && sanitizeName(o) == s {
				a, b := min(k, o), max(k, o)
				panic(fmt.Sprintf("metrics: %s: labels %q and %q are both written as %q", name, a, b, s))
			}
		}
	}
}

// Counter returns the counter series for (name, labels), creating it on
// first use.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		checkLabelNames(name, labels)
		c = &Counter{}
		r.counters[key] = c
		r.add(registered{name: name, desc: described.get(KindCounter, key, labels, nil), counter: c}, 1)
	}
	return c
}

// Gauge returns the gauge series for (name, labels), creating it on first
// use.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		checkLabelNames(name, labels)
		g = &Gauge{}
		r.gauges[key] = g
		r.add(registered{name: name, desc: described.get(KindGauge, key, labels, nil), gauge: g}, 1)
	}
	return g
}

// Histogram returns the histogram series for (name, labels), creating it
// with the given bounds on first use. Later calls must pass equal bounds, in
// any order; a mismatch panics, as it indicates two incompatible
// registrations of the same family.
func (r *Registry) Histogram(name string, labels Labels, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: Histogram registered with no bounds")
	}
	if !sort.Float64sAreSorted(bounds) {
		bounds = slices.Clone(bounds)
		sort.Float64s(bounds)
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[key]
	if !ok {
		checkLabelNames(name, labels)
		d := described.get(0, key, labels, bounds)
		h = &Histogram{bounds: d.bounds, counts: make([]atomic.Uint64, len(d.bounds)+1)}
		r.histograms[key] = h
		r.add(registered{name: name, desc: d, histogram: h}, len(h.counts)+2)
		return h
	}
	if !sameBounds(h.bounds, bounds) {
		panic(fmt.Sprintf("metrics: histogram %s re-registered with different bounds", name))
	}
	return h
}

// add appends a new series, which flattens into samples samples, and drops
// the layout.
func (r *Registry) add(reg registered, samples int) {
	r.order = append(r.order, reg)
	r.samples += samples
	r.expo = nil
}

// Snapshot renders every series into flat samples, in registration order
// (stable across scrapes). Histograms expand into _bucket/_sum/_count.
// Equivalent to SnapshotAppend(nil); the label-sharing contract below
// applies here too.
func (r *Registry) Snapshot() []Sample {
	return r.SnapshotAppend(nil)
}

// SnapshotAppend appends every series' current sample to out and returns
// the extended slice, in registration order (stable across scrapes).
// Histograms expand into _bucket/_sum/_count. Scrape loops pass a recycled
// buffer (`buf = reg.SnapshotAppend(buf[:0])`); once the buffer has grown
// to the registry's series count, a scrape allocates nothing.
//
// Positions are for good: series are only ever added, at the end, and a
// series' expansion has a fixed length, so sample i of one snapshot and sample
// i of any later one are the same (name, labels) — a later snapshot only has
// more after them. A scrape loop may therefore remember, by position, where it
// stored each sample (core.Scraper keeps a timeseries.Ref per position).
//
// Sample label maps are the registry's registration-time sets, shared
// across snapshots and across callers, and with every registry of the
// process that registers an equal series: they must be treated as read-only.
// Consumers that retain labels past the scrape (the time-series DB, the
// hygiene gate) keep the template's map itself and recognise a series by it
// (Index).
//
// The whole pass runs under one lock acquisition, so a scrape sees a single
// coherent registration state instead of re-locking per series (the old
// per-series locking let a request land between two series reads and render
// a response_total increment without its response_latency observation).
// Value reads are atomic loads; when callers follow the simulator's
// single-threaded execution model, the snapshot is an exact point-in-time
// cut between events.
func (r *Registry) SnapshotAppend(out []Sample) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked(out)
}

func (r *Registry) snapshotLocked(out []Sample) []Sample {
	if out == nil {
		out = make([]Sample, 0, r.samples)
	}
	for i := range r.order {
		reg := &r.order[i]
		if reg.templates == nil {
			reg.templates = described.templates(reg)
		}
		switch {
		case reg.counter != nil:
			s := reg.templates[0]
			s.Value = reg.counter.Value()
			out = append(out, s)
		case reg.gauge != nil:
			s := reg.templates[0]
			s.Value = reg.gauge.Value()
			out = append(out, s)
		case reg.histogram != nil:
			out = reg.histogram.snapshot(reg, out)
		}
	}
	return out
}

// valuesLocked appends every sample's value in snapshotLocked's order.
func (r *Registry) valuesLocked(out []float64) []float64 {
	for i := range r.order {
		reg := &r.order[i]
		switch {
		case reg.counter != nil:
			out = append(out, reg.counter.Value())
		case reg.gauge != nil:
			out = append(out, reg.gauge.Value())
		case reg.histogram != nil:
			out = reg.histogram.values(out)
		}
	}
	return out
}

// ResetCounters zeroes every counter and histogram series whose labels match
// (subset match), emulating the counter reset a pod restart produces: the
// cumulative series re-expose from zero while gauges keep tracking live
// state. Returns the number of series reset.
func (r *Registry) ResetCounters(match Labels) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for i := range r.order {
		reg := &r.order[i]
		if !reg.desc.labels.Matches(match) {
			continue
		}
		switch {
		case reg.counter != nil:
			reg.counter.v.store(0)
			n++
		case reg.histogram != nil:
			reg.histogram.reset()
			n++
		}
	}
	return n
}
