// Package tracing is the distributed-tracing substrate behind the paper's
// trace-extraction methodology: §5.1 explains that the workload scenarios
// were built from latency traces "generated via distributed tracing", with
// network-delay spans excluded so that only service execution latency
// remains. This package records one span per mesh request — carrying both
// the client-observed duration (network included) and the server-side
// execution duration (network excluded) — and provides the extraction
// step: per-backend execution-latency series of the exact shape the
// scenario generators consume.
package tracing

import (
	"fmt"
	"sort"
	"time"

	"l3/internal/histogram"
)

// Span is one completed request as both endpoints saw it.
type Span struct {
	// Service and Backend identify the callee; Src the calling cluster.
	Service string
	Backend string
	Src     string
	// Start and End bound the client-observed span (network included).
	Start, End time.Duration
	// ServerDuration is the backend-side queue+execution time — the
	// client span minus network transit, i.e. what remains after the
	// paper's network-span exclusion.
	ServerDuration time.Duration
	// Success mirrors the response classification.
	Success bool
}

// ClientDuration returns the client-observed duration.
func (s Span) ClientDuration() time.Duration { return s.End - s.Start }

// NetworkDelay returns the transit component (client minus server).
func (s Span) NetworkDelay() time.Duration {
	d := s.ClientDuration() - s.ServerDuration
	if d < 0 {
		return 0
	}
	return d
}

// Recorder collects spans from one goroutine: the engine whose run it
// records. The zero value is not usable; construct with NewRecorder.
type Recorder struct {
	spans []Span
	limit int
	drops uint64
}

// NewRecorder returns a recorder keeping at most limit spans (0 = 1<<20);
// further spans are counted as dropped, like a tracing backend's sampling
// cap.
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = 1 << 20
	}
	return &Recorder{limit: limit}
}

// Record stores one span.
func (r *Recorder) Record(sp Span) {
	if len(r.spans) >= r.limit {
		r.drops++
		return
	}
	r.spans = append(r.spans, sp)
}

// Dropped returns how many spans exceeded the cap.
func (r *Recorder) Dropped() uint64 {
	return r.drops
}

// Spans returns a copy of the stored spans.
func (r *Recorder) Spans() []Span {
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// ExtractionMode selects which duration the extraction aggregates.
type ExtractionMode int

const (
	// ExecutionOnly excludes network transit — the paper's §5.1 choice
	// when converting production traces into test scenarios.
	ExecutionOnly ExtractionMode = iota + 1
	// ClientObserved keeps network transit in.
	ClientObserved
)

// SeriesPoint is one time bucket of an extracted latency series.
type SeriesPoint struct {
	Median  time.Duration
	P99     time.Duration
	Count   int
	Success float64
}

// Extraction is a per-key set of latency series plus summary statistics.
type Extraction struct {
	BucketWidth time.Duration
	// Series maps key (backend or service) to per-bucket points.
	Series map[string][]SeriesPoint
}

// Extract aggregates spans into per-backend time-bucketed latency series —
// the transformation the paper applied to its production traces. keyFn
// selects the grouping (per backend, per service, per source cluster).
func Extract(spans []Span, bucket time.Duration, mode ExtractionMode, keyFn func(Span) string) *Extraction {
	if bucket <= 0 {
		bucket = time.Second
	}
	if keyFn == nil {
		keyFn = func(s Span) string { return s.Backend }
	}
	type acc struct {
		hist    *histogram.Histogram
		count   int
		success int
	}
	byKey := make(map[string]map[int]*acc)
	maxBucket := make(map[string]int)
	for _, sp := range spans {
		key := keyFn(sp)
		i := int(sp.Start / bucket)
		buckets, ok := byKey[key]
		if !ok {
			buckets = make(map[int]*acc)
			byKey[key] = buckets
		}
		a, ok := buckets[i]
		if !ok {
			a = &acc{hist: histogram.New()}
			buckets[i] = a
		}
		d := sp.ServerDuration
		if mode == ClientObserved {
			d = sp.ClientDuration()
		}
		a.hist.Record(d)
		a.count++
		if sp.Success {
			a.success++
		}
		if i > maxBucket[key] {
			maxBucket[key] = i
		}
	}

	out := &Extraction{BucketWidth: bucket, Series: make(map[string][]SeriesPoint, len(byKey))}
	for key, buckets := range byKey {
		series := make([]SeriesPoint, maxBucket[key]+1)
		for i := range series {
			a, ok := buckets[i]
			if !ok {
				series[i] = SeriesPoint{Success: 1}
				continue
			}
			series[i] = SeriesPoint{
				Median:  a.hist.Quantile(0.5),
				P99:     a.hist.Quantile(0.99),
				Count:   a.count,
				Success: float64(a.success) / float64(a.count),
			}
		}
		out.Series[key] = series
	}
	return out
}

// Keys returns the extraction's group keys, sorted.
func (e *Extraction) Keys() []string {
	out := make([]string, 0, len(e.Series))
	for k := range e.Series {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Summary aggregates one key's series into overall stats (count-weighted).
func (e *Extraction) Summary(key string) (median, p99 time.Duration, count int, ok bool) {
	series, found := e.Series[key]
	if !found {
		return 0, 0, 0, false
	}
	// Exact recomputation is not possible from the points alone;
	// approximate with count-weighted medians of the per-bucket
	// quantiles, which is how the paper's per-minute plots summarise too.
	var meds, tails []wqPair
	for _, pt := range series {
		if pt.Count == 0 {
			continue
		}
		count += pt.Count
		meds = append(meds, wqPair{pt.Median, pt.Count})
		tails = append(tails, wqPair{pt.P99, pt.Count})
	}
	if count == 0 {
		return 0, 0, 0, true
	}
	median = weightedMedian(meds, count)
	p99 = weightedMedian(tails, count)
	return median, p99, count, true
}

func weightedMedian(values []wqPair, total int) time.Duration {
	sort.Slice(values, func(i, j int) bool { return values[i].v < values[j].v })
	half := total / 2
	seen := 0
	for _, x := range values {
		seen += x.n
		if seen >= half {
			return x.v
		}
	}
	if len(values) == 0 {
		return 0
	}
	return values[len(values)-1].v
}

// wqPair mirrors the local struct in Summary for the helper's signature.
type wqPair = struct {
	v time.Duration
	n int
}

// String describes the extraction.
func (e *Extraction) String() string {
	return fmt.Sprintf("extraction{keys=%d bucket=%v}", len(e.Series), e.BucketWidth)
}

// RecordSpan implements the mesh's SpanRecorder hook.
func (r *Recorder) RecordSpan(service, backendName, src string, start, end, serverDuration time.Duration, success bool) {
	r.Record(Span{
		Service:        service,
		Backend:        backendName,
		Src:            src,
		Start:          start,
		End:            end,
		ServerDuration: serverDuration,
		Success:        success,
	})
}
