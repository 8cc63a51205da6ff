package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry's current state in the Prometheus
// text exposition format (version 0.0.4): one line per sample, labels
// sorted, histogram series already expanded into _bucket/_sum/_count by
// Snapshot. Samples are grouped by family and sorted for stable output.
//
// This is the read side a real deployment scrapes over HTTP; the paper's
// L3 exposes both the data-plane metrics and its own internal state this
// way so "human operators and other systems can infer the internal state
// at any point in time" (§4).
//
// Everything but the values is laid out once per series set (see
// exposition), so a pass reads the values alone, appends prefix and value per
// line into a reused buffer and issues a single Write. The registry lock is
// held for the reads only, never across the Write.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	if r.expo == nil {
		r.expo = r.buildExposition()
	}
	expo, sc := r.expo, r.expoScratch
	r.expoScratch = nil // ours until handed back; a concurrent pass makes its own
	if sc == nil {
		sc = new(expoScratch)
	}
	sc.values = r.valuesLocked(sc.values[:0])
	r.mu.Unlock()

	buf, start := sc.buf[:0], 0
	for i, end := range expo.end {
		buf = append(buf, expo.prefix[start:end]...)
		buf = appendValue(buf, sc.values[expo.sample[i]])
		buf = append(buf, '\n')
		start = end
	}
	sc.buf = buf
	var err error
	if len(buf) > 0 { // an empty registry writes nothing, not an empty chunk
		_, err = w.Write(buf)
	}

	r.mu.Lock()
	r.expoScratch = sc
	r.mu.Unlock()
	return err
}

// exposition is the part of WritePrometheus's output that depends on the
// series set alone: the order of the lines and each line up to its value.
// It is built on the first pass after a series registers and never mutated,
// so a pass may read it outside the registry lock.
type exposition struct {
	prefix []byte // every line's `name{labels} `, back to back in output order
	end    []int  // end[i]: where line i's prefix ends
	sample []int  // sample[i]: line i's index in snapshot order
}

// expoScratch is one pass's reusable memory.
type expoScratch struct {
	values []float64 // in snapshot order
	buf    []byte
}

// buildExposition sorts the current samples and renders their prefixes;
// called under the registry lock. Sort keys are built once per sample, not
// per comparison.
func (r *Registry) buildExposition() *exposition {
	samples := r.snapshotLocked(nil)
	type sortKey struct {
		sample    int
		name, key string
		bucketOf  string // the key without "le", for samples that carry one
		bound     float64
		hasLe     bool
	}
	keys := make([]sortKey, len(samples))
	for i, s := range samples {
		k := sortKey{sample: i, name: s.Name, key: s.Labels.Key()}
		if le, ok := s.Labels["le"]; ok {
			k.hasLe, k.bucketOf, k.bound = true, s.Labels.keyWithout("le"), leBound(le)
		}
		keys[i] = k
	}
	sort.SliceStable(keys, func(i, j int) bool {
		a, b := &keys[i], &keys[j]
		if a.name != b.name {
			return a.name < b.name
		}
		// Histogram buckets sort by their numeric bound, +Inf last — the
		// order Prometheus's linter expects — not by the lexical label key
		// (which would put le="10" before le="5" and +Inf first).
		if a.hasLe && b.hasLe {
			if a.bucketOf != b.bucketOf {
				return a.bucketOf < b.bucketOf
			}
			return a.bound < b.bound
		}
		return a.key < b.key
	})
	e := &exposition{end: make([]int, len(keys)), sample: make([]int, len(keys))}
	for i, k := range keys {
		s := samples[k.sample]
		e.prefix = appendSeriesPrefix(e.prefix, s.Name, s.Labels)
		e.end[i], e.sample[i] = len(e.prefix), k.sample
	}
	return e
}

// keyWithout returns the canonical label key with one label dropped.
func (l Labels) keyWithout(skip string) string {
	names := make([]string, 0, len(l))
	for k := range l {
		if k != skip {
			names = append(names, k)
		}
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

// leBound parses a bucket's upper bound for sort order; unparsable bounds
// sort last alongside +Inf.
func leBound(v string) float64 {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return math.Inf(1)
	}
	return f
}

// appendSeriesPrefix appends a sample line up to its value: the sanitized
// name, the labels sorted by name with escaped values, and a space.
func appendSeriesPrefix(buf []byte, name string, labels Labels) []byte {
	buf = append(buf, sanitizeName(name)...)
	if len(labels) > 0 {
		buf = append(buf, '{')
		names := make([]string, 0, len(labels))
		for k := range labels {
			names = append(names, k)
		}
		sort.Strings(names)
		for i, k := range names {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, sanitizeName(k)...)
			buf = append(buf, '=')
			buf = appendEscapedLabelValue(buf, labels[k])
		}
		buf = append(buf, '}')
	}
	return append(buf, ' ')
}

func writeSample(w io.Writer, s Sample) error {
	buf := appendValue(appendSeriesPrefix(nil, s.Name, s.Labels), s.Value)
	_, err := w.Write(append(buf, '\n'))
	return err
}

// appendEscapedLabelValue quotes a label value with the exposition format's
// escaping: exactly backslash, double-quote and newline are escaped, and
// everything else (including non-ASCII UTF-8) passes through raw. This is
// narrower than strconv.Quote, whose \u/\x escapes Prometheus does not
// understand.
func appendEscapedLabelValue(buf []byte, v string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			buf = append(buf, `\\`...)
		case '"':
			buf = append(buf, `\"`...)
		case '\n':
			buf = append(buf, `\n`...)
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

// appendValue renders a sample value the way Prometheus does (shortest
// round-trippable form; +Inf/-Inf/NaN spelled out). Below 1e6 the shortest
// 'g' form of a whole number is its decimal digits, so counts skip the
// digit search; -0, whose sign 'g' prints, does not.
func appendValue(buf []byte, v float64) []byte {
	switch {
	case v >= 0 && v < 1e6 && v == float64(int64(v)) && !math.Signbit(v):
		return strconv.AppendInt(buf, int64(v), 10)
	case v != v: // NaN
		return append(buf, "NaN"...)
	case v > maxFloat:
		return append(buf, "+Inf"...)
	case v < -maxFloat:
		return append(buf, "-Inf"...)
	default:
		return strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
}

const maxFloat = 1.7976931348623157e308

// sanitizeName maps arbitrary names onto the Prometheus metric/label name
// alphabet [a-zA-Z_:][a-zA-Z0-9_:]*; invalid runes become underscores.
func sanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range name {
		valid := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if valid {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Fprint renders one family's samples with a HELP/TYPE header — a
// convenience for debugging dumps.
func Fprint(w io.Writer, r *Registry, family, help, kind string) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
		sanitizeName(family), help, sanitizeName(family), kind); err != nil {
		return err
	}
	for _, s := range r.Snapshot() {
		if s.Name != family && !strings.HasPrefix(s.Name, family+"_") {
			continue
		}
		if err := writeSample(w, s); err != nil {
			return err
		}
	}
	return nil
}
