package metrics

import (
	"fmt"
	"io"
	"math"
	"slices"
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

// Lines are ordered by sample name, then, among lines that carry an "le"
// label, by the label key without it and the numeric bound (+Inf last, the
// order Prometheus's linter expects, where the lexical one would put "10"
// before "5"), and among lines that do not, by the label key; ties keep
// snapshot order. Every line of one
// series under one sample name shares that key, so the layout sorts series,
// not samples: an entry is one series' lines under one sample name.
type expoEntry struct {
	name  string // the sample name
	key   string // the series' label key without "le"
	reg   *registered
	base  int  // the series' first sample in snapshot order
	first int  // the entry's first template
	n     int  // its lines: a histogram's buckets, else one
	le    bool // its lines carry an "le" label
}

// expoLine is one line: a series' template t, sample its snapshot index.
type expoLine struct {
	reg       *registered
	t, sample int
	bound     float64
}

// buildExposition lays out every line; called under the registry lock. A
// series' label key and label block are made once (seriesLayout), on the
// first layout that includes it, so a layout after one registration costs a
// sort of the series and a copy of the bytes.
func (r *Registry) buildExposition() *exposition {
	entries := make([]expoEntry, 0, len(r.order)+2*len(r.histograms))
	samples, size := 0, 0
	var scratch []byte
	for i := range r.order {
		reg := &r.order[i]
		if reg.templates == nil {
			reg.buildTemplates(r.le)
		}
		if reg.layout == nil {
			scratch = reg.layOut(scratch)
		}
		size += reg.layout.size
		_, le := reg.labels["le"]
		e := expoEntry{name: reg.name, key: reg.layout.key, reg: reg, base: samples, n: 1, le: le}
		if reg.histogram == nil {
			entries = append(entries, e)
		} else {
			tpl := reg.templates
			k := len(tpl) - 2 // the buckets; then _sum and _count
			buckets, sum, count := e, e, e
			buckets.name, buckets.n, buckets.le = tpl[0].Name, k, true
			sum.name, sum.first = tpl[k].Name, k
			count.name, count.first = tpl[k+1].Name, k+1
			entries = append(entries, buckets, sum, count)
		}
		samples += len(reg.templates)
	}
	slices.SortFunc(entries, func(a, b expoEntry) int {
		if c := strings.Compare(a.name, b.name); c != 0 {
			return c
		}
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		return a.base - b.base
	})

	e := newExposition(samples, size)
	var run []expoLine
	for g := 0; g < len(entries); {
		h := g + 1
		for h < len(entries) && entries[h].name == entries[g].name {
			h++
		}
		for _, en := range entries[g+1 : h] {
			if en.le != entries[g].le {
				// A sample name with lines on both sides of "le" compares
				// them by the whole key, which orders nothing consistently.
				return r.sortedExposition(samples, size)
			}
		}
		name := sanitizeName(entries[g].name)
		for i := g; i < h; {
			j := i + 1
			for j < h && entries[j].key == entries[i].key {
				j++
			}
			// One series' "le" lines are in bound order already, a NaN bound
			// (sorted first) included: the stable sort only asks whether a
			// line goes before an earlier one, and for these it never does.
			if !entries[i].le || j-i == 1 {
				for ; i < j; i++ {
					en := &entries[i]
					for t := en.first; t < en.first+en.n; t++ {
						e.add(name, en.reg, t, en.base+t)
					}
				}
				continue
			}
			// Series whose "le" lines share a key: their lines interleave
			// by bound.
			run = run[:0]
			for ; i < j; i++ {
				en := &entries[i]
				for t := en.first; t < en.first+en.n; t++ {
					le, _ := en.reg.le(t)
					b := leBound(le)
					if b != b {
						return r.sortedExposition(samples, size)
					}
					run = append(run, expoLine{en.reg, t, en.base + t, b})
				}
			}
			sort.SliceStable(run, func(a, b int) bool { return run[a].bound < run[b].bound })
			for _, l := range run {
				e.add(name, l.reg, l.t, l.sample)
			}
		}
		g = h
	}
	return e
}

// sortedExposition is the layout the old writer's stable sort of every
// sample made, for registries where its comparison is no order: a sample
// name holds lines with and without "le", or lines of several series that
// share a key have a NaN bound among them. It compares what that sort
// compared, so it reproduces its every swap.
func (r *Registry) sortedExposition(samples, size int) *exposition {
	type sortKey struct {
		line                expoLine
		name, key, bucketOf string
		hasLe               bool
	}
	keys := make([]sortKey, 0, samples)
	for i := range r.order {
		reg := &r.order[i]
		for t, s := range reg.templates {
			k := sortKey{line: expoLine{reg: reg, t: t, sample: len(keys)}, name: s.Name, key: reg.layout.key}
			if le, ok := s.Labels["le"]; ok {
				k.hasLe, k.bucketOf, k.key, k.line.bound = true, reg.layout.key, s.Labels.Key(), leBound(le)
			}
			keys = append(keys, k)
		}
	}
	sort.SliceStable(keys, func(i, j int) bool {
		a, b := &keys[i], &keys[j]
		if a.name != b.name {
			return a.name < b.name
		}
		if a.hasLe && b.hasLe {
			if a.bucketOf != b.bucketOf {
				return a.bucketOf < b.bucketOf
			}
			return a.line.bound < b.line.bound
		}
		return a.key < b.key
	})
	e := newExposition(samples, size)
	for _, k := range keys {
		e.add(sanitizeName(k.name), k.line.reg, k.line.t, k.line.sample)
	}
	return e
}

func newExposition(lines, size int) *exposition {
	return &exposition{prefix: make([]byte, 0, size), end: make([]int, 0, lines), sample: make([]int, 0, lines)}
}

// add appends one line: name, series reg's template t's labels, and sample,
// its snapshot index.
func (e *exposition) add(name string, reg *registered, t, sample int) {
	e.prefix = reg.appendLine(append(e.prefix, name...), t)
	e.end = append(e.end, len(e.prefix))
	e.sample = append(e.sample, sample)
}

// seriesLayout is what the exposition keeps of one series, made once.
type seriesLayout struct {
	key   string   // the label key without "le"
	pairs []byte   // `,name="value"` for every label but "le", in label-name order, names sanitised
	at    int      // where in pairs an "le" pair goes
	les   []string // a histogram's bucket "le" texts
	size  int      // the series' lines' bytes up to their values
}

// layOut makes the series' layout, measuring its lines by rendering them
// into scratch, which it returns for reuse; called under the registry lock.
func (reg *registered) layOut(scratch []byte) []byte {
	var stack [8]string
	names := stack[:0]
	unescaped := 0 // the pairs' length when no value needs escaping
	for k, v := range reg.labels {
		if k != "le" {
			names = append(names, k)
			unescaped += len(`,=""`) + len(k) + len(v)
		}
	}
	sort.Strings(names)
	var buf [128]byte
	key := buf[:0]
	l := &seriesLayout{pairs: make([]byte, 0, unescaped)}
	for i, k := range names {
		v := reg.labels[k]
		if i > 0 {
			key = append(key, ',')
		}
		key = append(append(append(key, k...), '='), v...)
		l.pairs = append(append(append(l.pairs, ','), sanitizeName(k)...), '=')
		l.pairs = appendEscapedLabelValue(l.pairs, v)
		if k < "le" {
			l.at = len(l.pairs)
		}
	}
	l.key = string(key)
	if reg.histogram != nil {
		l.les = make([]string, len(reg.histogram.counts))
		for t := range l.les {
			l.les[t] = reg.templates[t].Labels["le"]
		}
	}
	reg.layout = l
	for t, s := range reg.templates {
		scratch = reg.appendLine(append(scratch[:0], sanitizeName(s.Name)...), t)
		l.size += len(scratch)
	}
	return scratch
}

// le returns template t's "le" value and whether it has one.
func (reg *registered) le(t int) (string, bool) {
	if les := reg.layout.les; t < len(les) {
		return les[t], true
	}
	le, ok := reg.labels["le"]
	return le, ok
}

// appendLine appends template t's line after its name: the label block, the
// series' pairs with the template's "le" spliced in at its place (nothing for
// no labels), then a space.
func (reg *registered) appendLine(buf []byte, t int) []byte {
	l, start := reg.layout, len(buf)
	buf = append(buf, l.pairs[:l.at]...)
	if le, ok := reg.le(t); ok {
		buf = appendEscapedLabelValue(append(buf, ",le="...), le)
	}
	buf = append(buf, l.pairs[l.at:]...)
	if len(buf) > start {
		buf[start] = '{' // for the first pair's comma
		buf = append(buf, '}')
	}
	return append(buf, ' ')
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
// alphabet [a-zA-Z_:][a-zA-Z0-9_:]*; invalid runes become underscores. A
// valid name is returned as it is.
func sanitizeName(name string) string {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !(c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')) {
			return sanitizeRunes(name)
		}
	}
	if name == "" {
		return "_"
	}
	return name
}

func sanitizeRunes(name string) string {
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
