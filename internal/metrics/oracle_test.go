package metrics

// The exposition writer and parser as they were before the cached layout and
// the slicing parser, kept as the oracles the differential and fuzz tests
// compare against: a sort whose comparator rebuilds key strings on every
// comparison and a builder per line; a bufio.Scanner with Text, Fields and a
// Builder per label value. Helpers that did not change (scanName,
// parseTypeComment, kindFor, leBound, sanitizeName) are shared.
//
// The old parser differs from what it was in one stated place: it took a
// repeated label name (`m{a="1",a="2"} 1`) and let the last value win, where
// Prometheus rejects the sample; oracleScanLabels now rejects it too, with
// the new parser's words, so the two can still be held to equal errors.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

func oracleWritePrometheus(r *Registry, w io.Writer) error {
	samples := r.Snapshot()
	sort.SliceStable(samples, func(i, j int) bool {
		if samples[i].Name != samples[j].Name {
			return samples[i].Name < samples[j].Name
		}
		li, lj := samples[i].Labels, samples[j].Labels
		// Histogram buckets sort by their numeric bound, +Inf last — the
		// order Prometheus's linter expects — not by the lexical label key
		// (which would put le="10" before le="5" and +Inf first).
		if vi, ok := li["le"]; ok {
			if vj, ok := lj["le"]; ok {
				ki, kj := li.keyWithout("le"), lj.keyWithout("le")
				if ki != kj {
					return ki < kj
				}
				return leBound(vi) < leBound(vj)
			}
		}
		return li.Key() < lj.Key()
	})
	for _, s := range samples {
		if err := oracleWriteSample(w, s); err != nil {
			return err
		}
	}
	return nil
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

func oracleWriteSample(w io.Writer, s Sample) error {
	var b strings.Builder
	b.WriteString(sanitizeName(s.Name))
	if len(s.Labels) > 0 {
		b.WriteByte('{')
		names := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			names = append(names, k)
		}
		sort.Strings(names)
		for i, k := range names {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(sanitizeName(k))
			b.WriteByte('=')
			oracleWriteEscapedLabelValue(&b, s.Labels[k])
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(oracleFormatValue(s.Value))
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// oracleWriteEscapedLabelValue quotes a label value with the exposition format's
// escaping: exactly backslash, double-quote and newline are escaped, and
// everything else (including non-ASCII UTF-8) passes through raw. This is
// narrower than strconv.Quote, whose \u/\x escapes Prometheus does not
// understand.
func oracleWriteEscapedLabelValue(b *strings.Builder, v string) {
	b.WriteByte('"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
}

// oracleFormatValue renders a sample value the way Prometheus does (shortest
// round-trippable form; +Inf/-Inf/NaN spelled out).
func oracleFormatValue(v float64) string {
	switch {
	case v != v: // NaN
		return "NaN"
	case v > maxFloat:
		return "+Inf"
	case v < -maxFloat:
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

func oracleParseExposition(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []Sample
	types := make(map[string]string)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if family, kind, ok := parseTypeComment(line); ok {
				types[family] = kind
			}
			continue
		}
		s, err := oracleParseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		s.Kind = kindFor(s.Name, types)
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: reading exposition: %w", err)
	}
	return out, nil
}

func oracleParseSampleLine(line string) (Sample, error) {
	var s Sample
	rest, name, err := scanName(line)
	if err != nil {
		return s, err
	}
	s.Name = name
	if strings.HasPrefix(rest, "{") {
		if s.Labels, rest, err = oracleScanLabels(rest); err != nil {
			return s, err
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("missing value after %q", s.Name)
	}
	if len(fields) > 2 {
		return s, fmt.Errorf("trailing garbage after value: %q", rest)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	s.Value = v
	if len(fields) == 2 {
		// Optional millisecond timestamp; validated then dropped (the
		// ingesting scraper stamps samples with its own scrape time, like
		// Prometheus does by default).
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q: %w", fields[1], err)
		}
	}
	return s, nil
}

// oracleScanLabels parses a {name="value",...} block, unescaping values.
func oracleScanLabels(in string) (Labels, string, error) {
	labels := make(Labels)
	rest := in[1:] // consume '{'
	for {
		rest = strings.TrimLeft(rest, " \t")
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		var name string
		var err error
		if rest, name, err = scanName(rest); err != nil {
			return nil, "", fmt.Errorf("expected label name: %w", err)
		}
		rest = strings.TrimLeft(rest, " \t")
		if !strings.HasPrefix(rest, "=") {
			return nil, "", fmt.Errorf("expected '=' after label %q", name)
		}
		rest = strings.TrimLeft(rest[1:], " \t")
		var value string
		if value, rest, err = oracleScanQuoted(rest); err != nil {
			return nil, "", fmt.Errorf("label %q: %w", name, err)
		}
		if _, dup := labels[name]; dup { // the one divergence from the old parser
			return nil, "", fmt.Errorf("duplicate label name %q", name)
		}
		labels[name] = value
		rest = strings.TrimLeft(rest, " \t")
		switch {
		case strings.HasPrefix(rest, ","):
			rest = rest[1:] // trailing comma before '}' is legal
		case strings.HasPrefix(rest, "}"):
			return labels, rest[1:], nil
		default:
			return nil, "", fmt.Errorf("expected ',' or '}' after label %q", name)
		}
	}
}

// oracleScanQuoted parses a double-quoted label value with exposition escaping:
// \\ and \" and \n are the only escape sequences.
func oracleScanQuoted(in string) (value, rest string, err error) {
	if !strings.HasPrefix(in, `"`) {
		return "", "", fmt.Errorf("expected quoted value, got %q", in)
	}
	var b strings.Builder
	for i := 1; i < len(in); i++ {
		switch c := in[i]; c {
		case '"':
			return b.String(), in[i+1:], nil
		case '\\':
			i++
			if i >= len(in) {
				return "", "", fmt.Errorf("unterminated escape in %q", in)
			}
			switch in[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", in[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated quoted value in %q", in)
}
