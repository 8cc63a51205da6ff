package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
)

// ParseExposition reads the Prometheus text exposition format (version
// 0.0.4) — the inverse of WritePrometheus. It is how cmd/l3serve's control
// plane ingests its own data plane's /metrics over real HTTP, exactly as
// the Prometheus in the paper's Figure 5 would, so the L3 controller steers
// from scraped text rather than in-process registry pointers.
//
// The parser enforces the grammar a real Prometheus enforces: metric and
// label names from [a-zA-Z_:][a-zA-Z0-9_:]*, label values quoted with only
// \\, \" and \n escapes, a float value (NaN/+Inf/-Inf accepted), and an
// optional integer millisecond timestamp. Malformed lines fail with the
// line number rather than being skipped — a scrape that half-parses is
// worse than one that errors.
//
// Sample kinds come from "# TYPE" comments when present; without one, the
// conventional suffixes _total, _bucket, _sum and _count mark a series
// cumulative (KindCounter) and anything else scrapes as a gauge — the same
// classification the registry itself uses for histogram expansions.
//
// The input is read once into a single string and every name, label name
// and escape-free label value in the result is a slice of it, so a sample
// costs its label map and nothing else. A consumer that keeps a sample's
// strings keeps the whole text alive; the time-series database and the
// hygiene gate copy what they retain.
func ParseExposition(r io.Reader) ([]Sample, error) {
	var b strings.Builder
	if _, err := io.Copy(&b, r); err != nil {
		return nil, fmt.Errorf("metrics: reading exposition: %w", err)
	}
	text := b.String()
	out := make([]Sample, 0, strings.Count(text, "\n")+1)
	types := make(map[string]Kind)
	for lineNo := 1; text != ""; lineNo++ {
		// Lines end at "\n" or "\r\n"; the last one may end with the input.
		line := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		line = strings.TrimSuffix(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		if line[0] == '#' {
			if family, kind, ok := parseTypeComment(line); ok {
				types[family] = kind
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		s.Kind = kindFor(s.Name, types)
		out = append(out, s)
	}
	return out, nil
}

// parseTypeComment recognises "# TYPE <family> <kind>" comments; every
// other comment (HELP, freeform) parses as ok=false and is ignored.
func parseTypeComment(line string) (family string, kind Kind, ok bool) {
	fields := strings.Fields(line)
	if len(fields) != 4 || fields[0] != "#" || fields[1] != "TYPE" {
		return "", 0, false
	}
	switch fields[3] {
	case "counter", "histogram", "summary":
		// Histogram/summary component series are cumulative.
		return fields[2], KindCounter, true
	case "gauge", "untyped":
		return fields[2], KindGauge, true
	}
	return "", 0, false
}

func kindFor(name string, types map[string]Kind) Kind {
	if k, ok := types[name]; ok {
		return k
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if family, ok := strings.CutSuffix(name, suffix); ok {
			if k, ok := types[family]; ok {
				return k
			}
			return KindCounter
		}
	}
	if strings.HasSuffix(name, "_total") {
		return KindCounter
	}
	return KindGauge
}

func parseSampleLine(line string) (Sample, error) {
	var s Sample
	rest, name, err := scanName(line)
	if err != nil {
		return s, err
	}
	s.Name = name
	if strings.HasPrefix(rest, "{") {
		if s.Labels, rest, err = scanLabels(rest); err != nil {
			return s, err
		}
	}
	value, after := nextField(rest)
	if value == "" {
		return s, fmt.Errorf("missing value after %q", s.Name)
	}
	stamp, after := nextField(after)
	if extra, _ := nextField(after); extra != "" {
		return s, fmt.Errorf("trailing garbage after value: %q", rest)
	}
	v, err := strconv.ParseFloat(value, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", value, err)
	}
	s.Value = v
	if stamp != "" {
		// Optional millisecond timestamp; validated then dropped (the
		// ingesting scraper stamps samples with its own scrape time, like
		// Prometheus does by default).
		if _, err := strconv.ParseInt(stamp, 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q: %w", stamp, err)
		}
	}
	return s, nil
}

// nextField splits the first whitespace-separated field off s, with
// strings.Fields' notion of whitespace; field is empty when s holds none.
func nextField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// scanName splits the leading metric name off a sample line.
func scanName(line string) (rest, name string, err error) {
	i := 0
	for i < len(line) && isNameRune(line[i], i) {
		i++
	}
	if i == 0 {
		return "", "", fmt.Errorf("expected metric name, got %q", line)
	}
	return line[i:], line[:i], nil
}

func isNameRune(c byte, pos int) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return pos > 0
	}
	return false
}

// scanLabels parses a {name="value",...} block, unescaping values.
func scanLabels(in string) (Labels, string, error) {
	labels := make(Labels)
	rest := in[1:] // consume '{'
	for {
		rest = skipBlanks(rest)
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		var name string
		var err error
		if rest, name, err = scanName(rest); err != nil {
			return nil, "", fmt.Errorf("expected label name: %w", err)
		}
		rest = skipBlanks(rest)
		if !strings.HasPrefix(rest, "=") {
			return nil, "", fmt.Errorf("expected '=' after label %q", name)
		}
		rest = skipBlanks(rest[1:])
		var value string
		if value, rest, err = scanQuoted(rest); err != nil {
			return nil, "", fmt.Errorf("label %q: %w", name, err)
		}
		labels[name] = value
		rest = skipBlanks(rest)
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

// skipBlanks drops the spaces and tabs the grammar allows between the tokens
// of a label block.
func skipBlanks(s string) string {
	for s != "" && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	return s
}

// scanQuoted parses a double-quoted label value with exposition escaping:
// \\ and \" and \n are the only escape sequences. A value without escapes
// is returned as a slice of the input; the first escape starts a copy.
func scanQuoted(in string) (value, rest string, err error) {
	if !strings.HasPrefix(in, `"`) {
		return "", "", fmt.Errorf("expected quoted value, got %q", in)
	}
	var b strings.Builder
	escaped := false
	for i := 1; i < len(in); i++ {
		switch c := in[i]; c {
		case '"':
			if !escaped {
				return in[1:i], in[i+1:], nil
			}
			return b.String(), in[i+1:], nil
		case '\\':
			if !escaped {
				escaped = true
				b.WriteString(in[1:i])
			}
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
			if escaped {
				b.WriteByte(c)
			}
		}
	}
	return "", "", fmt.Errorf("unterminated quoted value in %q", in)
}
