package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// ParseExposition reads the Prometheus text exposition format (version
// 0.0.4) — the inverse of WritePrometheus. It is how cmd/l3serve's control
// plane ingests its own data plane's /metrics over real HTTP, exactly as
// the Prometheus in the paper's Figure 5 would, so the L3 controller steers
// from scraped text rather than in-process registry pointers.
//
// The parser enforces the grammar a real Prometheus enforces: metric and
// label names from [a-zA-Z_:][a-zA-Z0-9_:]*, label values quoted with only
// \\, \" and \n escapes, no label name twice in one block, a float value
// (NaN/+Inf/-Inf accepted), and an optional integer millisecond timestamp.
// Malformed lines fail with the line number rather than being skipped — a
// scrape that half-parses is worse than one that errors.
//
// Sample kinds come from "# TYPE" comments when present — a summary's
// quantile lines are gauges, its _sum and _count counters; without one, the
// conventional suffixes _total, _bucket, _sum and _count mark a series
// cumulative (KindCounter) and anything else scrapes as a gauge — the same
// classification the registry itself uses for histogram expansions.
//
// A scrape of the same targets spells the same series every round, so the
// series part of a line — name{labels}, byte for byte — is remembered in a
// process-wide table. A line whose series text is in it takes Name and Labels
// from there and goes straight to the value, timestamp and trailing-garbage
// checks; any other line runs the whole grammar, and its series text enters
// the table once that succeeded — so the result is the same function of the
// input whatever the table holds. Every Name and Labels returned is the
// table's own copy and pins nothing of the text read from r, which is read
// into a buffer the table reuses from call to call. The Labels are shared
// between results and callers and must be treated as read-only, as
// Registry.SnapshotAppend's are: the time-series database and the hygiene
// gate keep them, one map per series, for as long as they keep the series.
func ParseExposition(r io.Reader) ([]Sample, error) {
	return scraped.read(r)
}

// seriesCacheCap is the floor of the table's bound. The table turns over when
// it holds twice as many series as the largest parse since its last turn has
// sample lines, and never below this many (about 700 backends' worth of mesh
// series): a target of any size is served whole from its second scrape on, a
// table whose scrapes spell the same series never turns, and one that churns
// holds at most its bound plus the two latest parses.
const seriesCacheCap = 1 << 16

// scraped is the series table behind ParseExposition.
var scraped = seriesCache{limit: seriesCacheCap}

// seriesCache maps a series' text as spelled to its parsed form, in two
// generations: lookups try cur, then old, moving a hit forward; admissions go
// to cur. A parse that starts with the table at its bound — limit, or twice
// the largest parse since the last turn — turns the table over, so a series
// no scrape spells any more is gone in two turns. mu is held around one
// in-memory parse and the buffer hand-offs, never around reading.
//
// A scrape also spells its series in the same order every round, so each
// entry remembers the entry the next sample line resolved to last time
// (next), and a lookup tries that one before finding the line's series text
// or hashing anything. A predicted entry is taken only if gen says it is in
// cur or old and the line starts with its text, and then exactly as the maps
// would have served it — moved forward out of old — so prediction decides the
// cost of a lookup, never its outcome or what the table holds afterwards.
type seriesCache struct {
	mu       sync.Mutex
	limit    int // the floor of the bound
	cur, old map[string]*cachedSeries
	held     int               // entries only in old: the table holds len(cur)+held series
	largest  int               // sample lines of the largest parse since the last turn
	gen      uint64            // turns so far: an entry is in cur iff its gen is gen, in old only iff gen-1
	head     cachedSeries      // next: the entry of the first sample line, last time
	types    map[string]string // the parse's TYPE comments, family to type
	spare    []cachedSeries    // entries are allocated in chunks, handed out from here
	buf      []byte            // the read buffer, nil while a read holds it
}

// cachedSeries holds strings of its own: text is a copy of the series text,
// name and every escape-free label string are slices of that copy.
type cachedSeries struct {
	text, name string
	labels     Labels
	next       *cachedSeries // what the following sample line resolved to last time
	gen        uint64        // the table's gen when the entry last entered cur
}

// entryChunk is how many entries one allocation makes.
const entryChunk = 32

// read parses everything r holds. The text is read, outside mu, into the
// buffer the last call handed back, parsed in place, and the buffer goes back
// to the table: nothing a parse returns points into it, since samples take
// their strings from table entries and errors quote what they name.
func (c *seriesCache) read(r io.Reader) ([]Sample, error) {
	c.mu.Lock()
	buf := c.buf
	c.buf = nil // ours until handed back; a concurrent read makes its own
	c.mu.Unlock()

	buf, err := readAll(buf[:0], r)
	if err != nil {
		return nil, fmt.Errorf("metrics: reading exposition: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out, err := c.parse(unsafe.String(unsafe.SliceData(buf), len(buf)))
	c.buf = buf
	return out, err
}

// readAll appends everything r holds to buf, growing it only when it is
// full; bytes.Buffer.ReadFrom doubles it whenever 512 bytes are not free.
func readAll(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// parse parses text under mu.
func (c *seriesCache) parse(text string) ([]Sample, error) {
	if c.cur == nil {
		c.cur, c.old = make(map[string]*cachedSeries), make(map[string]*cachedSeries)
		c.types = make(map[string]string)
	}
	if len(c.cur)+c.held >= max(c.limit, 2*c.largest) {
		c.turn()
	}
	out := make([]Sample, 0, strings.Count(text, "\n")+1)
	// The last parse's keys point into a buffer that has been read into
	// since; they are dropped unread.
	clear(c.types)
	prev := &c.head // the entry of the last sample line
	// An exposition groups its lines by sample name, and a name's kind
	// depends only on the name and types: it is found once per run of one
	// name, and a TYPE comment ends the run. No sample name is empty.
	runName, runKind := "", Kind(0)
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
			if family, typ, ok := parseTypeComment(line); ok {
				c.types[family] = typ
				runName = ""
			}
			continue
		}
		e, v, err := c.parseSampleLine(prev.next, line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", lineNo, err)
		}
		if prev.next != e {
			prev.next = e
		}
		prev = e
		if e.name != runName {
			runName, runKind = e.name, kindFor(e.name, c.types)
		}
		out = append(out, Sample{Name: e.name, Labels: e.labels, Kind: runKind, Value: v})
	}
	c.largest = max(c.largest, len(out))
	return out, nil
}

// turn makes old of cur and empties the other generation. Entries only in
// old drop out of the table; their fields are cleared, so that a live entry
// whose next is one of them pins a bare struct, and a chunk kept by its live
// entries pins nothing more.
func (c *seriesCache) turn() {
	for _, e := range c.old {
		if e.gen != c.gen {
			*e = cachedSeries{gen: e.gen}
		}
	}
	c.cur, c.old = c.old, c.cur
	clear(c.cur)
	c.gen++
	c.held, c.largest = len(c.old), 0
}

// lookup finds the entry for a sample line's series: guess, the entry that
// followed the previous line last time, when its gen says it is in cur or old
// and the line spells its text and then whitespace; else the maps' entry for
// the line's seriesText. An entry in old moves forward into cur, however it
// was found.
func (c *seriesCache) lookup(guess *cachedSeries, line string) *cachedSeries {
	if e := guess; e != nil && c.gen-e.gen <= 1 && spells(line, e.text) {
		return c.forward(e)
	}
	return c.find(seriesText(line))
}

// find is the maps' entry for a series text, moved forward; nil when neither
// generation holds it.
func (c *seriesCache) find(text string) *cachedSeries {
	if e := c.cur[text]; e != nil {
		return e
	}
	if e := c.old[text]; e != nil {
		return c.forward(e)
	}
	return nil
}

// forward moves an entry the table holds into cur, if it is only in old.
func (c *seriesCache) forward(e *cachedSeries) *cachedSeries {
	if e.gen != c.gen {
		c.cur[e.text], e.gen = e, c.gen
		c.held--
	}
	return e
}

// spells reports whether line starts with the series text text and ASCII
// whitespace follows it. Text is what scanSeries consumed from a line it
// accepted, so it consumes text from this line too; seriesText finds text
// here as well unless a '}' follows it, and then the maps miss, the grammar
// consumes text and find serves its entry. Such a line fails its value,
// timestamp or trailing-garbage check, on the same rest either way.
func spells(line, text string) bool {
	return len(line) > len(text) && line[:len(text)] == text && asciiSpace(line[len(text)])
}

// admit remembers a series text the grammar just accepted: copied once and
// parsed again, so that what is kept are slices of the copy, not of the
// scrape.
func (c *seriesCache) admit(text string) *cachedSeries {
	if len(c.spare) == 0 {
		c.spare = make([]cachedSeries, entryChunk)
	}
	e := &c.spare[0]
	c.spare = c.spare[1:]
	e.text, e.gen = strings.Clone(text), c.gen
	e.name, e.labels, _, _ = scanSeries(e.text)
	c.cur[e.text] = e
	return e
}

// seriesText finds the series part of a sample line without parsing it: the
// longest metric name and, when a '{' follows, everything through the line's
// last '}' ("" when there is none) — where a well-formed line's label block
// ends, whatever braces its quoted values hold. It checks no grammar. Only
// what scanSeries consumed from a line it accepted is ever in the table, and
// scanSeries — left to right, stopping at the block's closing brace, or at
// the byte after the name, required here not to be '{' — consumes the same
// bytes from any line that starts with them; so a hit is what a parse gives.
func seriesText(line string) string {
	i := 0
	for i < len(line) && isNameRune(line[i], i) {
		i++
	}
	if i == len(line) || line[i] != '{' {
		return line[:i]
	}
	return line[:strings.LastIndexByte(line, '}')+1]
}

// parseTypeComment recognises "# TYPE <family> <type>" comments, their
// fields split as strings.Fields splits them (nextField); every other comment (HELP,
// freeform, an unknown type) parses as ok=false and is ignored, and one whose
// first two fields are not "#" and "TYPE" is left after those two.
func parseTypeComment(line string) (family, typ string, ok bool) {
	var fields [5]string // a fifth field is one too many
	n := 0
	for rest := line; n < len(fields); n++ {
		if fields[n], rest = nextField(rest); fields[n] == "" {
			break
		}
		if n == 1 && (fields[0] != "#" || fields[1] != "TYPE") {
			return "", "", false
		}
	}
	if n != 4 {
		return "", "", false
	}
	switch fields[3] {
	case "counter", "gauge", "histogram", "summary", "untyped":
		return fields[2], fields[3], true
	}
	return "", "", false
}

// kindFor classifies a sample name by the TYPE of the name itself or, for a
// _bucket, _sum or _count line, of its family. A histogram's and a summary's
// component series are cumulative, but a summary's own lines are quantiles,
// which go up and down.
func kindFor(name string, types map[string]string) Kind {
	if typ, ok := types[name]; ok {
		if typ == "counter" || typ == "histogram" {
			return KindCounter
		}
		return KindGauge
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if family, ok := strings.CutSuffix(name, suffix); ok {
			if typ := types[family]; typ == "gauge" || typ == "untyped" {
				return KindGauge
			}
			return KindCounter
		}
	}
	if strings.HasSuffix(name, "_total") {
		return KindCounter
	}
	return KindGauge
}

// scanSeries parses the series part of a sample line: the metric name and
// the label block, if one follows.
func scanSeries(line string) (name string, labels Labels, rest string, err error) {
	if rest, name, err = scanName(line); err != nil {
		return "", nil, "", err
	}
	if strings.HasPrefix(rest, "{") {
		if labels, rest, err = scanLabels(rest); err != nil {
			return "", nil, "", err
		}
	}
	return name, labels, rest, nil
}

// parseSampleLine parses one sample line into the table's entry for its
// series and its value; guess is the entry that followed the previous line
// last time.
func (c *seriesCache) parseSampleLine(guess *cachedSeries, line string) (e *cachedSeries, v float64, err error) {
	if e = c.lookup(guess, line); e == nil {
		var rest string
		if _, _, rest, err = scanSeries(line); err != nil {
			return nil, 0, err
		}
		// A '}' after the label block makes seriesText longer than what the
		// grammar consumed, which the table may hold already.
		text := line[:len(line)-len(rest)]
		if e = c.find(text); e == nil {
			e = c.admit(text)
		}
	}
	rest := line[len(e.text):]
	// One space and then an integral value below 1e6 as WritePrometheus
	// prints it: the fields below would find that value and nothing else.
	if len(rest) > 1 && rest[0] == ' ' {
		if v, ok := wholeNumber(rest[1:]); ok {
			return e, v, nil
		}
	}
	value, after := nextField(rest)
	if value == "" {
		return e, 0, fmt.Errorf("missing value after %q", e.name)
	}
	stamp, after := nextField(after)
	if extra, _ := nextField(after); extra != "" {
		return e, 0, fmt.Errorf("trailing garbage after value: %q", rest)
	}
	if v, err = parseValue(value); err != nil {
		return e, 0, fmt.Errorf("bad value %q: %w", value, err)
	}
	if stamp != "" {
		// Optional millisecond timestamp; validated then dropped (the
		// ingesting scraper stamps samples with its own scrape time, like
		// Prometheus does by default).
		if _, err := strconv.ParseInt(stamp, 10, 64); err != nil {
			return e, 0, fmt.Errorf("bad timestamp %q: %w", stamp, err)
		}
	}
	return e, v, nil
}

// parseValue is strconv.ParseFloat, with a value of up to 15 digits read
// directly.
func parseValue(s string) (float64, error) {
	if v, ok := wholeNumber(s); ok {
		return v, nil
	}
	return strconv.ParseFloat(s, 64)
}

// wholeNumber reads s when it is 1 to 15 decimal digits: below 2^53, so the
// value is exact, as strconv.ParseFloat would read it.
func wholeNumber(s string) (float64, bool) {
	if len(s) == 0 || len(s) > 15 {
		return 0, false
	}
	n := uint64(0)
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = 10*n + uint64(d)
	}
	return float64(n), true
}

// nextField splits the first whitespace-separated field off s, with
// strings.Fields' notion of whitespace; field is empty when s holds none.
// ASCII is scanned byte by byte; from the first byte that starts a wider
// rune on, unicode.IsSpace decides.
func nextField(s string) (field, rest string) {
	start := 0
	for start < len(s) && asciiSpace(s[start]) {
		start++
	}
	for i := start; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf:
			return nextFieldFunc(s[start:])
		case asciiSpace(c):
			return s[start:i], s[i:]
		}
	}
	return s[start:], ""
}

func nextFieldFunc(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// asciiSpace is unicode.IsSpace below utf8.RuneSelf.
func asciiSpace(c byte) bool {
	return c == ' ' || c-'\t' <= '\r'-'\t'
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
		if _, dup := labels[name]; dup {
			return nil, "", fmt.Errorf("duplicate label name %q", name)
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
