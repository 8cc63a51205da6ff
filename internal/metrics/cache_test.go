package metrics

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestSeriesText pins the scan that finds a line's series text: a name is
// taken whole — `foo`, `foo{…}` and `foobar` are three different series texts
// — and a label block runs to the line's last brace, so no brace, quote or
// escape inside a quoted value ends it early.
func TestSeriesText(t *testing.T) {
	for _, c := range []struct{ line, want string }{
		{`foo 1`, `foo`},
		{`foo`, `foo`},
		{`foobar 1`, `foobar`},
		{`foo{} 1`, `foo{}`},
		{`foo{a="b"} 1`, `foo{a="b"}`},
		{`foo{a="b"}1`, `foo{a="b"}`},
		{`foo{a="b",} 1 1700000000000`, `foo{a="b",}`},
		{`foo{ a = "b" , c = "d" } 1`, `foo{ a = "b" , c = "d" }`},
		{"foo{\ta=\"b\"\t}\t1", "foo{\ta=\"b\"\t}"},
		{`foo{a="}"} 1`, `foo{a="}"}`},
		{`foo{a="\""} 1`, `foo{a="\""}`},
		{`foo{a="\"}"} 1`, `foo{a="\"}"}`},
		{`foo{a="\\"} 1`, `foo{a="\\"}`},
		{`foo{a="\\\"}"} 1`, `foo{a="\\\"}"}`},
		{`foo{a="x\ny}",b="{"} 1`, `foo{a="x\ny}",b="{"}`},
		{`foo {a="b"} 1`, `foo`},
		{`foo{a="b" 1`, ``},
		{`foo{a="b\`, ``},
		{`9foo 1`, ``},
		{``, ``},
		// Not sample lines: what is found is never in the table, because the
		// grammar never consumed it.
		{`foo{a="b} 1`, `foo{a="b}`},
		{`foo{a="b"} 1}`, `foo{a="b"} 1}`},
		{`{a="b"} 1`, `{a="b"}`},
	} {
		if got := seriesText(c.line); got != c.want {
			t.Errorf("seriesText(%q) = %q, want %q", c.line, got, c.want)
		}
		// On a line the grammar accepts whole, it is what the grammar consumed.
		if _, err := new(seriesCache).parse(c.line); err == nil {
			if _, _, rest, _ := scanSeries(c.line); c.want != c.line[:len(c.line)-len(rest)] {
				t.Errorf("line %q parses, yet its series text %q is not what scanSeries consumed", c.line, c.want)
			}
		}
	}
}

// A hit must not alias: series texts that share a prefix, or spell one label
// set two ways, each parse as themselves on a warm table.
func TestWarmTableKeepsNeighboursApart(t *testing.T) {
	text := "foo 1\nfoobar 2\nfoo{a=\"b\"} 3\nfoo{a=\"b\",} 4\nfoo{ a=\"b\" } 5\nfoo{a=\"b}\"} 6\nfoo{} 7\n"
	table := &seriesCache{limit: seriesCacheCap}
	for pass := 0; pass < 2; pass++ {
		got, err := table.parse(text)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, s := range got {
			lines = append(lines, fmt.Sprintf("%s%v=%v", s.Name, s.Labels, s.Value))
		}
		want := "foo{}=1 foobar{}=2 foo{a=b}=3 foo{a=b}=4 foo{a=b}=5 foo{a=b}}=6 foo{}=7"
		if strings.Join(lines, " ") != want {
			t.Fatalf("pass %d: parsed %q, want %q", pass, lines, want)
		}
	}
	if len(table.cur) != 7 {
		t.Fatalf("table holds %d series texts, want one per spelling (7)", len(table.cur))
	}
}

// fleetExposition renders what a mesh of n backends exposes.
func fleetExposition(tb testing.TB, n int) []byte {
	tb.Helper()
	var text bytes.Buffer
	if err := fleetRegistry(n).WritePrometheus(&text); err != nil {
		tb.Fatal(err)
	}
	return text.Bytes()
}

// fleetRegistry is a mesh of n backends: per backend two counters, two
// 26-bucket histograms and a gauge — 61 samples.
func fleetRegistry(n int) *Registry {
	bounds := make([]float64, 26)
	for i := range bounds {
		bounds[i] = 0.001 * float64(int(1)<<i)
	}
	r := NewRegistry()
	for i := 0; i < n; i++ {
		labels := Labels{"service": fmt.Sprintf("svc-%04d", i/3), "backend": fmt.Sprintf("svc-%04d-cluster-%d", i/3, i%3+1), "src": "bench"}
		for _, class := range []string{"success", "failure"} {
			l := labels.With("classification", class)
			r.Counter("response_total", l).Add(float64(i))
			r.Histogram("response_latency", l, bounds).Observe(0.004 * float64(i%9+1))
		}
		r.Gauge("request_inflight", labels).Set(float64(i%7 + 1))
	}
	return r
}

// A warm parse allocates the result slice and the reader — however many
// samples the text holds: the text is read into the table's buffer, and the
// types map is the table's.
func TestWarmParseAllocatesAConstant(t *testing.T) {
	allocs := func(backends int) float64 {
		text := fleetExposition(t, backends)
		if _, err := ParseExposition(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := ParseExposition(bytes.NewReader(text)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, fleet := allocs(3), allocs(102)
	if small != fleet || fleet > 2 {
		t.Fatalf("warm parse: %v allocs at 3 backends, %v at 102; want equal and at most 2", small, fleet)
	}
}

// TestWarmCommentedParseAllocatesTheResult: a HELP and a TYPE comment before
// each of 100 counters cost a warm parse nothing beyond the result slice —
// the comments are split without a slice per line, and the TYPE map is the
// table's, kept from parse to parse.
func TestWarmCommentedParseAllocatesTheResult(t *testing.T) {
	text := seriesLines("# HELP c%[1]d_total Requests.\n# TYPE c%[1]d_total counter\nc%[1]d_total{backend=\"b\"} 1\n", 0, 100)
	want, err := oracleParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	table := &seriesCache{limit: seriesCacheCap}
	for range 2 {
		got, err := table.parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSamples(got, want) {
			t.Fatal("commented text parses differently from the oracle")
		}
	}
	if n := testing.AllocsPerRun(20, func() { table.parse(text) }); n > 1 {
		t.Fatalf("warm parse of 100 commented counters: %v allocs, want at most 1", n)
	}
}

// BenchmarkParseExposition is a warm parse of the 102-backend fleet text
// through ParseExposition, whose table holds every series. ns/sample is the
// figure to quote.
func BenchmarkParseExposition(b *testing.B) {
	text := fleetExposition(b, 102)
	samples := bytes.Count(text, []byte("\n")) // the writer emits sample lines only
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < 3; i++ {
			if _, err := ParseExposition(bytes.NewReader(text)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ParseExposition(bytes.NewReader(text)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(samples), "ns/sample")
	})
}

// mallocs counts the heap objects one call of f allocates; unlike
// testing.AllocsPerRun it does not run f once more first, so it can cost a
// cold pass.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestTableIsBoundedWithoutACliff: twice the table's floor in distinct
// series, parsed three times. Every pass equals the oracle, the table holds
// each series once and stays inside its bound, the cold pass pays a fixed
// price per series it admits, and from the second pass on no series costs
// anything — a scrape past the floor is cached whole, not "the first N
// cached and the rest parsed anew".
func TestTableIsBoundedWithoutACliff(t *testing.T) {
	const limit = 256
	text := seriesLines(boundedLine, 0, 2*limit)
	want, err := oracleParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	grammar := mallocs(func() { // what checking every line's series costs
		for rest, line := text, ""; rest != ""; {
			line, rest, _ = strings.Cut(rest, "\n")
			if _, _, _, err = scanSeries(line); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	table := &seriesCache{limit: limit}
	for pass := 1; pass <= 3; pass++ {
		var got []Sample
		n := mallocs(func() { got, err = table.parse(text) })
		if err != nil {
			t.Fatal(err)
		}
		if !sameSamples(got, want) {
			t.Fatalf("pass %d differs from the oracle", pass)
		}
		if size := len(table.cur) + table.held; size != len(want) || size > max(limit, 2*table.largest) {
			t.Fatalf("pass %d: the table holds %d series, want the %d the text spells, within its bound max(%d, 2×%d)",
				pass, size, len(want), limit, table.largest)
		}
		// A cold pass checks every line and admits every series: a copy of
		// its text and a second label map (three objects), and a share of an
		// entry chunk and of the table's growth. An entry allocated on its
		// own costs a whole allocation a series more than this.
		if ceiling := grammar + 3*uint64(len(want)) + uint64(len(want))/4; pass == 1 && n > ceiling {
			t.Fatalf("cold pass: %d allocs for %d new series, want at most %d (the grammar alone %d)", n, len(want), ceiling, grammar)
		}
		// Later passes allocate the result slice, not one object per series.
		if pass > 1 && n > 2 {
			t.Fatalf("pass %d: %d allocs for %d series served from the table, want at most 2", pass, n, len(want))
		}
	}
	for i, s := range want {
		if table.lookup(nil, fmt.Sprintf("m{i=\"%d\",j=\"x\"}", i)) == nil {
			t.Fatalf("series %d (%v) is not cached", i, s.Labels)
		}
	}
}

// A series no text spells any more leaves the table within two turns.
func TestTableAgesOutChurnedSeries(t *testing.T) {
	const limit = 8
	table := &seriesCache{limit: limit}
	parse := func(from, to int) {
		t.Helper()
		if _, err := table.parse(seriesLines(churnLine, from, to)); err != nil {
			t.Fatal(err)
		}
	}
	parse(0, limit) // fills the table
	for round := 0; round < 3; round++ {
		parse(limit, 2*limit) // the fleet was replaced
	}
	if table.lookup(nil, `m{i="0"}`) != nil {
		t.Fatal("a series three scrapes gone is still cached")
	}
	if table.lookup(nil, fmt.Sprintf("m{i=\"%d\"}", limit)) == nil {
		t.Fatal("the live series are not cached")
	}
}

// The streams of the two tests above: one line per series i.
const (
	boundedLine = "m{i=\"%[1]d\",j=\"x\"} %[1]d\n"
	churnLine   = "m{i=\"%[1]d\"} 1\n"
)

// seriesLines renders line, which spells i as %[1]d, for i in [from, to).
func seriesLines(line string, from, to int) string {
	var b strings.Builder
	for i := from; i < to; i++ {
		fmt.Fprintf(&b, line, i)
	}
	return b.String()
}

// reversed is text with its lines in the opposite order.
func reversed(text string) string {
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	slices.Reverse(lines)
	return strings.Join(lines, "\n") + "\n"
}

// mapTable is what the series table's generations hold when every lookup
// goes through the maps: the same turns — when the series in cur and those
// only in old reach the floor, or twice the largest parse since the last
// turn — and each line's series, as far as the grammar consumed it, enters
// cur, admitted or moved forward out of old, up to the first line that fails;
// a parse that fails counts for no largest.
type mapTable struct {
	limit, largest int
	cur, old       map[string]bool
}

func (m *mapTable) parse(text string) {
	if m.cur == nil {
		m.cur, m.old = make(map[string]bool), make(map[string]bool)
	}
	if len(m.cur)+m.held() >= max(m.limit, 2*m.largest) {
		m.cur, m.old = m.old, m.cur
		clear(m.cur)
		m.largest = 0
	}
	lines := 0
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		_, _, rest, err := scanSeries(line)
		if err != nil {
			return
		}
		m.cur[line[:len(line)-len(rest)]] = true
		if _, err := oracleParseExposition(strings.NewReader(line)); err != nil {
			return
		}
		lines++
	}
	m.largest = max(m.largest, lines)
}

// held counts the series only in old.
func (m *mapTable) held() int {
	n := 0
	for st := range m.old {
		if !m.cur[st] {
			n++
		}
	}
	return n
}

func sameKeys(got map[string]*cachedSeries, want map[string]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for k := range got {
		if !want[k] {
			return false
		}
	}
	return true
}

// TestPredictedTableMatchesMapTable: over the churn and the past-capacity
// streams above, and one whose known series reappear on lines with a '}' in
// the value, in order, with every text's lines reversed, and alternating the
// two, the table that follows its successor links holds after every parse
// exactly the keys a map-only table would, with as many only in old; every
// parse equals the oracle, and every sample's name is the one of its line's
// entry in cur. A predicted entry taken without its generation check, or
// taken from old without the forward move, leaves the table otherwise, and
// so does a braced line that admits its series text again.
func TestPredictedTableMatchesMapTable(t *testing.T) {
	churn := []string{seriesLines(churnLine, 0, 8)}
	for i := 0; i < 3; i++ {
		churn = append(churn, seriesLines(churnLine, 8, 16))
	}
	churn = append(churn, seriesLines(churnLine, 0, 8), seriesLines(churnLine, 4, 12), seriesLines(churnLine, 4, 12))
	bounded := seriesLines(boundedLine, 0, 512)
	good, braced, other := "c 1\na{x=\"1\"} 1\n", "b 1\na{x=\"1\"} 1}\n", "d 1\ne 1\nf 1\n"
	for _, c := range []struct {
		name  string
		limit int
		texts []string
	}{
		{"churn", 8, churn},
		{"bounded", 256, []string{bounded, bounded, bounded, bounded}},
		{"braced", 2, []string{good, braced, good, other, braced, good, other, other, braced, good, braced, good}},
	} {
		for _, order := range []string{"forward", "reversed", "alternating"} {
			table, twin := &seriesCache{limit: c.limit}, &mapTable{limit: c.limit}
			for i, text := range c.texts {
				if order == "reversed" || order == "alternating" && i%2 == 1 {
					text = reversed(text)
				}
				got, err := table.read(strings.NewReader(text))
				want, wantErr := oracleParseExposition(strings.NewReader(text))
				twin.parse(text)
				if !sameSamples(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s %s, parse %d differs from the oracle: %v; the oracle's %v", c.name, order, i, err, wantErr)
				}
				if !sameKeys(table.cur, twin.cur) || !sameKeys(table.old, twin.old) || table.held != twin.held() {
					t.Fatalf("%s %s, parse %d: the table holds %d + %d series (%d only in old), the map-only table %d + %d (%d), or other ones",
						c.name, order, i, len(table.cur), len(table.old), table.held, len(twin.cur), len(twin.old), twin.held())
				}
				lines := strings.Split(text, "\n")
				for k, s := range got {
					if e := table.cur[seriesText(lines[k])]; e == nil || unsafe.StringData(e.name) != unsafe.StringData(s.Name) {
						t.Fatalf("%s %s, parse %d: sample %d is not its entry's in cur", c.name, order, i, k)
					}
				}
			}
		}
	}
}

// A dropped entry is never served, not even to a line that its cleared text
// prefixes: a's successor b leaves the table in the second turn while a
// stays, and then the line after a is one with no series text, or one that
// starts with whitespace.
func TestDroppedSuccessorIsNotServed(t *testing.T) {
	table := &seriesCache{limit: 2}
	for i, text := range []string{"a 1\nb 1\n", "c 1\nd 1\n", "a 1\n", "a 1\n", "a 1\n9 1\n", "a 1\n\t9 1\n"} {
		got, err := table.read(strings.NewReader(text))
		want, wantErr := oracleParseExposition(strings.NewReader(text))
		if !sameSamples(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("parse %d: %v, %v; the oracle's %v, %v", i, got, err, want, wantErr)
		}
		if i == 3 && (table.gen != 2 || table.cur["b"] != nil || table.old["b"] != nil || table.cur["a"] == nil) {
			t.Fatalf("after parse %d the table is at turn %d and holds b: %v, a: %v; want b dropped in turn 2 and a kept",
				i, table.gen, table.cur["b"] != nil || table.old["b"] != nil, table.cur["a"] != nil)
		}
	}
}

// TestNoSampleHoldsTheReadBuffer: a scrape of three times the table's floor
// in distinct series — ParseExposition's table, on its own — read three
// times. No Name or label string of any returned sample lies in the read
// buffer, which goes back to the table and is read into again: a store that
// keeps a sample's labels for a series' life must not pin a whole scrape.
// The table holds each series once, within twice the largest parse, and the
// third read admits nothing.
func TestNoSampleHoldsTheReadBuffer(t *testing.T) {
	text := seriesLines(boundedLine, 0, 3*seriesCacheCap)
	table := &seriesCache{limit: seriesCacheCap}
	var buf *byte
	for pass := 1; pass <= 3; pass++ {
		size, spare := len(table.cur)+table.held, len(table.spare)
		var got []Sample
		var err error
		n := mallocs(func() { got, err = table.read(strings.NewReader(text)) })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3*seriesCacheCap {
			t.Fatalf("pass %d: %d samples, want %d", pass, len(got), 3*seriesCacheCap)
		}
		for _, s := range got {
			if within(table.buf, s.Name) {
				t.Fatalf("pass %d: the name of %s%v is a slice of the read buffer", pass, s.Name, s.Labels)
			}
			for k, v := range s.Labels {
				if within(table.buf, k) || within(table.buf, v) {
					t.Fatalf("pass %d: a label of %s%v is a slice of the read buffer", pass, s.Name, s.Labels)
				}
			}
		}
		if table.buf == nil || buf != nil && unsafe.SliceData(table.buf) != buf {
			t.Fatalf("pass %d: the read buffer was not handed back to the table", pass)
		}
		buf = unsafe.SliceData(table.buf)
		if held := len(table.cur) + table.held; held != len(got) || held > 2*table.largest {
			t.Fatalf("pass %d: the table holds %d series for a parse of %d, want each once and at most twice the largest parse (%d)",
				pass, held, len(got), table.largest)
		}
		if pass == 3 && (len(table.cur)+table.held != size || len(table.spare) != spare || n > 2) {
			t.Fatalf("third read: the table went from %d to %d series, %d to %d spare entries, in %d allocs; want nothing admitted",
				size, len(table.cur)+table.held, spare, len(table.spare), n)
		}
	}
}

// within reports whether s lies in buf's array.
func within(buf []byte, s string) bool {
	if s == "" {
		return false
	}
	b, p := uintptr(unsafe.Pointer(unsafe.SliceData(buf))), uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return p >= b && p < b+uintptr(cap(buf))
}

// Concurrent scrapes of overlapping texts share one table and hand out the
// same read-only Labels; run under -race, with a reader walking them.
func TestConcurrentParsesShareLabels(t *testing.T) {
	texts := [][]byte{fleetExposition(t, 6), fleetExposition(t, 9), fleetExposition(t, 3)}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				text := texts[(g+i)%len(texts)]
				got, err := ParseExposition(bytes.NewReader(text))
				if err != nil {
					t.Error(err)
					return
				}
				want, _ := oracleParseExposition(bytes.NewReader(text))
				if !sameSamples(got, want) { // reads every shared map while others parse
					t.Errorf("goroutine %d pass %d differs from the oracle", g, i)
					return
				}
				for _, s := range got {
					_ = s.Labels.Hash()
				}
			}
		}(g)
	}
	wg.Wait()
}
