package metrics

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
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

// fleetExposition renders what a mesh of n backends exposes: per backend two
// counters, two 26-bucket histograms and a gauge — 61 samples.
func fleetExposition(tb testing.TB, n int) []byte {
	tb.Helper()
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
	var text bytes.Buffer
	if err := r.WritePrometheus(&text); err != nil {
		tb.Fatal(err)
	}
	return text.Bytes()
}

// A warm parse allocates the text, the result slice, the types map and the
// reader — however many samples the text holds.
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
	if small != fleet || fleet > 6 {
		t.Fatalf("warm parse: %v allocs at 3 backends, %v at 102; want equal and at most 6", small, fleet)
	}
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

// TestTableIsBoundedWithoutACliff: twice the table's limit in distinct
// series, parsed three times. The table never exceeds its limit per
// generation, every pass equals the oracle, a series past the limit costs
// what the uncached parser charges, and from the second pass on the first
// limit series cost nothing — "the first N are cached", not thrash.
func TestTableIsBoundedWithoutACliff(t *testing.T) {
	const limit = 256
	var b strings.Builder
	for i := 0; i < 2*limit; i++ {
		fmt.Fprintf(&b, "m{i=\"%d\",j=\"x\"} %d\n", i, i)
	}
	text := b.String()
	want, err := oracleParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	uncached := mallocs(func() { _, err = new(seriesCache).parse(text) }) // limit 0: nothing is ever admitted
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
		if len(table.cur) > limit || len(table.old) > limit {
			t.Fatalf("pass %d: generations hold %d and %d series, limit %d", pass, len(table.cur), len(table.old), limit)
		}
		// A cold pass pays to admit limit series (a copy, a second label map,
		// the table's growth) and nothing for the rest; later passes serve
		// those limit series from the table and parse the rest as uncached.
		if ceiling := uncached + 4*limit; pass == 1 && n > ceiling {
			t.Fatalf("cold pass: %d allocs, want at most %d (uncached %d)", n, ceiling, uncached)
		}
		if ceiling := uncached - limit; pass > 1 && n > ceiling {
			t.Fatalf("pass %d: %d allocs, want at most %d (uncached %d): the first %d series are not served from the table", pass, n, ceiling, uncached, limit)
		}
	}
	for i, s := range want[:limit] {
		if _, ok := table.get(fmt.Sprintf("m{i=\"%d\",j=\"x\"}", i)); !ok {
			t.Fatalf("series %d (%v) is not among the first %d cached", i, s.Labels, limit)
		}
	}
}

// A series no text spells any more leaves the table within two turns.
func TestTableAgesOutChurnedSeries(t *testing.T) {
	const limit = 8
	table := &seriesCache{limit: limit}
	parse := func(from, to int) {
		t.Helper()
		var b strings.Builder
		for i := from; i < to; i++ {
			fmt.Fprintf(&b, "m{i=\"%d\"} 1\n", i)
		}
		if _, err := table.parse(b.String()); err != nil {
			t.Fatal(err)
		}
	}
	parse(0, limit) // fills the table
	for round := 0; round < 3; round++ {
		parse(limit, 2*limit) // the fleet was replaced
	}
	if _, ok := table.get(`m{i="0"}`); ok {
		t.Fatal("a series three scrapes gone is still cached")
	}
	if _, ok := table.get(fmt.Sprintf("m{i=\"%d\"}", limit)); !ok {
		t.Fatal("the live series are not cached")
	}
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
