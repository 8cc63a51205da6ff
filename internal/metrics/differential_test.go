package metrics

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The pools a generated registry draws from: names that need sanitising,
// values that need escaping, an explicit "le" on a plain counter (so the
// sort meets one sample with le and one without under the same name), names
// that are a histogram x's expansions (so one sample name holds lines of
// several registrations, with le and without), and bounds whose lexical and
// numeric orders differ. Label names sanitise to distinct names, so a
// written line never repeats one.
var (
	genMetricNames = []string{"response_total", "response_latency", "request_inflight", "weird name-1", "9lives", "a:b", "ünï", "x", "x_bucket", "x_sum"}
	genLabelNames  = []string{"backend", "service", "le", "classification", "bad-label", "Ünï", "_"}
	genLabelValues = []string{"a", "b", `quo"te`, `back\slash`, "new\nline", "", "ünï→", "a,b=c", "+Inf", "0.5", "5", "10", "1e3", "nope"}
	genBounds      = [][]float64{{0.5, 5, 10}, {1}, {0.001, 0.01, 0.1, 1, 10, 100}, {2.5, 1e3}}
	genValues      = []float64{0, 1, 2.5, 1e-9, 123456789, 1e21, -3, math.Inf(1), math.Inf(-1), math.NaN()}
)

// genRegistry registers and moves series as a stream of choices dictates;
// choose(n) returns a number in [0, n). The differential test feeds it a
// seeded rand, the fuzz target its input bytes.
func genRegistry(r *Registry, series int, choose func(n int) int) {
	for i := 0; i < series; i++ {
		name := genMetricNames[choose(len(genMetricNames))]
		labels := Labels{}
		for n := choose(4); n > 0; n-- {
			labels[genLabelNames[choose(len(genLabelNames))]] = genLabelValues[choose(len(genLabelValues))]
		}
		v := genValues[choose(len(genValues))]
		switch choose(3) {
		case 0:
			r.Counter(name, labels).Add(math.Abs(v)) // NaN and ±Inf included: Add only refuses negatives
		case 1:
			r.Gauge(name, labels).Set(v)
		case 2:
			bounds := genBounds[choose(len(genBounds))][:1]
			if h, ok := r.histograms[seriesKey(name, labels)]; ok {
				bounds = h.Bounds() // registered before: other bounds panic
			}
			if h := r.Histogram(name, labels, bounds); v == v && !math.IsInf(v, 0) {
				h.Observe(v)
			}
		}
	}
}

func sameSamples(got, want []Sample) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Kind != w.Kind || !g.Labels.Equal(w.Labels) ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			return false
		}
	}
	return true
}

// agreeWithOracleParser requires the caching parser and the old
// Scanner-and-Fields one to accept or reject text alike — equal samples, or
// equal errors, line number included — whatever the series table holds:
// through ParseExposition, whose table earlier texts have filled; on a table
// of its own, cold and then warm; on a sibling text that shares series texts
// with the first; on a mirror of the first, as long and different in every
// letter and digit; and on the first again. Each table reads every pass into
// the buffer the last one handed back, and every pass's samples must still
// equal the oracle's after each later pass: on the second table, with room
// for one series, nearly every sample is a slice of its text, and a buffer
// read into again under such a sample changes it.
func agreeWithOracleParser(t testing.TB, text []byte) {
	t.Helper()
	type outcome struct {
		samples []Sample
		err     error
	}
	oracle := func(text []byte) outcome {
		samples, err := oracleParseExposition(bytes.NewReader(text))
		return outcome{samples, err}
	}
	agree := func(how string, text []byte, got, want outcome) {
		t.Helper()
		switch {
		case (got.err == nil) != (want.err == nil):
			t.Fatalf("parsing %q (%s): error %v, oracle's %v", text, how, got.err, want.err)
		case got.err != nil && got.err.Error() != want.err.Error():
			t.Fatalf("parsing %q (%s): error %q, oracle's %q", text, how, got.err, want.err)
		case !sameSamples(got.samples, want.samples):
			t.Fatalf("parsing %q (%s):\n got %v\nwant %v", text, how, got.samples, want.samples)
		}
	}
	other, twin := sibling(text), mirror(text)
	want, wantOther, wantTwin := oracle(text), oracle(other), oracle(twin)
	samples, err := ParseExposition(bytes.NewReader(text))
	agree("process-wide table", text, outcome{samples, err}, want)
	passes := []struct {
		how  string
		text []byte
		want outcome
	}{{"cold", text, want}, {"warm", text, want}, {"sibling", other, wantOther}, {"mirror", twin, wantTwin}, {"after sibling and mirror", text, want}}
	for _, limit := range []int{seriesCacheCap, 1} {
		table := &seriesCache{limit: limit}
		kept := make([][]Sample, len(passes))
		for i, pass := range passes {
			samples, err := table.read(bytes.NewReader(pass.text))
			agree(pass.how, pass.text, outcome{samples, err}, pass.want)
			kept[i] = samples
			for j := range passes[:i] {
				if !sameSamples(kept[j], passes[j].want.samples) {
					t.Fatalf("parsing %q (limit %d): the %s pass's samples changed when the %s pass was read:\n got %v\nwant %v",
						text, limit, passes[j].how, pass.how, kept[j], passes[j].want.samples)
				}
			}
		}
	}
}

// mirror derives a text as long as text that differs from it in every ASCII
// letter (case swapped) and digit (d -> 9-d), and nowhere else.
func mirror(text []byte) []byte {
	out := make([]byte, len(text))
	for i, c := range text {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
			c ^= 'a' - 'A'
		case c >= '0' && c <= '9':
			c = '9' - (c - '0')
		}
		out[i] = c
	}
	return out
}

// sibling derives a second exposition from text: its lines in reverse order,
// each followed by a copy with a "0" appended. Most of its series texts are
// the first's (hits, under other line numbers and before other values:
// `x 1` -> `x 10`), some are a longer spelling of one (`x` -> `x0`), and a
// bad line moves to where a different one is met first.
func sibling(text []byte) []byte {
	lines := bytes.Split(text, []byte("\n"))
	var out []byte
	for i := len(lines) - 1; i >= 0; i-- {
		line := bytes.TrimSuffix(lines[i], []byte("\r"))
		out = append(append(out, line...), '\n')
		out = append(append(out, line...), "0\n"...)
	}
	return out
}

// TestExpositionMatchesOracle: the cached-layout writer must produce the old
// writer's bytes for any registry, across series registered between passes
// (the layout is invalidated) and values moved between passes (it is not).
func TestExpositionMatchesOracle(t *testing.T) {
	const cases = 1000
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		r := NewRegistry()
		for pass := 0; pass < 4; pass++ {
			if pass != 2 { // pass 2 writes the same series set again: a warm layout
				genRegistry(r, rng.Intn(12), rng.Intn)
			}
			var got, want bytes.Buffer
			if err := r.WritePrometheus(&got); err != nil {
				t.Fatal(err)
			}
			if err := oracleWritePrometheus(r, &want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("case %d pass %d:\n got %q\nwant %q", c, pass, got.Bytes(), want.Bytes())
			}
			agreeWithOracleParser(t, got.Bytes())
		}
	}
}

// TestExpositionInterleavesByBound: registries whose lines of one sample
// name come from several registrations, against the old writer's bytes.
// Where every line of a sample name carries "le", lines that share a key
// without it interleave by bound: two histograms whose label sets spell one
// key, counters and a gauge with an "le" of their own beside them, and two
// histograms that carry an "le" label, so their _sum and _count lines do
// too. Where a sample name holds lines with "le" and lines without, or a
// bound is NaN, the old sort's comparison orders nothing consistently — one
// such set (a, b, c below) compares a < b < c < a — and only the same sort
// reproduces its output.
func TestExpositionInterleavesByBound(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name     string
		register func(r *Registry)
	}{
		{"colliding keys", func(r *Registry) {
			r.Histogram("x", Labels{"a": "1,b=2"}, []float64{0.5, 5, 10}).Observe(3)
			r.Histogram("x", Labels{"a": "1", "b": "2"}, []float64{1, 5, 20}).Observe(7)
			r.Counter("x_bucket", Labels{"a": "1", "b": "2", "le": "5"}).Add(4)
			r.Counter("x_bucket", Labels{"a": "1", "b": "2", "le": "+Inf"}).Add(5)
			r.Gauge("x_bucket", Labels{"a": "1", "b": "2", "le": "nope"}).Set(6)
			r.Counter("x_bucket", Labels{"a": "0", "le": "1e3"}).Add(7)
		}},
		{"histograms labelled le", func(r *Registry) {
			r.Histogram("z", Labels{"le": "7"}, []float64{1, 10}).Observe(2)
			r.Histogram("z", Labels{"le": "2", "b": "x"}, []float64{5}).Observe(6)
			r.Histogram("z", Labels{"le": "2"}, []float64{5, 50}).Observe(30)
		}},
		{"le and no le under one name", func(r *Registry) {
			r.Counter("c", Labels{"le": "5"}).Inc()
			r.Counter("c", Labels{"b": "1"}).Inc()
			r.Histogram("c", Labels{"b": "1"}, []float64{1}).Observe(1)
			r.Counter("c_sum", Labels{"b": "1", "le": "1"}).Inc()
		}},
		{"no order", func(r *Registry) {
			r.Counter("w", Labels{"backend": "a", "le": "5"}).Inc()             // a
			r.Counter("w", Labels{"backend": "a,b=c", "le": "5"}).Inc()         // b
			r.Counter("w", Labels{"backend": "a", "classification": "b"}).Inc() // c
		}},
		{"NaN bounds", func(r *Registry) {
			r.Histogram("n", nil, []float64{1, nan, 2}).Observe(1.5)
			r.Counter("m", Labels{"le": "NaN"}).Inc()
			r.Counter("m", Labels{"le": "1"}).Inc()
			r.Counter("m", Labels{"le": "0.5"}).Inc()
		}},
		{"NaN bounds across the old sort's blocks", func(r *Registry) {
			// Sorting m's lines on their own orders them otherwise.
			for _, s := range strings.Fields("m:0:2 z:18 z:46 z:42 z:28 a:29 a:12 a:27 z:1 m:0:3 m:1:3 a:22 z:23 a:40 m:1:NaN m:1:2 z:26 m:0:NaN a:2 m:0:+Inf m:0:0.5 a:4") {
				f := strings.Split(s, ":")
				if f[0] == "m" {
					r.Counter("m", Labels{"k": f[1], "le": f[2]}).Inc()
				} else {
					r.Counter(f[0], Labels{"i": f[1]}).Inc()
				}
			}
		}},
	} {
		r := NewRegistry()
		c.register(r)
		var got, want bytes.Buffer
		if err := r.WritePrometheus(&got); err != nil {
			t.Fatal(err)
		}
		if err := oracleWritePrometheus(r, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got.Bytes(), want.Bytes())
		}
	}
}

// A layout after one registration makes the new series' key and label
// block and sorts the series, not the samples: at most two allocations a
// registered series plus a constant, where re-sorting and re-rendering every
// sample cost about 19.5 a line.
func TestRegistrationRebuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := fleetRegistry(102)
	var text bytes.Buffer
	if err := r.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	series := len(r.order)
	n := mallocs(func() {
		r.Counter("response_total", Labels{"backend": "late", "classification": "failure"})
		text.Reset()
		if err := r.WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
	})
	if limit := uint64(2*series + 64); n > limit {
		t.Errorf("one registration and the layout after it: %d allocs for %d series, want at most %d", n, series, limit)
	}
	t.Logf("%d allocs for a layout of %d series", n, series)
}

// TestExpositionValueEdges: the values on either side of appendValue's
// whole-number path — -0, the whole numbers around 1e6, a fraction below it,
// 2^53, -1, 1e21, the smallest subnormal, NaN and both infinities — are
// written as the old writer wrote them and parse back to themselves.
func TestExpositionValueEdges(t *testing.T) {
	values := []float64{math.Copysign(0, -1), 0, 1, 999999, 1e6, 1e6 - 0.5, 1 << 53, -1, 1e21,
		math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	r := NewRegistry()
	for i, v := range values {
		if got, want := string(appendValue(nil, v)), oracleFormatValue(v); got != want {
			t.Errorf("appendValue(%v) = %q, want %q", v, got, want)
		}
		r.Gauge("edge", Labels{"i": strconv.Itoa(i)}).Set(v)
	}
	var got, want bytes.Buffer
	if err := r.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if err := oracleWritePrometheus(r, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("got %q\nwant %q", got.Bytes(), want.Bytes())
	}
	agreeWithOracleParser(t, got.Bytes())
	roundTrips(t, r)
}

// mutate damages a text the way a broken exporter or a truncated response
// would: bytes dropped, replaced or inserted from the grammar's own
// alphabet, with CRLF, tabs and non-ASCII spaces among them.
func mutate(rng *rand.Rand, text []byte) []byte {
	alphabet := []string{"{", "}", `"`, ",", "=", `\`, " ", "\t", "\n", "\r\n", "#", "# TYPE x gauge\n", "# TYPE response_latency histogram\n",
		"1", "-", "e", "x", "NaN", "+Inf", " 1700000000000", "\u00a0", "\u0085", "\u2003", "\xff", "_bucket", "_total"}
	out := append([]byte(nil), text...)
	for n := 1 + rng.Intn(4); n > 0 && len(out) > 0; n-- {
		i := rng.Intn(len(out))
		ins := alphabet[rng.Intn(len(alphabet))]
		switch rng.Intn(4) {
		case 0:
			out = append(out[:i], out[i+1:]...)
		case 1:
			out = append(out[:i], append([]byte(ins), out[i+1:]...)...)
		case 2:
			out = append(out[:i], append([]byte(ins), out[i:]...)...)
		case 3:
			out = out[:i] // the response was cut short
		}
	}
	return out
}

// TestParserMatchesOracle: same grammar, same errors — on well-formed
// expositions, on damaged ones, and on the corners of the line grammar.
func TestParserMatchesOracle(t *testing.T) {
	for _, text := range []string{
		"", "\n", "\r\n", " \t \n", "x 1", "x 1\r\n", "x\t1\t2\n", "x 1 2 3\n", "x\n", "x{} 1\n", "x{a=\"b\",} 1\n",
		"x{ a = \"b\" , c = \"d\" } 1\n", "x{a=\"b\"}1\n", "x{a=\"b\" 1\n", "x{a=b} 1\n", "x{a=\"b\\q\"} 1\n", "x{a=\"b\\", "x{a=\"b",
		"# HELP x y\n# TYPE x counter\nx 1\n", "# TYPE x summary\nx_count 2\nx_sum 3\n", "#TYPE x gauge\nx_total 1\n",
		"  x 1\n", "1x 1\n", "x NaN\nx +Inf\nx -Inf\nx 0x10\nx 1_0\n", "x 1 1.5\n", "x\u00a01\n", "x 1\u00a02\n", "x 1\u20032\u2003\n",
		"ok 1\nbad{ 1\nnever 2\n",
		"x 0\nx 007\nx 999999999999999\nx 1000000000000000\nx 9007199254740993\nx +1\nx -0\nx 1.\nx .5\nx 1e3\nx 0b1\nx 1 -1\nx 1 +1\n",
		"x 1\u00852\n", "x\u00851 2\n", "x 1\v\f2\n", "x{a=\"1\",a=\"2\"} 1\n", "x{le=\"+Inf\"} 3\n", "x_bucket{le=\"0.5\"} 3\n# TYPE x gauge\nx_bucket 4\n",
	} {
		agreeWithOracleParser(t, []byte(text))
	}
	const cases = 1500
	rejected := 0
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		r := NewRegistry()
		genRegistry(r, 1+rng.Intn(8), rng.Intn)
		var text bytes.Buffer
		if err := r.WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
		damaged := mutate(rng, text.Bytes())
		agreeWithOracleParser(t, damaged)
		if _, err := ParseExposition(bytes.NewReader(damaged)); err != nil {
			rejected++
			if !strings.HasPrefix(err.Error(), "metrics: line ") {
				t.Fatalf("rejection without a line number: %v", err)
			}
		}
	}
	if rejected < cases/10 || rejected > cases*9/10 {
		t.Fatalf("%d of %d damaged texts rejected: the mutations no longer exercise both outcomes", rejected, cases)
	}
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

// roundTrips requires WritePrometheus -> ParseExposition to return exactly
// the registry's samples, names sanitised.
func roundTrips(t testing.TB, r *Registry) {
	t.Helper()
	var text bytes.Buffer
	if err := r.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseExposition(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatalf("own exposition rejected: %v\n%s", err, text.Bytes())
	}
	render := func(name string, labels Labels, v float64) string {
		if v != v {
			v = math.NaN() // one NaN: its payload does not survive text
		}
		return string(appendValue(appendSeriesPrefix(nil, name, labels), v))
	}
	var got, want []string
	for _, s := range parsed {
		got = append(got, render(s.Name, s.Labels, s.Value))
	}
	for _, s := range r.Snapshot() {
		labels := Labels{} // as a reader sees them: sorted by their sanitised names
		for k, v := range s.Labels {
			labels[sanitizeName(k)] = v
		}
		want = append(want, render(sanitizeName(s.Name), labels, s.Value))
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("round trip lost or changed samples:\n got %q\nwant %q", got, want)
	}
}

func TestGeneratedRegistriesRoundTrip(t *testing.T) {
	for c := 0; c < 300; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		r := NewRegistry()
		genRegistry(r, rng.Intn(20), rng.Intn)
		roundTrips(t, r)
	}
}

// A warm pass — layout built, scratch sized, the caller's buffer grown —
// allocates nothing.
func TestWritePrometheusWarmDoesNotAllocate(t *testing.T) {
	r := exposeTestRegistry()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	c := r.Counter("response_total", Labels{"service": "api", "backend": "api-cluster-1", "classification": "success"})
	if n := testing.AllocsPerRun(50, func() {
		c.Inc()
		buf.Reset()
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm WritePrometheus into a reused buffer: %v allocs, want 0", n)
	}
}
