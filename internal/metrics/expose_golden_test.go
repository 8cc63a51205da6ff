package metrics

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// exposeTestRegistry builds a registry exercising every exposition corner:
// label values that need escaping, multiple label sets on one family, and a
// histogram whose bounds would sort wrongly as strings ("10" < "5").
func exposeTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("requests_total", Labels{"backend": "a-1", "path": `multi
line`}).Add(3)
	r.Counter("requests_total", Labels{"backend": "a-1", "path": `quote"and\slash`}).Add(4)
	r.Counter("requests_total", Labels{"backend": "é-utf8"}).Add(5)
	r.Gauge("inflight", nil).Set(2)
	h := r.Histogram("latency_seconds", Labels{"backend": "a-1"}, []float64{0.5, 5, 10})
	h.Observe(0.25)
	h.Observe(7)
	return r
}

// TestWritePrometheusGolden pins the exact rendered exposition: label
// escaping (only \\ \" \n, UTF-8 raw), deterministic label ordering,
// histogram le in numeric order with +Inf last, and _sum/_count pairing.
func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := exposeTestRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `inflight 2
latency_seconds_bucket{backend="a-1",le="0.5"} 1
latency_seconds_bucket{backend="a-1",le="5"} 1
latency_seconds_bucket{backend="a-1",le="10"} 2
latency_seconds_bucket{backend="a-1",le="+Inf"} 2
latency_seconds_count{backend="a-1"} 2
latency_seconds_sum{backend="a-1"} 7.25
requests_total{backend="a-1",path="multi\nline"} 3
requests_total{backend="a-1",path="quote\"and\\slash"} 4
requests_total{backend="é-utf8"} 5
`
	if got := b.String(); got != want {
		t.Fatalf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// Exposition-format grammar (text format 0.0.4), one sample line:
// name, optional label block with escaped quoted values, float value,
// optional ms timestamp.
var sampleLineRE = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*` + // metric name
		`(\{[a-zA-Z_:][a-zA-Z0-9_:]*="(\\\\|\\"|\\n|[^"\\])*"` + // first label
		`(,[a-zA-Z_:][a-zA-Z0-9_:]*="(\\\\|\\"|\\n|[^"\\])*")*,?\})?` + // rest
		` (NaN|[+-]Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)` + // value
		`( -?[0-9]+)?$`) // optional timestamp

// TestWritePrometheusMatchesGrammar validates every emitted line against
// the exposition grammar, so a real Prometheus can scrape l3serve.
func TestWritePrometheusMatchesGrammar(t *testing.T) {
	var b strings.Builder
	if err := exposeTestRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// The escaped newline must never become a literal line break; every
	// physical line must be one grammatical sample.
	for i, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if !sampleLineRE.MatchString(line) {
			t.Errorf("line %d violates exposition grammar: %q", i+1, line)
		}
	}
}

// TestExpositionRoundTrip pins that ParseExposition inverts WritePrometheus
// — the contract the serve control plane relies on when it scrapes its own
// data plane over HTTP.
func TestExpositionRoundTrip(t *testing.T) {
	reg := exposeTestRegistry()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := reg.Snapshot()
	if len(parsed) != len(want) {
		t.Fatalf("parsed %d samples, registry holds %d", len(parsed), len(want))
	}
	byKey := make(map[string]Sample, len(parsed))
	for _, s := range parsed {
		byKey[s.Name+"|"+s.Labels.Key()] = s
	}
	for _, w := range want {
		g, ok := byKey[w.Name+"|"+w.Labels.Key()]
		if !ok {
			t.Fatalf("series %s{%s} lost in round trip", w.Name, w.Labels.Key())
		}
		if g.Value != w.Value {
			t.Errorf("%s{%s}: value %v, want %v", w.Name, w.Labels.Key(), g.Value, w.Value)
		}
		if g.Kind != w.Kind {
			t.Errorf("%s{%s}: kind %v, want %v", w.Name, w.Labels.Key(), g.Kind, w.Kind)
		}
	}
}

func TestParseExpositionTypeComments(t *testing.T) {
	in := `# HELP speed how fast
# TYPE speed counter
speed 3
# TYPE depth gauge
depth 4
# TYPE lat histogram
lat_bucket{le="+Inf"} 1
lat_sum 0.5
lat_count 1
# TYPE rpc summary
rpc{quantile="0.99"} 0.2
rpc_sum 3.5
rpc_count 7
free_form 9
hits_total 2
`
	// Fields split as strings.Fields splits them: U+00A0 and U+0085 are
	// spaces, and a fifth field makes the comment freeform.
	in += "#\u00a0TYPE\u0085up_total gauge\nup_total 1\n# TYPE down_total gauge extra\ndown_total 1\n"
	samples, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]Kind)
	for _, s := range samples {
		kinds[s.Name] = s.Kind
	}
	for name, want := range map[string]Kind{
		"speed":      KindCounter, // explicit TYPE
		"depth":      KindGauge,
		"lat_bucket": KindCounter, // family TYPE histogram
		"lat_sum":    KindCounter,
		"lat_count":  KindCounter,
		"rpc":        KindGauge, // a summary's quantiles go up and down
		"rpc_sum":    KindCounter,
		"rpc_count":  KindCounter,
		"free_form":  KindGauge,   // untyped, no suffix
		"hits_total": KindCounter, // _total convention
		"up_total":   KindGauge,
		"down_total": KindCounter,
	} {
		if kinds[name] != want {
			t.Errorf("%s parsed as kind %v, want %v", name, kinds[name], want)
		}
	}
}

func TestParseExpositionValuesAndTimestamps(t *testing.T) {
	in := `a NaN
b +Inf 1700000000000
c -Inf
d 1.5e-3
`
	samples, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("parsed %d samples, want 4", len(samples))
	}
	if !math.IsNaN(samples[0].Value) {
		t.Errorf("a = %v, want NaN", samples[0].Value)
	}
	if !math.IsInf(samples[1].Value, 1) || !math.IsInf(samples[2].Value, -1) {
		t.Errorf("b, c = %v, %v; want +Inf, -Inf", samples[1].Value, samples[2].Value)
	}
	if samples[3].Value != 0.0015 {
		t.Errorf("d = %v, want 0.0015", samples[3].Value)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		`9metric 1`,                              // name starts with digit
		`m{l="x} 1`,                              // unterminated quote
		`m{l="x"`,                                // unterminated label block
		`m{l="a\t"} 1`,                           // unknown escape
		`m{l=unquoted} 1`,                        // bare label value
		`m`,                                      // missing value
		`m 1 2 3`,                                // trailing garbage
		`m notanumber`,                           // bad value
		`m 1 yesterday`,                          // bad timestamp
		`m{l="v" k="w"} 1`,                       // missing comma
		`m{a="1",a="2"} 1`,                       // repeated label name
		strings.Repeat("m 1\n", 1) + `{x="y"} 1`, // empty name
	} {
		if _, err := ParseExposition(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("ParseExposition accepted malformed input %q", bad)
		}
	}
}

func TestParseExpositionTrailingComma(t *testing.T) {
	samples, err := ParseExposition(strings.NewReader(`m{a="1",b="2",} 7` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].Labels["a"] != "1" || samples[0].Labels["b"] != "2" || samples[0].Value != 7 {
		t.Fatalf("trailing-comma label block parsed as %+v", samples)
	}
}

// TestLeBoundOrdering pins the numeric ordering helper directly against the
// string orderings it exists to avoid.
func TestLeBoundOrdering(t *testing.T) {
	order := []string{"0.005", "0.5", "5", "10", "+Inf"}
	for i := 1; i < len(order); i++ {
		if !(leBound(order[i-1]) < leBound(order[i])) {
			t.Errorf("leBound(%q) !< leBound(%q)", order[i-1], order[i])
		}
	}
	if _, err := strconv.ParseFloat("+Inf", 64); err != nil {
		t.Fatal("strconv no longer parses +Inf; leBound needs a fallback")
	}
}
