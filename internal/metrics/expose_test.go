package metrics

import (
	"strings"
	"testing"
)

func TestWritePrometheusBasic(t *testing.T) {
	r := NewRegistry()
	r.Counter("response_total", Labels{"backend": "b1", "classification": "success"}).Add(42)
	r.Gauge("request_inflight", Labels{"backend": "b1"}).Set(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wantLines := []string{
		`request_inflight{backend="b1"} 3`,
		`response_total{backend="b1",classification="success"} 42`,
	}
	for _, w := range wantLines {
		if !strings.Contains(out, w+"\n") {
			t.Fatalf("output missing %q:\n%s", w, out)
		}
	}
}

func TestWritePrometheusHistogramExpansion(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", Labels{"b": "x"}, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		`lat_bucket{b="x",le="0.1"} 1`,
		`lat_bucket{b="x",le="1"} 2`,
		`lat_bucket{b="x",le="+Inf"} 2`,
		`lat_sum{b="x"} 0.55`,
		`lat_count{b="x"} 2`,
	} {
		if !strings.Contains(out, w+"\n") {
			t.Fatalf("missing %q:\n%s", w, out)
		}
	}
}

func TestWritePrometheusSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz", nil).Inc()
	r.Counter("aaa", Labels{"x": "2"}).Inc()
	r.Counter("aaa", Labels{"x": "1"}).Inc()
	var b1, b2 strings.Builder
	_ = r.WritePrometheus(&b1)
	_ = r.WritePrometheus(&b2)
	if b1.String() != b2.String() {
		t.Fatal("exposition not stable across calls")
	}
	lines := strings.Split(strings.TrimSpace(b1.String()), "\n")
	if !strings.HasPrefix(lines[0], `aaa{x="1"}`) || !strings.HasPrefix(lines[2], "zzz") {
		t.Fatalf("not sorted:\n%s", b1.String())
	}
}

func TestWritePrometheusEscapesLabelValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", Labels{"path": `a"b\c`}).Inc()
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `path="a\"b\\c"`) {
		t.Fatalf("label value not quoted: %s", b.String())
	}
}

func TestSanitizeName(t *testing.T) {
	tests := []struct{ in, want string }{
		{"response_total", "response_total"},
		{"foo-bar.baz", "foo_bar_baz"},
		{"9lives", "_lives"},
		{"a9", "a9"},
		{"", "_"},
		{"ns:metric", "ns:metric"},
	}
	for _, tt := range tests {
		if got := sanitizeName(tt.in); got != tt.want {
			t.Fatalf("sanitizeName(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestFormatValueSpecials(t *testing.T) {
	nan := 0.0
	nan /= nan // silence constant-expression analysis; still NaN at runtime
	if string(appendValue(nil, nan)) != "NaN" {
		t.Fatal("NaN formatting")
	}
	if string(appendValue(nil, 1.5)) != "1.5" {
		t.Fatalf("plain formatting: %s", string(appendValue(nil, 1.5)))
	}
}

func TestFprintFamilyHeader(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs", nil).Add(5)
	r.Counter("other", nil).Add(9)
	var b strings.Builder
	if err := Fprint(&b, r, "reqs", "requests served", "counter"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# HELP reqs requests served") ||
		!strings.Contains(out, "# TYPE reqs counter") ||
		!strings.Contains(out, "reqs 5") {
		t.Fatalf("Fprint output:\n%s", out)
	}
	if strings.Contains(out, "other") {
		t.Fatalf("Fprint leaked other families:\n%s", out)
	}
}
