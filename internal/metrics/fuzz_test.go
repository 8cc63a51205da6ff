package metrics

import (
	"bufio"
	"bytes"
	"errors"
	"regexp"
	"testing"
)

var lineNumbered = regexp.MustCompile(`^metrics: line [0-9]+: `)

// FuzzParseExposition: the control plane parses whatever a /metrics endpoint
// returns, so the parser must never panic, must reject with a line number,
// and must agree with the old parser — cold, warm, on a sibling text and on
// a mirror of the same length, as agreeWithOracleParser runs it, every pass's
// samples intact after the later ones (and the process-wide table's first
// samples after all of them); the scan that finds a line's series text
// must find exactly what the grammar consumes from a well-formed line; and
// every registry the fuzzer's bytes build must survive WritePrometheus ->
// ParseExposition.
func FuzzParseExposition(f *testing.F) {
	for _, seed := range []string{
		"",
		"# HELP response_total Total responses.\n# TYPE response_total counter\nresponse_total{backend=\"api-cluster-1\",classification=\"success\"} 1027 1700000000000\n",
		"response_latency_bucket{le=\"0.5\"} 3\nresponse_latency_bucket{le=\"+Inf\"} 4\nresponse_latency_sum 1.5\nresponse_latency_count 4\n",
		"x{a=\"quo\\\"te\",b=\"back\\\\slash\",c=\"new\\nline\",} NaN\r\n",
		"x{ a = \"b\" } +Inf\n\n  \nx -Inf\n",
		"x{a=\"b\\q\"} 1\n", "x{a=\"b", "x 1 2 3\n", "1x 1\n", "x 1 2\n", "x{a=b} 1\n",
		"x 999999999999999\nx 1000000000000000\nx -0\nx 007 1\nx 1\n",
		"x{a=\"b\"} 1\nx{a=\"b\"}\t2\nx{a=\"b\"}\u00a03\nx{a=\"b\"}\u00854\nx{a=\"b\"} 5}\n",
		"x 1\nx_total 2\nx 3\nx{a=\"b\"} 4\nx{a=\"b\"}} 5\n",
		"x 123456789012345\nx 1234567890123456\nx 12345678901234567890\nx 007\nx -0\nx +1\nx 1e3\nx 1 1700000000000\nx 1 2\n",
		"x 1\n# TYPE x counter\nx 2\nx_total 3\n# TYPE x summary\nx{quantile=\"0.5\"} 1\nx_sum 2\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := ParseExposition(bytes.NewReader(data))
		if err != nil && !lineNumbered.MatchString(err.Error()) {
			t.Fatalf("rejection without a line number: %v", err)
		}
		// The old parser's Scanner refused lines of 1 MiB; the new one has no
		// such limit, the one difference in what the two accept.
		if want, oracleErr := oracleParseExposition(bytes.NewReader(data)); !errors.Is(oracleErr, bufio.ErrTooLong) {
			agreeWithOracleParser(t, data)
			if !sameSamples(first, want) {
				t.Fatalf("parsing %q: the first samples changed while later texts were read:\n got %v\nwant %v", data, first, want)
			}
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			line := string(bytes.TrimSuffix(line, []byte("\r")))
			if got, err := new(seriesCache).parse(line); err != nil || len(got) != 1 {
				continue // not a sample line
			}
			if _, _, rest, _ := scanSeries(line); seriesText(line) != line[:len(line)-len(rest)] {
				t.Fatalf("line %q: series text found as %q, the grammar consumed %q", line, seriesText(line), line[:len(line)-len(rest)])
			}
		}

		r, next := NewRegistry(), 0
		genRegistry(r, len(data)/4, func(n int) int {
			if next == len(data) {
				return 0
			}
			next++
			return int(data[next-1]) % n
		})
		roundTrips(t, r)
	})
}
