// Command l3load is the repository's open-loop wall-clock load generator —
// the same wrk2-style internal/loadgen that drives every simulated figure,
// scheduled on a real clock against a real HTTP target. Arrivals follow the
// offered rate alone (never gated on responses), and the CatchUp cursor
// fires late arrivals back-to-back so the offered RPS stays honest under
// scheduling jitter — the constant-throughput discipline that avoids
// coordinated omission.
//
// When the target stamps X-L3-Backend on its responses (l3serve does), the
// tool additionally buckets latency per serving backend, so weight
// convergence and per-backend tail behaviour are observable from outside the
// proxy — the client-side view of the same story /metrics tells.
//
// Usage:
//
//	l3load -url http://127.0.0.1:8080/ -rate 500 -duration 30s
//	l3load -url http://127.0.0.1:8080/ -rate 500 -duration 30s -warmup 5s
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"l3/internal/clock"
	"l3/internal/histogram"
	"l3/internal/loadgen"
	"l3/internal/serve"
)

// stdout is swappable so tests can silence the tool's output.
var stdout io.Writer = os.Stdout

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "l3load:", err)
		os.Exit(1)
	}
}

// backendStats is one backend's client-observed latency histogram, bucketed
// on the same Linkerd bounds the server-side metrics use so the two views
// line up quantile for quantile.
type backendStats struct {
	count    uint64
	failures uint64
	counts   []float64
}

func (s *backendStats) observe(latency time.Duration, success bool) {
	s.count++
	if !success {
		s.failures++
	}
	s.counts[histogram.BucketFor(histogram.LinkerdLatencyBounds, latency.Seconds())]++
}

func run(args []string) error {
	fs := flag.NewFlagSet("l3load", flag.ContinueOnError)
	var (
		target   = fs.String("url", "", "target URL (required)")
		rate     = fs.Float64("rate", 100, "offered load in requests/second")
		duration = fs.Duration("duration", 10*time.Second, "measured window")
		warmup   = fs.Duration("warmup", 0, "discarded warm-up before the measured window")
		timeout  = fs.Duration("timeout", 10*time.Second, "per-request timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *target == "" {
		return fmt.Errorf("-url is required")
	}
	if *rate <= 0 {
		return fmt.Errorf("-rate must be positive")
	}

	client := &http.Client{
		Timeout:   *timeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 256},
	}

	// perBackend is written only inside wall.Do callbacks — the same
	// single-threaded discipline as the Recorder.
	perBackend := map[string]*backendStats{}
	observe := func(backend string, latency time.Duration, success bool) {
		s := perBackend[backend]
		if s == nil {
			s = &backendStats{counts: make([]float64, len(histogram.LinkerdLatencyBounds)+1)}
			perBackend[backend] = s
		}
		s.observe(latency, success)
	}

	wall := clock.NewWall()
	gen := loadgen.New(wall, loadgen.Config{
		Rate:    loadgen.ConstantRate(*rate),
		WarmUp:  *warmup,
		CatchUp: true,
	}, func(done func(latency time.Duration, success bool)) error {
		go func() {
			start := time.Now()
			ok := false
			backend := ""
			if resp, err := client.Get(*target); err == nil {
				ok = resp.StatusCode < http.StatusInternalServerError
				backend = resp.Header.Get(serve.HeaderBackend)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			latency := time.Since(start)
			// The Recorder is single-threaded; completions re-enter
			// through the wall clock to serialize with arrivals.
			wall.Do(func() {
				done(latency, ok)
				observe(backend, latency, ok)
			})
		}()
		return nil
	})

	fmt.Fprintf(stdout, "l3load: %s at %.1f rps for %v (warm-up %v)\n", *target, *rate, *duration, *warmup)
	wall.Do(gen.Start)
	time.Sleep(*warmup + *duration)
	wall.Do(gen.Stop)
	time.Sleep(500 * time.Millisecond) // let stragglers record

	var report string
	var lines []string
	wall.Do(func() {
		rec := gen.Recorder()
		report = fmt.Sprintf(
			"l3load: issued=%d recorded=%d rps=%.1f ok=%.4f p50=%v p90=%v p99=%v p999=%v max-ish mean=%v",
			gen.Issued(), rec.Count(), float64(rec.Count())/duration.Seconds(),
			rec.SuccessRate(), rec.Quantile(0.50), rec.Quantile(0.90),
			rec.Quantile(0.99), rec.Quantile(0.999), rec.Mean())
		var total uint64
		for _, s := range perBackend {
			total += s.count
		}
		names := make([]string, 0, len(perBackend))
		for name := range perBackend {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := perBackend[name]
			label := name
			if label == "" {
				// No X-L3-Backend header: a non-l3serve target, or requests
				// that failed before any backend answered.
				label = "(unattributed)"
			}
			lines = append(lines, fmt.Sprintf(
				"l3load: backend %-16s n=%d share=%.3f ok=%.4f p50=%v p90=%v p99=%v",
				label, s.count, float64(s.count)/float64(total),
				1-float64(s.failures)/float64(s.count),
				histogram.DurationQuantile(0.50, histogram.LinkerdLatencyBounds, s.counts),
				histogram.DurationQuantile(0.90, histogram.LinkerdLatencyBounds, s.counts),
				histogram.DurationQuantile(0.99, histogram.LinkerdLatencyBounds, s.counts)))
		}
	})
	wall.Stop()
	fmt.Fprintln(stdout, report)
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	return nil
}
