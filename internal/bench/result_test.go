package bench

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestResultRenderRowsAndNotes(t *testing.T) {
	r := &Result{ID: "figX", Title: "test figure"}
	r.AddRow("Round-robin", 105.5, "ms", 93.0)
	r.AddRow("L3", 70.1, "ms", NoPaper)
	r.Note("a caveat about %s", "something")
	out := r.Render()
	for _, want := range []string{"figX", "test figure", "Round-robin", "105.50", "paper: 93.0", "L3", "note: a caveat about something"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "paper:") != 1 {
		t.Fatalf("NaN paper value rendered:\n%s", out)
	}
}

func TestResultRenderSeriesSummary(t *testing.T) {
	r := &Result{ID: "fig1", Title: "series", SeriesStep: time.Second}
	r.AddSeries("b/p99", []float64{1, 2, 3})
	r.AddSeries("a/p99", []float64{5, 5})
	out := r.Render()
	ai := strings.Index(out, "a/p99")
	bi := strings.Index(out, "b/p99")
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("series not rendered sorted:\n%s", out)
	}
	if !strings.Contains(out, "mean=2") {
		t.Fatalf("series stats missing:\n%s", out)
	}
}

func TestResultCSV(t *testing.T) {
	r := &Result{ID: "fig2", SeriesStep: 2 * time.Second}
	r.AddSeries("rps", []float64{10, 20, 30})
	r.AddSeries("short", []float64{1})
	csv := r.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "t_seconds,rps,short" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("rows = %d, want 4", len(lines))
	}
	if lines[1] != "0,10,1" {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if lines[2] != "2,20," {
		t.Fatalf("row 2 = %q (short series should leave a gap)", lines[2])
	}
	if (&Result{}).CSV() != "" {
		t.Fatal("CSV of series-less result should be empty")
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := []float64{3, 1, 2}
	if minOf(s) != 1 || maxOf(s) != 3 || meanOf(s) != 2 {
		t.Fatalf("helpers: %v %v %v", minOf(s), maxOf(s), meanOf(s))
	}
	if minOf(nil) != 0 || maxOf(nil) != 0 || meanOf(nil) != 0 {
		t.Fatal("helpers on empty slices should be 0")
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		AlgoRoundRobin: "Round-robin",
		AlgoL3:         "L3",
		AlgoC3:         "C3",
		AlgoP2C:        "P2C",
		Algorithm(99):  "algorithm(99)",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestNoPaperIsNaN(t *testing.T) {
	if !math.IsNaN(NoPaper) {
		t.Fatal("NoPaper must be NaN")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Reps != 1 || o.WarmUp != 30*time.Second || o.Concurrency != 64 {
		t.Fatalf("defaults: %+v", o)
	}
	if o.Penalty != 600*time.Millisecond || o.ScrapeInterval != 5*time.Second {
		t.Fatalf("defaults: %+v", o)
	}
	if o.Percentile != 0.99 {
		t.Fatalf("defaults: %+v", o)
	}
}
