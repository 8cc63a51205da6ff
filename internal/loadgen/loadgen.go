// Package loadgen is a constant-throughput, open-loop HTTP-benchmark
// client in the spirit of wrk2 (the paper's load generator): arrivals are
// scheduled by the offered rate alone, never gated on responses, which
// avoids coordinated omission and keeps the offered RPS faithful to the
// scenario even when backends slow down. Latency of every request is
// recorded into mergeable per-interval histograms, so both the end-of-run
// percentiles (Figures 8-12) and the percentile-over-time series (Figures 1
// and 6) fall out of one recorder.
package loadgen

import (
	"fmt"
	"time"

	"l3/internal/clock"
	"l3/internal/histogram"
	"l3/internal/sim"
)

// IssueFunc sends one request; done must be called exactly once with the
// observed latency and outcome.
type IssueFunc func(done func(latency time.Duration, success bool)) error

// RateFunc returns the offered load (requests/second) at virtual time t.
type RateFunc func(t time.Duration) float64

// ConstantRate offers a fixed RPS.
func ConstantRate(rps float64) RateFunc {
	return func(time.Duration) float64 { return rps }
}

// Config parameterises a Generator.
type Config struct {
	// Rate is the offered load over time. Required.
	Rate RateFunc
	// WarmUp discards samples recorded before this virtual time, matching
	// the paper's warm-up period that populates caches and EWMAs before
	// measurement starts.
	WarmUp time.Duration
	// BucketWidth is the recorder's time-series granularity (default 1 s,
	// the granularity the paper's coordinator retrieves).
	BucketWidth time.Duration
	// CatchUp schedules arrivals from an absolute cursor instead of
	// relative gaps: if the clock delivers a callback late (wall-clock
	// scheduling jitter, a long callback ahead in the queue), the next
	// arrivals fire back-to-back until the cursor catches the ideal
	// schedule — wrk2's constant-throughput correction, and the reason an
	// open-loop wall-clock run keeps its offered RPS honest. Virtual-time
	// runs never fire late, so the default (false) keeps the simulated
	// arrival sequence — and every golden derived from it — unchanged.
	CatchUp bool
}

// Generator schedules open-loop arrivals on a Clock — the simulator's
// virtual clock in benchmarks, a wall clock under cmd/l3load. On the virtual
// clock a steady-state arrival allocates nothing: callbacks are bound once,
// the timer is rebound in place, per-request state comes from a free list.
type Generator struct {
	clk      clock.Clock
	rebinder rebinder // clk's allocation-free After; nil on a clock without one
	issue    IssueFunc
	cfg      Config
	recorder *Recorder
	timer    clock.Timer   // the pending arrival or rate poll
	simTimer sim.Timer     // what timer points at under a rebinder
	tick     func()        // fire: one arrival, then scheduleNext
	poll     func()        // scheduleNext alone, while the rate is zero
	next     time.Duration // absolute cursor for CatchUp scheduling
	stopped  bool
	closed   bool
	free     []*arrival

	issued, completed, errors uint64
}

// rebinder is After through a caller-owned sim.Timer, the optional clock
// capability clock.Sim's adapter has; other clocks get After's handle per call.
type rebinder interface {
	AfterTimer(t *sim.Timer, d time.Duration, fn func())
}

// arrival is one request's pooled state; done is bound when it is first made.
type arrival struct {
	g        *Generator
	start    time.Duration
	inFlight bool
	done     func(latency time.Duration, success bool)
}

// New returns a generator on the simulation engine's virtual clock; call
// Start to begin offering load.
func New(engine *sim.Engine, cfg Config, issue IssueFunc) *Generator {
	return NewClock(clock.Sim(engine), cfg, issue)
}

// NewClock returns a generator driven by an arbitrary clock. Completions
// are recorded on whatever goroutine calls done; on a wall clock the caller
// must serialize those with each other and with arrivals (clock.Wall.Do) —
// the generator and its Recorder are single-threaded, like every sim-era
// component.
func NewClock(clk clock.Clock, cfg Config, issue IssueFunc) *Generator {
	if clk == nil {
		panic("loadgen: nil clock")
	}
	if issue == nil {
		panic("loadgen: nil issue function")
	}
	if cfg.Rate == nil {
		panic("loadgen: nil rate function")
	}
	if cfg.BucketWidth <= 0 {
		cfg.BucketWidth = time.Second
	}
	g := &Generator{
		clk:      clk,
		issue:    issue,
		cfg:      cfg,
		recorder: NewRecorder(cfg.BucketWidth),
	}
	g.tick, g.poll = g.fire, g.scheduleNext
	if rb, ok := clk.(rebinder); ok {
		g.rebinder, g.timer = rb, &g.simTimer
	}
	return g
}

// Recorder returns the generator's latency recorder.
func (g *Generator) Recorder() *Recorder { return g.recorder }

// Issued returns the number of requests sent so far.
func (g *Generator) Issued() uint64 { return g.issued }

// Completed returns the number of requests whose done has run. After a
// drain, Issued() == Completed() + IssueErrors() or a request was lost.
func (g *Generator) Completed() uint64 { return g.completed }

// IssueErrors returns the number of requests the IssueFunc rejected
// synchronously (misconfiguration, unknown service).
func (g *Generator) IssueErrors() uint64 { return g.errors }

// Start schedules the first arrival. The generator keeps offering load
// until Stop.
func (g *Generator) Start() {
	g.next = g.clk.Now()
	g.scheduleNext()
}

// Stop halts the arrival process; in-flight requests still complete and
// record.
func (g *Generator) Stop() {
	g.stopped = true
	if g.timer != nil {
		g.timer.Cancel()
	}
}

// Close ends the measurement: requests that complete from now on are counted
// in Completed but no longer recorded.
func (g *Generator) Close() { g.closed = true }

// after schedules fn, d from now, as the generator's one pending callback.
func (g *Generator) after(d time.Duration, fn func()) {
	if g.rebinder != nil {
		g.rebinder.AfterTimer(&g.simTimer, d, fn)
		return
	}
	g.timer = g.clk.After(d, fn)
}

func (g *Generator) scheduleNext() {
	if g.stopped {
		return
	}
	now := g.clk.Now()
	rate := g.cfg.Rate(now)
	if rate <= 0 {
		// No load right now; poll again shortly for the rate to return.
		g.next = now + 100*time.Millisecond
		g.after(100*time.Millisecond, g.poll)
		return
	}
	gap := time.Duration(float64(time.Second) / rate)
	if gap <= 0 {
		gap = time.Nanosecond
	}
	delay := gap
	if g.cfg.CatchUp {
		// Advance the ideal cursor by one gap and sleep only the remaining
		// distance to it; a late wake-up shrinks (or zeroes) the next sleep
		// instead of shifting the whole schedule.
		g.next += gap
		delay = g.next - now
		if delay < 0 {
			delay = 0
		}
	}
	g.after(delay, g.tick)
}

func (g *Generator) fire() {
	var a *arrival
	if n := len(g.free); n > 0 {
		a = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		a = &arrival{g: g}
		a.done = a.complete
	}
	a.start, a.inFlight = g.clk.Now(), true
	g.issued++
	if err := g.issue(a.done); err != nil {
		g.errors++
		a.release()
	}
	g.scheduleNext()
}

// release returns the record to the free list. Released twice it would serve
// two requests at once, so a second done panics, naming the request.
func (a *arrival) release() {
	if !a.inFlight {
		panic(fmt.Sprintf("loadgen: the request issued at %v completed twice", a.start))
	}
	a.inFlight = false
	a.g.free = append(a.g.free, a)
}

func (a *arrival) complete(latency time.Duration, success bool) {
	g, start := a.g, a.start
	a.release()
	g.completed++
	if start >= g.cfg.WarmUp && !g.closed {
		g.recorder.Record(start, latency, success)
	}
}

// Recorder accumulates request outcomes: per time bucket, one histogram of
// successes and one of failures, so recording an outcome writes exactly one
// histogram. The aggregate views (overall, successes only, windows) merge
// them on read; histogram.Merge is exact, so a merged answer is the one a
// histogram recording every outcome directly would give.
//
// A time bucket holds its two histograms by value (176 B), in chunks
// allocated as the series reaches them and never copied. Each kind of
// outcome in a bucket allocates a histogram window of 576 B, which one
// second in five of the Figure 10 grid regrows to 1 152 B. A ten-minute
// recorder of one generator holds 0.47–0.64 MB across the five trace
// scenarios and three algorithms; with 64-bit windows in a slice grown by
// doubling it held 1.49–2.25 MB.
type Recorder struct {
	bucketWidth time.Duration
	chunks      [][]outcomes
	n           int // buckets in use
	// rest holds what Merge took from recorders of another bucket width:
	// outcomes with no time axis in common, counted in the aggregates only.
	rest outcomes
	// sums caches the aggregates until the next write drops them.
	sums *totals
}

// chunkLen is the number of time buckets one chunk holds: 128 × 176 B =
// 22 528 B, in the 24 576 B size class, so a ten-minute run makes five.
const chunkLen = 128

// outcomes holds one time bucket's latencies, [0] failures and [1]
// successes; a kind with no entry is the zero histogram.
type outcomes [2]histogram.Histogram

// merge folds o into b.
func (b *outcomes) merge(o *outcomes) {
	b[0].Merge(&o[0])
	b[1].Merge(&o[1])
}

// totals are a recorder's aggregates: every outcome, and the successes alone.
type totals struct{ all, ok histogram.Histogram }

func (t *totals) add(b *outcomes) {
	t.all.Merge(&b[0])
	t.all.Merge(&b[1])
	t.ok.Merge(&b[1])
}

// NewRecorder returns a recorder with the given time-bucket width.
func NewRecorder(bucketWidth time.Duration) *Recorder {
	if bucketWidth <= 0 {
		bucketWidth = time.Second
	}
	return &Recorder{bucketWidth: bucketWidth}
}

// Record adds one outcome observed for a request that started at virtual
// time at.
func (r *Recorder) Record(at, latency time.Duration, success bool) {
	b, k := r.bucket(int(at/r.bucketWidth)), 0
	if success {
		k = 1
	}
	b[k].Record(latency)
	r.sums = nil
}

// bucket returns time bucket i, growing the series to hold it.
func (r *Recorder) bucket(i int) *outcomes {
	for len(r.chunks) <= i/chunkLen {
		r.chunks = append(r.chunks, make([]outcomes, chunkLen))
	}
	r.n = max(r.n, i+1)
	return r.at(i)
}

// at returns time bucket i, which is in use.
func (r *Recorder) at(i int) *outcomes { return &r.chunks[i/chunkLen][i%chunkLen] }

// totals returns the aggregates, merging them if a write dropped them.
func (r *Recorder) totals() *totals {
	if r.sums == nil {
		r.sums = new(totals)
		for i := range r.n {
			r.sums.add(r.at(i))
		}
		r.sums.add(&r.rest)
	}
	return r.sums
}

// Count returns the number of recorded requests.
func (r *Recorder) Count() uint64 { return r.count(0) + r.count(1) }

// SuccessRate returns successes/total, or 1 when nothing was recorded.
func (r *Recorder) SuccessRate() float64 {
	if n := r.Count(); n > 0 {
		return float64(r.count(1)) / float64(n)
	}
	return 1
}

// count sums one kind of outcome, [0] or [1], without the aggregates.
func (r *Recorder) count(k int) uint64 {
	n := r.rest[k].Count()
	for i := range r.n {
		n += r.at(i)[k].Count()
	}
	return n
}

// Quantile returns the latency quantile over all recorded requests.
func (r *Recorder) Quantile(q float64) time.Duration { return r.totals().all.Quantile(q) }

// SuccessQuantile returns the latency quantile over successful requests.
func (r *Recorder) SuccessQuantile(q float64) time.Duration { return r.totals().ok.Quantile(q) }

// Mean returns the mean latency over all recorded requests.
func (r *Recorder) Mean() time.Duration { return r.totals().all.Mean() }

// Buckets returns the number of time buckets with data capacity.
func (r *Recorder) Buckets() int { return r.n }

// BucketWidth returns the configured bucket granularity.
func (r *Recorder) BucketWidth() time.Duration { return r.bucketWidth }

// WindowQuantile returns the latency quantile over requests that started
// in [from, to) — e.g. the P99 of just a surge window — with both ends
// rounded down to a bucket boundary: a from inside a bucket takes in the
// bucket's earlier requests, and a to inside one leaves out all of its.
func (r *Recorder) WindowQuantile(q float64, from, to time.Duration) time.Duration {
	var merged histogram.Histogram
	hi := min(int(to/r.bucketWidth), r.n)
	for i := max(int(from/r.bucketWidth), 0); i < hi; i++ {
		merged.Merge(&r.at(i)[0])
		merged.Merge(&r.at(i)[1])
	}
	return merged.Quantile(q)
}

// QuantileSeries returns the per-bucket latency quantile in seconds
// (0 for empty buckets) — the series behind the paper's
// percentile-over-time plots.
func (r *Recorder) QuantileSeries(q float64) []float64 {
	out := make([]float64, r.n)
	var both histogram.Histogram
	for i := range out {
		both.Reset()
		both.Merge(&r.at(i)[0])
		both.Merge(&r.at(i)[1])
		out[i] = both.Quantile(q).Seconds()
	}
	return out
}

// RPSSeries returns the per-bucket request rate.
func (r *Recorder) RPSSeries() []float64 {
	out := make([]float64, r.n)
	w := r.bucketWidth.Seconds()
	for i := range out {
		b := r.at(i)
		out[i] = float64(b[0].Count()+b[1].Count()) / w
	}
	return out
}

// SuccessRateSeries returns the per-bucket success rate (1 for empty
// buckets).
func (r *Recorder) SuccessRateSeries() []float64 {
	out := make([]float64, r.n)
	for i := range out {
		b := r.at(i)
		out[i] = 1
		if all := b[0].Count() + b[1].Count(); all > 0 {
			out[i] = float64(b[1].Count()) / float64(all)
		}
	}
	return out
}

// Merge folds another recorder's overall statistics into this one
// (per-bucket series are merged when bucket widths match; mismatched
// widths merge only the aggregate histograms).
func (r *Recorder) Merge(o *Recorder) {
	if o == nil {
		return
	}
	r.sums = nil
	r.rest.merge(&o.rest)
	if o.bucketWidth != r.bucketWidth {
		for i := range o.n {
			r.rest.merge(o.at(i))
		}
		return
	}
	for i := range o.n {
		r.bucket(i).merge(o.at(i))
	}
}

// String summarises the recorder.
func (r *Recorder) String() string {
	return fmt.Sprintf("recorder{n=%d p50=%v p99=%v success=%.2f%%}",
		r.Count(), r.Quantile(0.5), r.Quantile(0.99), r.SuccessRate()*100)
}
