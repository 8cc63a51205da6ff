package trace

import (
	"cmp"
	"slices"
	"time"

	"l3/internal/sim"
)

// walkPage is the number of samples a WalkSeries keeps at first: a little
// over two minutes at 1 s steps, in 1 KiB. Past it the kept samples double,
// up to the whole series.
const walkPage = 128

// WalkSeries is walk's series drawn on demand. Walk draws the start and the
// coarse path up front, then moves the caller's stream past every sample's
// jitter draw; a sample is drawn from a copy of that stream on the first
// read that reaches it, and kept. At reads as the eager Series over walk's
// samples does, bit for bit, so a run that reads the first minutes of a
// long series pays for those minutes only. A read may draw, so a
// WalkSeries is read from one goroutine, as a simulation's models are.
type WalkSeries struct {
	step   time.Duration
	n      int
	lo, hi float64
	coarse []float64
	jitter sim.Rand  // the stream at the jitter draw of sample len(drawn)
	drawn  []float64 // the samples read so far, and those before them
}

// Walk returns the generator's band-confined, multi-ten-second-timescale
// random walk of n samples step apart, for models needing trace-like
// variability outside the named scenarios (e.g. per-node performance
// factors of the DSB testbed). It leaves rng where walk does.
func Walk(rng *sim.Rand, step time.Duration, n int, lo, hi, vol float64) *WalkSeries {
	w := &WalkSeries{step: step, n: n, lo: lo}
	w.coarse, w.hi = walkCoarse(rng, n, lo, hi, vol)
	w.jitter.Set(rng)
	for range n {
		rng.Normal(0, walkJitter)
	}
	return w
}

// At returns the interpolated value at time t, as Series.At does.
func (w *WalkSeries) At(t time.Duration) float64 {
	if w.n == 0 {
		return 0
	}
	i, frac, whole := span(t, w.step, w.n)
	if through := min(i+1, w.n-1); through >= len(w.drawn) {
		w.draw(through)
	}
	if whole {
		return w.drawn[i]
	}
	return w.drawn[i]*(1-frac) + w.drawn[i+1]*frac
}

// draw draws every sample through i that is not drawn yet.
func (w *WalkSeries) draw(i int) {
	if i >= cap(w.drawn) {
		grown := make([]float64, len(w.drawn), min(w.n, max(walkPage, 2*cap(w.drawn), i+1)))
		copy(grown, w.drawn)
		w.drawn = grown
	}
	for k := len(w.drawn); k <= i; k++ {
		w.drawn = append(w.drawn, walkSample(w.coarse, k, w.jitter.Normal(0, walkJitter), w.lo, w.hi))
	}
}

// EpisodeSeries is episodes' multiplier series kept as its episodes, in
// order of start: a sample is the largest level of the episodes covering
// it, or 1, computed on each read. At reads as the eager Series over
// episodes' samples does, bit for bit.
type EpisodeSeries struct {
	step     time.Duration
	n        int
	episodes []episode
}

// EpisodeMultipliers returns the sustained-degradation multiplier process
// of n samples step apart (1 outside episodes). It leaves rng where
// episodes does.
func EpisodeMultipliers(rng *sim.Rand, step time.Duration, n, count, minLen, maxLen int, magLo, magHi float64) EpisodeSeries {
	s := EpisodeSeries{step: step, n: n}
	if n == 0 || count <= 0 {
		return s
	}
	s.episodes = make([]episode, count)
	for i := range s.episodes {
		s.episodes[i] = drawEpisode(rng, n, minLen, maxLen, magLo, magHi)
	}
	slices.SortFunc(s.episodes, func(a, b episode) int { return cmp.Compare(a.start, b.start) })
	return s
}

// At returns the interpolated value at time t, as Series.At does.
func (s EpisodeSeries) At(t time.Duration) float64 {
	if s.n == 0 {
		return 0
	}
	i, frac, whole := span(t, s.step, s.n)
	v, next := s.samples(i)
	if whole {
		return v
	}
	return v*(1-frac) + next*frac
}

// samples returns samples i and i+1. The scan stops at the first episode
// that starts after both, so a read early in the series looks at few.
func (s EpisodeSeries) samples(i int) (v, next float64) {
	v, next = 1, 1
	for _, e := range s.episodes {
		if e.start > i+1 {
			break
		}
		if k := i - e.start; k >= 0 && k < e.length {
			if m := e.level(k); m > v {
				v = m
			}
		}
		if k := i + 1 - e.start; k < e.length {
			if m := e.level(k); m > next {
				next = m
			}
		}
	}
	return v, next
}

// span places t on n > 0 samples step apart as Series.At does: at or
// before the first sample it reads sample 0 whole, at or past the last it
// reads sample n-1 whole, and in between it reads samples i and i+1
// weighted 1-frac and frac. Series.At keeps its own copy: calling span
// takes it past the inliner's budget, and it is on every trace request's
// path.
func span(t, step time.Duration, n int) (i int, frac float64, whole bool) {
	if t <= 0 {
		return 0, 0, true
	}
	pos := float64(t) / float64(step)
	i = int(pos)
	if i >= n-1 {
		return n - 1, 0, true
	}
	return i, pos - float64(i), false
}
