package trace

import (
	"math"
	"runtime"
	"testing"
	"time"

	"l3/internal/sim"
)

// drawnCase is one parameter set of the walk and episode processes; the
// first is the DSB testbed's per-backend profile over its 40-minute horizon.
type drawnCase struct {
	name                  string
	n                     int
	lo, hi, vol           float64
	count, minLen, maxLen int
	magLo, magHi          float64
}

var drawnCases = []drawnCase{
	{"dsb", 2401, 0.9, 1.2, 0.1, 12, 20, 45, 2.0, 3.5},
	{"inverted band", 61, 1.2, 0.9, 0.3, 3, 5, 5, 1.5, 2},
	{"episode longer than series", 21, 0, 1, 0.2, 2, 30, 40, 2, 3},
	{"one sample", 1, 0, 1, 0.1, 1, 1, 2, 2, 3},
	{"empty", 0, 0, 1, 0.1, 1, 1, 2, 2, 3},
}

// sameNext reports whether a and b draw the same next value, without moving
// either.
func sameNext(a, b *sim.Rand) bool {
	var x, y sim.Rand
	x.Set(a)
	y.Set(b)
	return x.Uint64() == y.Uint64()
}

// TestDrawnSeriesMatchEager checks the on-demand walk and episodes against
// the eager generators they replace, bit for bit: every second and
// half-second of the horizon, before it and past it, read in order on one
// copy and out of order on another, and the caller's stream left where the
// eager build leaves it.
func TestDrawnSeriesMatchEager(t *testing.T) {
	for _, c := range drawnCases {
		for _, seed := range []uint64{1, 7, 42} {
			eagerRng, drawnRng, shuffledRng := sim.NewRand(seed), sim.NewRand(seed), sim.NewRand(seed)
			eagerWalk := Series{Step: time.Second, Values: walk(eagerRng, c.n, c.lo, c.hi, c.vol)}
			drawnWalk := Walk(drawnRng, time.Second, c.n, c.lo, c.hi, c.vol)
			shuffledWalk := Walk(shuffledRng, time.Second, c.n, c.lo, c.hi, c.vol)
			if !sameNext(eagerRng, drawnRng) {
				t.Fatalf("%s seed %d: Walk leaves the caller's stream elsewhere than walk", c.name, seed)
			}
			eagerEp := Series{Step: time.Second, Values: episodes(eagerRng, c.n, c.count, c.minLen, c.maxLen, c.magLo, c.magHi)}
			drawnEp := EpisodeMultipliers(drawnRng, time.Second, c.n, c.count, c.minLen, c.maxLen, c.magLo, c.magHi)
			EpisodeMultipliers(shuffledRng, time.Second, c.n, c.count, c.minLen, c.maxLen, c.magLo, c.magHi)
			if !sameNext(eagerRng, drawnRng) {
				t.Fatalf("%s seed %d: EpisodeMultipliers leaves the caller's stream elsewhere than episodes", c.name, seed)
			}

			var at []time.Duration
			for half := 0; half <= 2*2400; half++ {
				at = append(at, time.Duration(half)*time.Second/2)
			}
			at = append(at, -time.Second, 2401*time.Second, 2500*time.Second, time.Hour)
			check := func(order string, w *WalkSeries, at []time.Duration) {
				t.Helper()
				for _, ts := range at {
					if got, want := w.At(ts), eagerWalk.At(ts); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s seed %d, %s: walk at %v reads %v, eager %v", c.name, seed, order, ts, got, want)
					}
					if got, want := drawnEp.At(ts), eagerEp.At(ts); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s seed %d, %s: episodes at %v read %v, eager %v", c.name, seed, order, ts, got, want)
					}
				}
			}
			check("in order", drawnWalk, at)
			perm := sim.NewRand(seed + 1)
			shuffled := append([]time.Duration(nil), at...)
			for i := len(shuffled) - 1; i > 0; i-- {
				j := perm.IntN(i + 1)
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			}
			check("shuffled", shuffledWalk, shuffled)
		}
	}
}

// TestDrawnProfileCost pins what the DSB testbed pays for one backend's
// profile: the build holds the coarse path, the jitter stream and the
// episodes, not the horizon's samples (the eager pair allocated 42 KB in
// three slices), and a run's first 80 s draw one page of the walk's samples
// in one allocation.
func TestDrawnProfileCost(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := drawnCases[0]
	const builds = 100
	walks := make([]*WalkSeries, builds)
	eps := make([]EpisodeSeries, builds)
	rng := sim.NewRand(1)
	var before, built, read runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range walks {
		walks[i] = Walk(rng, time.Second, c.n, c.lo, c.hi, c.vol)
		eps[i] = EpisodeMultipliers(rng, time.Second, c.n, c.count, c.minLen, c.maxLen, c.magLo, c.magHi)
	}
	runtime.ReadMemStats(&built)
	for i := range walks {
		for ts := time.Duration(0); ts <= 80*time.Second; ts += 100 * time.Millisecond {
			walks[i].At(ts)
			eps[i].At(ts)
		}
	}
	runtime.ReadMemStats(&read)

	buildBytes := float64(built.TotalAlloc-before.TotalAlloc) / builds
	buildMallocs := float64(built.Mallocs-before.Mallocs) / builds
	readBytes := float64(read.TotalAlloc-built.TotalAlloc) / builds
	readMallocs := float64(read.Mallocs-built.Mallocs) / builds
	t.Logf("build: %.0f B in %.2f mallocs; the first 80 s: %.0f B in %.2f mallocs", buildBytes, buildMallocs, readBytes, readMallocs)
	coarse := float64((c.n/walkCoarseStep + 2) * 8)
	if buildBytes > 2*coarse || buildMallocs > 3 {
		t.Errorf("a build allocates %.0f B in %.2f mallocs, want <= %.0f B (twice the coarse path) in 3", buildBytes, buildMallocs, 2*coarse)
	}
	if readBytes > walkPage*8 || readMallocs > 1 {
		t.Errorf("reading the first 80 s allocates %.0f B in %.2f mallocs, want <= one %d B page in one", readBytes, readMallocs, walkPage*8)
	}
}
