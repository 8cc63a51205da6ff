package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// params sizes one run. Timed sections are fixed work: the op counts below
// derive from seconds and nothing else, so two runs of one seed do the same
// work and their counts and allocation totals repeat.
type params struct {
	seed uint64
	// seconds is the nominal length the fixed work is sized for on the
	// reference host (the serve workloads measure for exactly this long).
	seconds int
	// small shrinks every workload to about 1/50 for the smoke test.
	small bool
	// halved is set on traced runs, which split the nominal work between an
	// untraced and a traced pass.
	halved bool
}

// scaled returns the nominal count n (sized for a 15-second run) scaled to
// the run's seconds, halved on traced runs, never below floor.
func (p params) scaled(n, floor int) int {
	v := (n*p.seconds + 7) / 15
	if p.halved {
		v /= 2
	}
	if v < floor {
		v = floor
	}
	return v
}

// world is one built instance of a workload: set-up has run, the timed
// section has not.
type world interface {
	// measure runs the timed section. It returns ops attempted and failed
	// and the section cut into slices.
	measure() (ops, failed uint64, slices []slice, err error)
	// verify returns one line per failed correctness check, after measure.
	verify() []string
	// fingerprint digests set-up outputs that must repeat exactly when the
	// seed does ("" when set-up is not deterministic, as on real sockets).
	fingerprint() string
	// layers returns the workload's own per-layer numbers and the lines of
	// its ledger (traced worlds only). micro holds the rig numbers the
	// ledger may need for its estimates.
	layers(sec section, micro map[string]float64) (map[string]float64, []string, error)
	// close stops everything the world started and waits for it.
	close() error
}

// workload names one set of inputs and how to build it.
type workload struct {
	name string
	why  string
	// setUp builds the world and runs its untimed warm-up. A non-nil tracer
	// builds the traced variant.
	setUp func(p params, tr *tracer) (world, error)
}

// slice is one piece of a timed section, short enough that the host's
// disturbances hit some slices and spare others: a simulated run, a control
// round, a 100 ms window of proxied requests. Slices of one kind are equal
// in what they do (the same scenario and algorithm, say), so their times
// are samples of one quantity.
type slice struct {
	kind int
	ops  uint64
	wall time.Duration
	// opMs is the slice's time per op: wall / ops for the batch loops, the
	// median client latency of the window's requests on serve.
	opMs float64
}

// section is what the harness measures around one timed section.
type section struct {
	ops, failed uint64
	wall        time.Duration
	slices      []slice

	allocBytes, mallocs uint64
	cpu                 time.Duration
	gcCycles            uint32
	gcPause             time.Duration
	heapSysMB           float64
}

func (s section) opsPerS() float64 {
	if s.wall <= 0 {
		return 0
	}
	return float64(s.ops) / s.wall.Seconds()
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timeSection runs w's timed section between a forced collection and two
// MemStats reads. time.Now carries a monotonic reading, so wall is immune
// to clock steps.
func timeSection(w world) (section, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	ops, failed, slices, err := w.measure()
	wall := time.Since(start)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&after)
	if err != nil {
		return section{}, err
	}
	return section{
		ops: ops, failed: failed, wall: wall, slices: slices,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		cpu:        cpu1 - cpu0,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		heapSysMB:  float64(after.HeapSys) / (1 << 20),
	}, nil
}

// hostStamp describes where the numbers came from; every report carries it.
func hostStamp() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s; one process, clients/proxy/stubs share it over loopback",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// loadAverage returns the 1-minute load average, or false where
// /proc/loadavg is absent.
func loadAverage() (float64, bool) {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	return v, err == nil
}
