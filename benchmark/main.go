// Command benchmark is the repository's one repeatable benchmark: five
// long, fixed-work workloads over the simulator, the control plane and the
// wall-clock proxy, five end-to-end metrics on each, and a per-layer ledger
// from a separate traced run. BENCHMARK.json at the repository root names
// the command, the workloads and the metrics; README.md in this directory
// says how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// metricDef names one metric. Bound is set on end-to-end metrics only.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	About  string
}

// endToEnd are the five numbers a user of the system would see, the same
// five on every workload. An op is one simulated client request (sim_*),
// one reconcile round over the fleet (control_fleet), one proxied HTTP
// request (serve_*).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "wall time from workload start to the first timed op; median of three set-ups"},
	{"ops_per_s", "1/s", "higher", 0.25, "throughput over the best tenth of the timed section's slices (simulated runs, control rounds, 100 ms windows of requests)"},
	{"op_ms_p50", "ms", "lower", 0.25, "time per op over the best tenth of those slices: run wall / its requests (sim), round wall (control), the window's median client latency (serve)"},
	{"alloc_bytes_per_op", "B", "lower", 0.03, "MemStats.TotalAlloc over the timed section / ops, whole process"},
	{"allocs_per_op", "1", "lower", 0.03, "MemStats.Mallocs over the timed section / ops, whole process"},
}

// perLayer are the traced run's numbers, layer = module name. A metric a
// workload's path does not touch reads 0 there.
var perLayer = []metricDef{
	{Name: "sim.events_per_op", Unit: "count", Better: "lower", About: "engine events fired per op"},
	{Name: "sim.schedule_ns", Unit: "ns", Better: "lower", About: "rig: one Schedule and the Step that fires it"},
	{Name: "mesh.call_ns", Unit: "ns", Better: "lower", About: "rig: one whole mesh request, one outstanding"},
	{Name: "mesh.call_split_ns", Unit: "ns", Better: "lower", About: "rig: the same under the TrafficSplit-weighted picker L3 and C3 use"},
	{Name: "mesh.call_allocs", Unit: "count", Better: "lower", About: "rig: mallocs per mesh request"},
	{Name: "loadgen.request_ns", Unit: "ns", Better: "lower", About: "rig: one open-loop arrival and its recorder entry"},
	{Name: "dsb.calls_per_op", Unit: "count", Better: "lower", About: "mesh calls per entry request (1 on sim_trace)"},
	{Name: "metrics.record_ns", Unit: "ns", Better: "lower", About: "rig: counter Inc + histogram Observe through resolved handles"},
	{Name: "metrics.snapshot_us", Unit: "us", Better: "lower", About: "Registry.SnapshotAppend at the workload's series count"},
	{Name: "metrics.expose_us", Unit: "us", Better: "lower", About: "Registry.WritePrometheus per pass"},
	{Name: "metrics.expose_bytes", Unit: "B", Better: "lower", About: "exposition text size"},
	{Name: "metrics.parse_us", Unit: "us", Better: "lower", About: "metrics.ParseExposition per pass"},
	{Name: "timeseries.series", Unit: "count", Better: "lower", About: "series in the control plane's database"},
	{Name: "timeseries.append_us", Unit: "us", Better: "lower", About: "DB.AppendSample per sample, gate included"},
	{Name: "timeseries.rate_us", Unit: "us", Better: "lower", About: "one DB.Rate query at the workload's series count"},
	{Name: "timeseries.quantile_us", Unit: "us", Better: "lower", About: "one DB.HistogramQuantile query"},
	{Name: "core.scrape_us", Unit: "us", Better: "lower", About: "one scrape pass (sim: snapshot+append; control: expose+parse+append; serve: GET /metrics+parse)"},
	{Name: "core.collect_us", Unit: "us", Better: "lower", About: "collector self time per round: reconcile minus its children"},
	{Name: "core.assign_us", Unit: "us", Better: "lower", About: "assigner time per round, all splits"},
	{Name: "core.reconcile_us", Unit: "us", Better: "lower", About: "reconcile ticks per round, all controllers"},
	{Name: "core.reconcile_share", Unit: "1", Better: "lower", About: "reconcile time / traced wall time"},
	{Name: "core.updates_per_round", Unit: "count", Better: "higher", About: "TrafficSplit writes per round"},
	{Name: "core.round_scaling_exp", Unit: "1", Better: "lower", About: "log-log slope of round time, 24 to 102 backends (control_fleet)"},
	{Name: "guard.admit_ns", Unit: "ns", Better: "lower", About: "rig: Hygiene.Admit per sample"},
	{Name: "guard.gate_us", Unit: "us", Better: "lower", About: "WriteGate.Guard per split (spans on control_fleet, rig elsewhere)"},
	{Name: "guard.suppressed_ratio", Unit: "1", Better: "higher", About: "split writes that changed the store / gate attempts"},
	{Name: "smi.update_us", Unit: "us", Better: "lower", About: "Store.Update and its watch fan-out per write"},
	{Name: "trace.sample_ns", Unit: "ns", Better: "lower", About: "rig: the scenario backend model's latency and success draw per request"},
	{Name: "trace.generate_ms", Unit: "ms", Better: "lower", About: "rig: trace.Generate of one scenario"},
	{Name: "bench.run_fixed_ms", Unit: "ms", Better: "lower", About: "rig: world build + drain of a run with no simulated time"},
	{Name: "serve.direct_ms_p50", Unit: "ms", Better: "lower", About: "same client straight to a stub"},
	{Name: "serve.proxy_added_ms_p50", Unit: "ms", Better: "lower", About: "client - stub handler - direct baseline, median"},
	{Name: "serve.proxy_added_ms_p99", Unit: "ms", Better: "lower", About: "the same at the 99th percentile"},
	{Name: "serve.pick_ns", Unit: "ns", Better: "lower", About: "rig: Router.Pick"},
	{Name: "serve.record_ns", Unit: "ns", Better: "lower", About: "rig: Backend.Record"},
	{Name: "serve.layer_allocs_per_op", Unit: "count", Better: "lower", About: "serve.MeasureProxyLayerAllocs"},
	{Name: "serve.attempts_per_op", Unit: "1", Better: "lower", About: "upstream responses on /metrics / requests sent"},
	{Name: "serve.scrape_ms", Unit: "ms", Better: "lower", About: "GET /metrics + parse from outside"},
	{Name: "serve.rounds", Unit: "count", Better: "higher", About: "control rounds inside the timed section"},
	{Name: "overload.admit_ns", Unit: "ns", Better: "lower", About: "rig: WallAdmitter Admit+Release, policy on, no shedding"},
	{Name: "client.op_ms_p99", Unit: "ms", Better: "lower", About: "client latency, 99th percentile (diagnostic)"},
	{Name: "client.op_ms_max", Unit: "ms", Better: "lower", About: "client latency, maximum (diagnostic)"},
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower", About: "process CPU time / ops, untraced pass"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower", About: "collections in the untraced pass"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower", About: "total stop-the-world pause in the untraced pass"},
	{Name: "proc.heap_peak_mb", Unit: "MB", Better: "lower", About: "MemStats.HeapSys after the untraced pass"},
	{Name: "tracing.overhead_ratio", Unit: "1", Better: "higher", About: "ops_per_s traced / untraced"},
	{Name: "ledger.unattributed_share", Unit: "1", Better: "lower", About: "share of traced wall time no line of the ledger claims"},
}

var workloads = []workload{
	{"sim_trace", "Figure 10's grid (5 trace scenarios x round-robin, C3, L3): the data plane does nearly all the work, the 3-backend control loop about an eighth", newSimTrace},
	{"sim_dsb", "Figure 9's hotel-reservation call graph under L3: nested calls, 51 backends of series, three controllers, so collector and TSDB queries dominate", newSimDSB},
	{"control_fleet", "the control plane alone at 102 backends, no traffic: exposition, parse, gated append, collect, guarded assign, split write", newControlFleet},
	{"serve_get", "bodyless GET through the real proxy on loopback at saturation: per-request proxy cost is everything, the simulator does nothing", newServeGet},
	{"serve_post", "POST 1 KiB, 3 KiB answer through the same proxy: bodies, copy buffers and the unhedged, unretried path", newServePost},
}

// record is the line the acceptance driver reads.
type record struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// labelled is the -json form: the record plus which run produced it.
type labelled struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	record
}

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	runs      int
	jsonOnly  bool
	list      bool
	selfcheck bool
	outDir    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&o.seconds, "seconds", 15, "nominal length of the timed section the fixed work is sized for")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics and the ledger")
	flag.IntVar(&o.runs, "runs", 1, "repeat each workload on seed, seed+1, ... and print median and quartiles (with -selfcheck: runs per set, default 5)")
	flag.BoolVar(&o.jsonOnly, "json", false, "print one JSON record per run and nothing else")
	flag.BoolVar(&o.list, "list", false, "print workloads and metrics and exit")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "two alternating sets of runs of the same binary; fail if their medians differ by more than a metric's bound")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory the traced run writes its spans to")
	flag.Parse()

	// Two processors at most: the numbers are for a small shared host, and
	// a larger one must not change what the serve workloads contend for.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, out io.Writer) error {
	if o.list {
		printList(out)
		return nil
	}
	if o.seconds < 1 || o.runs < 1 || flag.NArg() > 0 {
		return fmt.Errorf("bad arguments: -seconds and -runs must be at least 1, and there are no positional arguments")
	}
	var selected []workload
	for _, wl := range workloads {
		if o.workload == "all" || o.workload == wl.name {
			selected = append(selected, wl)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q (see -list)", o.workload)
	}
	human := out
	if o.jsonOnly {
		human = io.Discard
	}
	fmt.Fprintln(human, "host:", hostStamp())
	if o.selfcheck {
		return selfcheck(o, selected, human, out)
	}
	failed := false
	for _, wl := range selected {
		series := make(map[string][]float64)
		for i := 0; i < o.runs; i++ {
			p := params{seed: o.seed + uint64(i), seconds: o.seconds}
			rec, err := runOnce(wl, p, o.trace == 1, o.outDir, human)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			emit(out, o, wl, p.seed, rec)
			failed = failed || !rec.Correct // a failed op is a failed check
			for name, m := range rec.Metrics {
				series[name] = append(series[name], m.Value)
			}
		}
		if o.runs > 1 {
			printSummary(human, wl.name, series, o.trace == 1)
		}
	}
	if failed {
		return errors.New("a run failed a correctness check or an op")
	}
	return nil
}

// emit prints a run's record as its last line of output.
func emit(out io.Writer, o options, wl workload, seed uint64, rec record) {
	var line []byte
	if o.jsonOnly {
		line, _ = json.Marshal(labelled{Workload: wl.name, Seed: seed, Trace: o.trace, record: rec})
	} else {
		line, _ = json.Marshal(rec)
	}
	fmt.Fprintln(out, string(line))
}

func runOnce(wl workload, p params, traced bool, outDir string, human io.Writer) (record, error) {
	if load, ok := loadAverage(); ok && load > float64(runtime.NumCPU()) {
		fmt.Fprintf(human, "warning: 1-minute load average %.2f exceeds nproc %d; timings will be disturbed\n", load, runtime.NumCPU())
	}
	fmt.Fprintf(human, "\n== %s seed %d (%s)\n", wl.name, p.seed, wl.why)
	if traced {
		return runTraced(wl, p, outDir, human)
	}
	return runUntraced(wl, p, human)
}

// setupRepeats is how many times a run sets its world up; setup_s is the
// median, and the last world built is the one measured.
const setupRepeats = 3

func runUntraced(wl workload, p params, human io.Writer) (record, error) {
	var w world
	var setupS []float64
	var prints []string
	repeats := setupRepeats
	if p.small {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return record{}, err
			}
		}
		start := time.Now()
		var err error
		w, err = wl.setUp(p, nil)
		if err != nil {
			return record{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		prints = append(prints, w.fingerprint())
	}
	sec, err := timeSection(w)
	if err != nil {
		w.close()
		return record{}, err
	}
	bad := w.verify()
	if err := w.close(); err != nil {
		bad = append(bad, err.Error())
	}
	for i := 1; i < len(prints); i++ {
		if prints[i] != prints[0] {
			bad = append(bad, fmt.Sprintf("set-up %d on the same seed produced different outputs from set-up 0", i))
		}
	}
	if sec.failed > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d ops failed", sec.failed, sec.ops))
	}
	ops := float64(sec.ops)
	values := map[string]float64{
		"setup_s":            median(setupS),
		"ops_per_s":          steadyOpsPerS(sec.slices),
		"op_ms_p50":          steadyOpMs(sec.slices),
		"alloc_bytes_per_op": float64(sec.allocBytes) / ops,
		"allocs_per_op":      float64(sec.mallocs) / ops,
	}
	rec := makeRecord(endToEnd, values, sec, bad)
	fmt.Fprintf(human, "timed section: %d ops in %.2f s (%.6g ops/s over the whole section), %d failed; ops_per_s and op_ms_p50 from the best tenth of %d slices; setup_s the median of %.4g\n",
		sec.ops, sec.wall.Seconds(), sec.opsPerS(), sec.failed, len(sec.slices), setupS)
	printMetrics(human, endToEnd, values)
	printVerdict(human, bad)
	return rec, nil
}

func runTraced(wl workload, p params, outDir string, human io.Writer) (record, error) {
	p.halved = true
	// Untraced pass: the denominator of the tracing overhead and the
	// source of the proc.* numbers.
	u, err := wl.setUp(p, nil)
	if err != nil {
		return record{}, fmt.Errorf("set-up: %w", err)
	}
	plain, err := timeSection(u)
	if err != nil {
		u.close()
		return record{}, err
	}
	bad := u.verify()
	if err := u.close(); err != nil {
		bad = append(bad, err.Error())
	}

	micro, err := microRigs(p.small)
	if err != nil {
		return record{}, err
	}
	tr := newTracer()
	t, err := wl.setUp(p, tr)
	if err != nil {
		return record{}, fmt.Errorf("traced set-up: %w", err)
	}
	sec, err := timeSection(t)
	if err != nil {
		t.close()
		return record{}, err
	}
	own, ledger, err := t.layers(sec, micro)
	if err != nil {
		t.close()
		return record{}, err
	}
	bad = append(bad, t.verify()...)
	if err := t.close(); err != nil {
		bad = append(bad, err.Error())
	}
	// The traced world is built here from public constructors; where set-up
	// is deterministic it must have reproduced the untraced world's outputs,
	// or the ledger describes some other program.
	if u.fingerprint() != t.fingerprint() {
		bad = append(bad, "the traced world's set-up outputs differ from the untraced world's on the same seed")
	}
	if plain.failed+sec.failed > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d ops failed", plain.failed+sec.failed, plain.ops+sec.ops))
	}

	values := micro
	for k, v := range own {
		values[k] = v
	}
	values["proc.cpu_us_per_op"] = float64(plain.cpu.Microseconds()) / float64(plain.ops)
	values["proc.gc_cycles"] = float64(plain.gcCycles)
	values["proc.gc_pause_ms"] = float64(plain.gcPause.Nanoseconds()) / 1e6
	values["proc.heap_peak_mb"] = plain.heapSysMB
	values["tracing.overhead_ratio"] = steadyOpsPerS(sec.slices) / steadyOpsPerS(plain.slices)

	spans := tr.snapshot()
	path, err := writeSpans(outDir, wl.name, spans)
	if err != nil {
		return record{}, err
	}
	total := plain
	total.ops += sec.ops
	total.failed += sec.failed
	rec := makeRecord(perLayer, values, total, bad)
	fmt.Fprintf(human, "untraced pass %d ops in %.2f s (%.1f ops/s), traced pass %d ops in %.2f s (%.1f ops/s); %d spans -> %s\n",
		plain.ops, plain.wall.Seconds(), plain.opsPerS(), sec.ops, sec.wall.Seconds(), sec.opsPerS(), len(spans), path)
	for _, l := range ledger {
		fmt.Fprintln(human, l)
	}
	printMetrics(human, perLayer, values)
	printVerdict(human, bad)
	return rec, nil
}

func makeRecord(defs []metricDef, values map[string]float64, sec section, bad []string) record {
	rec := record{Correct: len(bad) == 0, Attempted: sec.ops, Failed: sec.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			rec.Correct = false
		}
		rec.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return rec
}

func printMetrics(w io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %16.6g %-6s\n", d.Name, values[d.Name], d.Unit)
	}
}

func printVerdict(w io.Writer, bad []string) {
	if len(bad) == 0 {
		fmt.Fprintln(w, "checks: all passed")
		return
	}
	for _, b := range bad {
		fmt.Fprintln(w, "CHECK FAILED:", b)
	}
}

func printSummary(w io.Writer, name string, series map[string][]float64, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "\n-- %s over %d runs: median [q1, q3] spread (bound)\n", name, len(series[defs[0].Name]))
	for _, d := range defs {
		q1, q3 := quartiles(series[d.Name])
		line := fmt.Sprintf("  %-28s %14.6g [%.6g, %.6g] %-6s spread %.2f %%", d.Name, median(series[d.Name]), q1, q3, d.Unit, 100*spread(series[d.Name]))
		if d.Bound > 0 {
			line += fmt.Sprintf(" (bound %.0f %%)", 100*d.Bound)
		}
		fmt.Fprintln(w, line)
	}
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", wl.name, wl.why)
	}
	fmt.Fprintln(w, "end-to-end metrics (every workload; bound = share of the parent's median by which it may worsen):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-28s %-6s %-7s bound %2.0f %%  %s\n", d.Name, d.Unit, d.Better, 100*d.Bound, d.About)
	}
	fmt.Fprintln(w, "per-layer metrics (-trace 1; layer = the part of the name before the dot):")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-28s %-6s %-7s %s\n", d.Name, d.Unit, d.Better, d.About)
	}
}
