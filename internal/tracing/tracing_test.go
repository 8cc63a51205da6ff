package tracing

import (
	"testing"
	"time"

	"l3/internal/backend"
	"l3/internal/mesh"
	"l3/internal/metrics"
	"l3/internal/sim"
	"l3/internal/wan"
)

func span(backendName string, start, client, server time.Duration, ok bool) Span {
	return Span{
		Service: "svc", Backend: backendName, Src: "cluster-1",
		Start: start, End: start + client, ServerDuration: server, Success: ok,
	}
}

func TestSpanDurations(t *testing.T) {
	sp := span("b", time.Second, 30*time.Millisecond, 20*time.Millisecond, true)
	if sp.ClientDuration() != 30*time.Millisecond {
		t.Fatalf("ClientDuration = %v", sp.ClientDuration())
	}
	if sp.NetworkDelay() != 10*time.Millisecond {
		t.Fatalf("NetworkDelay = %v", sp.NetworkDelay())
	}
	// Malformed span (server > client) clamps to zero network.
	bad := span("b", 0, 10*time.Millisecond, 20*time.Millisecond, true)
	if bad.NetworkDelay() != 0 {
		t.Fatalf("negative network not clamped: %v", bad.NetworkDelay())
	}
}

func TestRecorderCapAndDrops(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Record(span("b", 0, time.Millisecond, time.Millisecond, true))
	}
	if len(r.Spans()) != 2 || r.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d", len(r.Spans()), r.Dropped())
	}
	spans := r.Spans()
	spans[0].Backend = "mutated"
	if r.Spans()[0].Backend == "mutated" {
		t.Fatal("Spans aliases internal storage")
	}
}

func TestExtractSeparatesNetworkFromExecution(t *testing.T) {
	var spans []Span
	for i := 0; i < 200; i++ {
		// 20ms execution + 10ms network, spread over 4 seconds.
		spans = append(spans, span("b", time.Duration(i)*20*time.Millisecond,
			30*time.Millisecond, 20*time.Millisecond, true))
	}
	exec := Extract(spans, time.Second, ExecutionOnly, nil)
	client := Extract(spans, time.Second, ClientObserved, nil)

	em, ep, n, ok := exec.Summary("b")
	if !ok || n != 200 {
		t.Fatalf("exec summary: n=%d ok=%v", n, ok)
	}
	if em < 19*time.Millisecond || em > 21*time.Millisecond {
		t.Fatalf("execution median = %v, want ~20ms (network excluded)", em)
	}
	cm, _, _, _ := client.Summary("b")
	if cm < 29*time.Millisecond || cm > 31*time.Millisecond {
		t.Fatalf("client median = %v, want ~30ms (network included)", cm)
	}
	if ep < em {
		t.Fatalf("p99 %v below median %v", ep, em)
	}
}

func TestExtractBucketsAndGaps(t *testing.T) {
	spans := []Span{
		span("b", 500*time.Millisecond, 10*time.Millisecond, 10*time.Millisecond, true),
		span("b", 2500*time.Millisecond, 10*time.Millisecond, 10*time.Millisecond, false),
	}
	e := Extract(spans, time.Second, ExecutionOnly, nil)
	series := e.Series["b"]
	if len(series) != 3 {
		t.Fatalf("series length = %d, want 3", len(series))
	}
	if series[0].Count != 1 || series[1].Count != 0 || series[2].Count != 1 {
		t.Fatalf("bucket counts = %+v", series)
	}
	if series[1].Success != 1 {
		t.Fatal("empty bucket should default to success 1")
	}
	if series[2].Success != 0 {
		t.Fatalf("failed span bucket success = %v", series[2].Success)
	}
}

func TestExtractCustomKey(t *testing.T) {
	spans := []Span{
		span("b1", 0, time.Millisecond, time.Millisecond, true),
		span("b2", 0, time.Millisecond, time.Millisecond, true),
	}
	spans[0].Src = "cluster-1"
	spans[1].Src = "cluster-2"
	e := Extract(spans, time.Second, ExecutionOnly, func(s Span) string { return s.Src })
	keys := e.Keys()
	if len(keys) != 2 || keys[0] != "cluster-1" || keys[1] != "cluster-2" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestExtractSummaryUnknownKey(t *testing.T) {
	e := Extract(nil, time.Second, ExecutionOnly, nil)
	if _, _, _, ok := e.Summary("nope"); ok {
		t.Fatal("unknown key reported ok")
	}
}

func TestMeshIntegrationSpansMatchModel(t *testing.T) {
	engine := sim.NewEngine()
	m := mesh.New(engine, sim.NewRand(1), wan.New(wan.DefaultConfig()), metrics.NewRegistry())
	rec := NewRecorder(0)
	m.SetSpanRecorder(rec)
	_, _ = m.AddService("api")
	_, _ = m.AddBackend("api", "api-c2", "cluster-2", backend.Config{},
		func(time.Duration, *sim.Rand) (time.Duration, bool) { return 50 * time.Millisecond, true })
	for i := 0; i < 20; i++ {
		engine.After(time.Duration(i)*100*time.Millisecond, func() {
			_ = m.Call("cluster-1", "api", func(mesh.Result) {})
		})
	}
	engine.RunUntil(time.Minute)

	spans := rec.Spans()
	if len(spans) != 20 {
		t.Fatalf("recorded %d spans, want 20", len(spans))
	}
	for _, sp := range spans {
		if sp.ServerDuration != 50*time.Millisecond {
			t.Fatalf("server duration = %v, want the modelled 50ms", sp.ServerDuration)
		}
		// Cross-cluster: network must be present and plausible (~10ms RTT).
		if nd := sp.NetworkDelay(); nd < 3*time.Millisecond || nd > 30*time.Millisecond {
			t.Fatalf("network delay = %v, want ~10ms", nd)
		}
		if sp.Src != "cluster-1" || sp.Backend != "api-c2" || !sp.Success {
			t.Fatalf("span fields: %+v", sp)
		}
	}

	// The extraction recovers the modelled execution time, excluding the
	// WAN — exactly the paper's §5.1 step.
	e := Extract(spans, time.Second, ExecutionOnly, nil)
	med, _, _, ok := e.Summary("api-c2")
	if !ok || med != 50*time.Millisecond {
		t.Fatalf("extracted execution median = %v, want exactly 50ms", med)
	}
}
